#!/usr/bin/env python3
"""Shows that the benchmark's correctness checks can fail.

    python3 perfbench/selftest.py

Each check in checks.py first gets a genuine pgcodes output, which it must
accept, and then a deliberately corrupted copy, which it must reject.  The
outputs come from PG(2,125), where every call is cheap.  Exits 1 if a genuine
output is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main() -> int:
    if not (SRC / "pgcodes" / "__init__.py").is_file():
        print(f"error: no pgcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pgcodes import bounds, codes, field_make, minimality, space_make
    import bench
    import checks

    bad = []

    def expect(ok: bool, label: str, fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
            accepted = True
        except checks.CheckFailed:
            accepted = False
        good = accepted == ok
        print(f"{'ok  ' if good else 'FAIL'} {'accepts' if accepted else 'rejects'} {label}")
        if not good:
            bad.append(label)

    rng = np.random.default_rng(0)
    field = field_make(5, 3)
    space = space_make(2, field)
    p = field.p
    theta_h = space.theta(1)

    # decomposition: a term dropped, a coefficient changed
    terms = [(int(h), int(c)) for h, c in zip(rng.choice(space.num_hyperplanes, 5, replace=False),
                                               rng.integers(1, p, 5))]
    cw, _ = codes.combine(space, terms)
    d = minimality.decompose(cw)
    expect(True, "the recovered decomposition", checks.check_decomposition,
           d.terms, terms, p, cw.values, theta_h)
    dropped = dict(list(d.terms.items())[1:])
    expect(False, "a decomposition with a term dropped", checks.check_decomposition,
           dropped, terms, p, cw.values, theta_h)
    changed = dict(d.terms)
    h0 = next(iter(changed))
    changed[h0] = changed[h0] % (p - 1) + 1
    expect(False, "a decomposition with a changed coefficient", checks.check_decomposition,
           changed, terms, p, cw.values, theta_h)

    # witness: one value moved onto a hole of c
    two = [(int(h), 1) for h in rng.choice(space.num_hyperplanes, 2, replace=False)]
    cw2, _ = codes.combine(space, two)
    rep = minimality.verdict(cw2)
    w = rep.witness.values.astype(np.int64)
    expect(True, "the NotMinimal witness", checks.check_witness, w, cw2.values, p)
    moved = w.copy()
    src = int(np.nonzero(moved)[0][0])
    hole = int(np.nonzero(cw2.values == 0)[0][0])
    moved[hole], moved[src] = moved[src], 0
    expect(False, "a witness value moved onto a hole of c", checks.check_witness,
           moved, cw2.values, p)

    # exceptional holes and oracle agreement
    seven_terms, seven = bench.seven_line_terms(space)
    cw7, _ = codes.combine(space, seven_terms)
    rep7 = minimality.verdict(cw7, with_oracle=True)
    d7 = rep7.decomposition
    duals = space.hyperplane_table[np.asarray(list(d7.terms), dtype=np.int64)]
    expect(True, "the seven-line exceptional holes", checks.check_holes,
           rep7.exceptional_holes, cw7.values, field, space.point_table, duals)
    off = int(np.nonzero(cw7.values)[0][0])
    expect(False, "an exceptional hole moved onto a support point", checks.check_holes,
           (off,) + rep7.exceptional_holes[1:], cw7.values, field, space.point_table, duals)
    expect(True, "the seven-line fixpoint, holes and oracle", checks.check_seven_line,
           rep7.fixpoint.blocks, rep7.exceptional_holes, rep7.verdict, rep7.oracle.minimal,
           rep7.oracle.combinations_checked, seven, p)
    expect(False, "a seven-line oracle that stopped one combination early",
           checks.check_seven_line, rep7.fixpoint.blocks, rep7.exceptional_holes,
           rep7.verdict, rep7.oracle.minimal, rep7.oracle.combinations_checked - 1, seven, p)
    orc2 = minimality.oracle_minimal(rep.decomposition)
    expect(True, "a NotMinimal verdict the oracle confirms", checks.check_oracle,
           rep.verdict, orc2.minimal)
    expect(False, "a NotMinimal verdict against an oracle answer of minimal",
           checks.check_oracle, rep.verdict, True)

    # spectrum: one line moved between two buckets
    ctx = bounds.context_for(cw)
    hist = dict(bounds.secant_spectrum(cw).histogram)
    args = (space.n, space.q, int(np.count_nonzero(cw.values)), bounds.delta(2, ctx),
            bounds.weight_bound_W(1, ctx), bounds.thick_bound_U(1, ctx))
    expect(True, "the secant spectrum", checks.check_spectrum, hist, *args)
    s_from, s_to = sorted(hist)[1], sorted(hist)[2]
    shifted = dict(hist)
    shifted[s_from] -= 1
    shifted[s_to] += 1
    expect(False, "a spectrum with one line moved between buckets", checks.check_spectrum,
           shifted, *args)

    # field tables: a permuted multiplication table
    expect(True, "the GF(125) tables", checks.check_field, field, np.random.default_rng(1))
    perm = np.arange(field.q)
    perm[[1, 2]] = perm[[2, 1]]
    fake = SimpleNamespace(p=field.p, h=field.h, q=field.q, modulus=field.modulus,
                           add_table=field.add_table, mul_table=field.mul_table[:, perm],
                           inv_table=field.inv_table)
    expect(False, "a multiplication table with two columns swapped", checks.check_field,
           fake, np.random.default_rng(1))

    # CLI: one report byte changed
    OUT.mkdir(exist_ok=True)
    spec = OUT / "selftest-spec.json"
    spec.write_text(json.dumps({"n": 2, "p": 5, "h": 3, "terms": [list(t) for t in terms]}))
    proc = subprocess.run([sys.executable, "-m", "pgcodes.cli", "analyze", str(spec),
                           "--decompose", "--minimality"], stdout=subprocess.PIPE,
                          env={"PYTHONPATH": str(SRC), "PATH": ""}, check=True)
    report = proc.stdout
    rep5 = minimality.verdict(cw, decomposition=d)
    expect(True, "the CLI report", checks.check_cli_report, report, terms, p,
           verdict=rep5.verdict)
    expect(True, "two identical CLI reports", checks.check_identical, [report, report])
    flipped = bytearray(report)
    flipped[len(flipped) // 2] ^= 1
    expect(False, "a CLI report that differs in one byte", checks.check_identical,
           [report, bytes(flipped)])

    print("all checks reject their corruptions" if not bad else f"{len(bad)} check(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
