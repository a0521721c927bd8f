"""Golden digest: decompositions, verdicts and spectra stay byte-identical.

One SHA-256 over the canonical JSON of every output on a small seeded set.
A change that alters any term, flag, tie-break, verdict, witness, oracle
answer or histogram changes the digest.  Update `GOLDEN_SHA256` only for a
change that is meant to alter reports, and say so where the change is
recorded.
"""

import hashlib
import json

import numpy as np

from pgcodes import (NoDecompositionError, combine, decompose, oracle_minimal,
                     p2_fixtures, secant_spectrum, szonyi_example, verdict)
from pgcodes.minimality import random_combination

GOLDEN_SHA256 = "7adcc5e9159efae0996a17c0c3763e22ffc984b02b32354dd99ca34ab58da0b6"

# (n, p, h, seed, term counts)
CASES = [
    (2, 3, 3, 271, (1, 2, 3, 4)),
    (2, 2, 5, 321, (1, 2, 3, 4)),
    (2, 5, 3, 1253, (1, 2, 3, 5, 8)),
    (3, 2, 4, 316, (1, 2)),
]


def _outputs(cw):
    p = cw.space.field.p
    try:
        d = decompose(cw)
    except NoDecompositionError as exc:
        return {"decompose_error": str(exc)}
    out = {"decomposition": d.to_json(), "flags": list(d.flags),
           "tie_breaks": list(d.tie_breaks),
           "spectrum": secant_spectrum(cw).to_json()}
    rep = verdict(cw, with_oracle=p ** d.m <= 5 ** 6, decomposition=d)
    out["verdict"] = rep.to_json()
    if rep.oracle is not None and rep.oracle.counterexample is not None:
        out["counterexample"] = rep.oracle.counterexample.to_json()
    return out


def test_golden_digest(spaces):
    records = []
    for n, p, h, seed, js in CASES:
        sp = spaces(n, p, h)
        rng = np.random.default_rng(seed)
        for j in js:
            cw, _ = random_combination(sp, j, rng)
            records.append(_outputs(cw))
    records.append(_outputs(szonyi_example(spaces(2, 5, 3))[0]))
    for kind in ("pencil", "no-hole-line"):
        records.append(_outputs(p2_fixtures(spaces(2, 2, 5), kind)[0]))
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


GOLDEN_BENCH_SIZE_SHA256 = "152aeb5ab5418de41cb855825509200b336f4aa66627fff629457c3664c92fea"

# (n, p, h, seed, term count): the benchmark's largest shapes, where the
# peel's support bookkeeping and the union's block rows are long
BENCH_SIZE_CASES = [
    (2, 2, 11, 2048, 22),
    (3, 5, 3, 103, 4),
]


def test_golden_digest_at_benchmark_sizes(spaces):
    records = []
    for n, p, h, seed, j in BENCH_SIZE_CASES:
        cw, _ = random_combination(spaces(n, p, h), j, np.random.default_rng(seed))
        d = decompose(cw)
        rep = verdict(cw, with_oracle=p ** d.m <= 5 ** 6, decomposition=d)
        record = {"decomposition": d.to_json(), "flags": list(d.flags),
                  "tie_breaks": list(d.tie_breaks), "verdict": rep.to_json()}
        if rep.oracle is not None and rep.oracle.counterexample is not None:
            record["counterexample"] = rep.oracle.counterexample.to_json()
        records.append(record)
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BENCH_SIZE_SHA256


GOLDEN_LARGE_M_SHA256 = "fd29ddd5b8780a2ccc264563afeeb8436ed5a12623a5afe93ffbe062aad738d4"


def _large_m_decompositions(sp):
    """Two PG(2,2048) decompositions far above the benchmark's term counts:
    60 random lines, and a 30-line pencil whose vertex is c's one hole, so
    the witness and the oracle's counterexample are both built."""
    pencil = [int(h) for h in np.sort(sp.pencil_indices(7))[:30]]
    return [random_combination(sp, 60, np.random.default_rng(6060)),
            combine(sp, [(h, 1) for h in pencil])]


def test_golden_digest_at_large_m(spaces):
    sp = spaces(2, 2, 11)
    records = []
    for cw, d in _large_m_decompositions(sp):
        res = oracle_minimal(d, cap=2 ** 60)
        records.append({
            "verdict": verdict(cw, decomposition=d).to_json(),
            "oracle": [res.minimal, res.combinations_checked],
            "counterexample": (res.counterexample.to_json()
                               if res.counterexample is not None else None),
        })
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LARGE_M_SHA256
