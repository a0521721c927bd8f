"""Command-line front end: build codewords from JSON specs, analyse them,
emit deterministic JSON reports, and run the verification suites.

Commands
--------
geom-info   print the theta/Delta/W/U table and regime flags for (n, p, h)
analyze     analyse a codeword spec file (weight, decomposition, spectrum,
            minimality, oracle) and emit a JSON report
verify      run a named verification suite with per-check timing
fixture     emit the expanded spec of a named fixture

Codeword spec files are JSON:  {"n":..,"p":..,"h":..,"terms":[[H, coef],..]}
where H is either a hyperplane index or a dual coordinate list, or
{"fixture": "szonyi"|"pencil"|"no-hole-line"|"random-j", "n":.., "p":..,
"h":.., "j":.., "seed":..}.

Exit codes: 0 success, 1 error, usage error or failed check, 2 completed
with out-of-regime warnings (suppress with --no-regime-exit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from typing import Optional

import numpy as np

from . import __version__, bounds, codes, minimality
from .bounds import BoundContext
from .ff import field_make
from .geometry import ProjectiveSpace, space_make


def _emit(report: dict, out: Optional[str]):
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _meta(input_bytes: Optional[bytes], flags) -> dict:
    """The report's meta; `input_sha256` is null when no bytes were read."""
    return {
        "version": __version__,
        "input_sha256": None if input_bytes is None else hashlib.sha256(input_bytes).hexdigest(),
        "regime_flags": list(flags),
    }


# ---------------------------------------------------------------------------
# geom-info
# ---------------------------------------------------------------------------

def cmd_geom_info(args) -> int:
    """The table for (n, p, h), or a report of only `error` and `meta`, with
    empty regime flags and exit code 1, when (n, p, h) is refused or an entry
    of its table has more digits than an int may print."""
    key = f"geom-info:{args.n}:{args.p}:{args.h}".encode()
    try:
        ctx = BoundContext(args.n, args.p, args.h)
        # theta(n) > q^n: a table whose theta(n) cannot print is refused
        # before any entry is built, with the error serialising it would
        # raise.  Bit lengths decide it before q^n is built when
        # q^n >= 2^(n h (bitlen(p) - 1)) >= 2^(4 limit) > 10^limit.
        limit = getattr(sys, "get_int_max_str_digits", int)()   # 0: no limit
        if limit and ctx.n * ctx.h * (ctx.p.bit_length() - 1) >= 4 * limit:
            str(10 ** limit)
        q = ctx.q
        str(bounds.theta(ctx.n, q))
        report = {
            "n": ctx.n, "p": ctx.p, "h": ctx.h, "q": q,
            "theta": [[m, bounds.theta(m, q)] for m in range(ctx.n + 1)],
        }
        flags = bounds.regime_flags(ctx)
        if ctx.h >= 2:
            report["delta"] = [[i, bounds.delta(i, ctx)] for i in range(ctx.n + 1)]
            report["W"] = [[i, bounds.weight_bound_W(i, ctx)] for i in range(ctx.n + 1)]
            report["U"] = [[i, bounds.thick_bound_U(i, ctx)] for i in range(1, ctx.n + 1)]
        else:
            report["delta"] = report["W"] = report["U"] = None
        report["meta"] = _meta(key, flags)
        _emit(report, args.out)        # serialises before it writes anything
    except ValueError as exc:
        _emit({"error": str(exc), "meta": _meta(key, [])}, args.out)
        return 1
    if flags and not args.no_regime_exit:
        return 2
    return 0


# ---------------------------------------------------------------------------
# codeword specs and fixtures
# ---------------------------------------------------------------------------

def _space_from_params(n: int, p: int, h: int, cap_points: Optional[int]) -> ProjectiveSpace:
    return space_make(n, field_make(p, h), max_points=cap_points)


def _spec_key(spec: dict, key: str) -> int:
    """The integer under a required key of a spec."""
    if key not in spec:
        raise ValueError(f"the spec has no {key!r} key")
    return codes.checked_int(spec[key], key)


def _build_from_spec(spec: dict, cap_points: Optional[int]):
    """(codeword, the decomposition that `combine` built it from, fixture
    info or None) for a codeword spec dict."""
    if not isinstance(spec, dict):
        raise ValueError("a codeword spec must be a JSON object")
    n, p, h = (_spec_key(spec, k) for k in ("n", "p", "h"))
    space = _space_from_params(n, p, h, cap_points)
    fixture = spec.get("fixture")
    if fixture is None:
        pairs = spec.get("terms", [])
        if not (isinstance(pairs, list)
                and all(isinstance(t, list) and len(t) == 2 for t in pairs)):
            raise ValueError("terms must be a list of [hyperplane, coefficient] pairs")
        terms = []
        for pos, (hspec, coef) in enumerate(pairs):
            if isinstance(hspec, list):
                coords = [codes.checked_int(c, "a dual coordinate") for c in hspec]
                if not any(coords):
                    raise ValueError(f"term {pos} has the zero dual vector {coords}, "
                                     "which names no hyperplane")
                hidx = space.hyperplane_index(coords)
            else:
                hidx = codes.checked_index(hspec, space, "hyperplane")
            terms.append((hidx, codes.checked_int(coef, "a coefficient")))
        return (*codes.combine(space, terms), None)
    if fixture == "szonyi":
        return minimality.szonyi_example(space)
    if fixture in ("pencil", "no-hole-line"):
        return minimality.p2_fixtures(space, fixture)
    if fixture != "random-j":
        raise ValueError(f"unknown fixture {fixture!r}")
    j = _spec_key(spec, "j")
    if not 0 <= j <= space.num_hyperplanes:
        raise ValueError(f"j must lie in [0, {space.num_hyperplanes}], got {j}")
    seed = codes.checked_int(spec.get("seed", 0), "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cw, d = minimality.random_combination(space, j, np.random.default_rng(seed))
    return cw, d, {"terms": d.to_json()["terms"], "seed": seed}


def cmd_fixture(args) -> int:
    """The expanded spec, whose terms are the fixture's own defining terms,
    or a report of only `error` and `meta` (the fixture's name and the
    version) and exit code 1 when it cannot be built."""
    spec = {"n": args.n, "p": args.p, "h": args.h, "fixture": args.name}
    if args.name == "random-j":
        spec["j"] = args.j
        spec["seed"] = args.seed
    meta = {"fixture": args.name, "version": __version__}
    try:
        cw, d, info = _build_from_spec(spec, args.cap_points)
    except ValueError as exc:
        _emit({"error": str(exc), "meta": meta}, args.out)
        return 1
    expanded = {
        "n": args.n, "p": args.p, "h": args.h,
        "terms": [[cw.space.hyperplane_table[hidx].tolist(), coef]
                  for hidx, coef in d.terms.items()],
        "meta": {**meta, "info": info},
    }
    _emit(expanded, args.out)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    try:
        with open(args.spec, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _emit({"error": str(exc), "meta": _meta(None, [])}, args.out)
        return 1
    # the space, its tables and the codewords are freed when _analyze
    # returns, so serialising a long report does not stack on top of them
    report, rc = _analyze(args, raw)
    _emit(report, args.out)
    return rc


def _analyze(args, raw: bytes) -> tuple[dict, int]:
    """The analyze report of a spec file's bytes, and the exit code.

    A spec that cannot be decoded, parsed or built gives a report of only
    `error` and `meta`, with empty regime flags, and exit code 1.
    """
    try:
        spec = json.loads(raw.decode("utf-8"))
        cw, _, info = _build_from_spec(spec, args.cap_points)
    except (ValueError, RecursionError) as exc:      # RecursionError: JSON nested too deep
        return {"error": str(exc), "meta": _meta(raw, [])}, 1
    space = cw.space
    ctx = bounds.context_for(cw)
    wt = codes.weight(cw)
    flags = bounds.regime_flags(ctx, weight=wt)
    report = {
        "space": {"n": space.n, "p": space.field.p, "h": space.field.h,
                  "q": space.q, "num_points": space.num_points},
        "weight": wt,
        "support_size": wt,
        "meta": _meta(raw, flags),
    }
    if info is not None:
        report["fixture"] = info

    rc = 0
    try:
        if args.decompose or args.minimality or args.oracle:
            d = minimality.decompose(cw) if wt else None
            if args.decompose:
                report["decomposition"] = d.to_json() if d else {"terms": []}
        if args.spectrum:
            spec_obj = bounds.secant_spectrum(cw, max_lines=args.cap_lines,
                                              threads=args.threads)
            report["spectrum"] = spec_obj.to_json()
            if ctx.h >= 2:
                w1 = bounds.weight_bound_W(1, ctx)
                u1 = bounds.thick_bound_U(1, ctx)
                thin = sum(k for s, k in spec_obj.histogram.items() if s <= w1)
                thick = sum(k for s, k in spec_obj.histogram.items()
                            if s > w1 and s >= u1)
                neither = spec_obj.total_lines - thin - thick
                report["thin_thick_lines"] = {"thin": thin, "thick": thick,
                                              "neither": neither}
        if args.minimality or args.oracle:
            rep = minimality.verdict(cw, with_oracle=args.oracle,
                                     oracle_cap=args.cap_oracle,
                                     decomposition=d)
            report["minimality"] = rep.to_json()
    except ValueError as exc:                        # NoDecompositionError is one
        report["error"] = str(exc)
        rc = 1
    if not rc and flags and not args.no_regime_exit:
        rc = 2
    return report, rc


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _check(name: str, fn) -> bool:
    """Run one check and print its PASS or FAIL line.  Any exception fails
    the check alone, so the remaining checks still run; one other than a
    failed assertion is named in the line and its traceback goes to stderr."""
    t0 = time.time()
    try:
        fn()
        ok = True
        msg = ""
    except AssertionError as exc:
        ok = False
        msg = f" ({exc})"
    except Exception as exc:
        traceback.print_exc()
        ok = False
        msg = f" ({type(exc).__name__}: {exc})"
    dt = time.time() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name} [{dt:.2f}s]{msg}")
    return ok


def _require(ok, *message) -> None:
    """`assert ok, *message`, kept under `python -O`."""
    if not ok:
        raise AssertionError(*message)


def _suite_bounds(args) -> list[tuple[str, callable]]:
    def prop_thick_lower_bound():
        for n in range(2, 9):
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                h = 2
                while p ** h <= 1024:
                    ctx = BoundContext(n, p, h)
                    q = ctx.q
                    dn = bounds.delta(n, ctx)
                    for i in range(1, n + 1):
                        lhs = bounds.theta(i, q) - dn * q ** (i - 1) + 1
                        u = bounds.thick_bound_U(i, ctx)
                        _require(lhs <= u, (n, p, h, i))
                        if i == 1:
                            _require(lhs == u, (n, p, h))
                    h += 1

    def theta_recursion():
        for q in (4, 5, 32, 64, 125):
            for n in range(1, 6):
                _require(q * bounds.theta(n - 1, q) + 1 == bounds.theta(n, q))

    def delta_halving():
        for (n, p, h) in ((3, 2, 6), (3, 5, 3), (4, 2, 8), (3, 11, 2)):
            ctx = BoundContext(n, p, h)
            _require(2 * bounds.delta(n, ctx) <= bounds.delta(n - 1, ctx))

    return [("prop-thick-lower-bound", prop_thick_lower_bound),
            ("theta-recursion", theta_recursion),
            ("delta-halving", delta_halving)]


def _suite_secants(args) -> list[tuple[str, callable]]:
    def gap_and_dichotomy():
        space = _space_from_params(args.n, args.p, args.h, args.cap_points)
        ctx = BoundContext(args.n, args.p, args.h)
        dn = bounds.delta(space.n, ctx)
        w1 = bounds.weight_bound_W(1, ctx)
        u1 = bounds.thick_bound_U(1, ctx)
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            j = int(rng.integers(1, max(2, dn - 1)))
            cw, _ = minimality.random_combination(space, j, rng)
            spec = bounds.secant_spectrum(cw, max_lines=args.cap_lines,
                                          threads=args.threads)
            scan = bounds.secant_spectrum(codes.Codeword(space, cw.values),
                                          max_lines=args.cap_lines, threads=args.threads)
            _require(spec.histogram == scan.histogram, "term spectrum differs from the point scan")
            for s in spec.histogram:
                _require(not (dn + 1 <= s <= space.q - dn + 1), f"{s}-secant in gap")
                _require(s <= w1 or s >= u1, f"{s}-secant neither thin nor thick")

    return [("secant-gap-and-dichotomy", gap_and_dichotomy)]


def _suite_roundtrip(args) -> list[tuple[str, callable]]:
    def roundtrip():
        space = _space_from_params(args.n, args.p, args.h, args.cap_points)
        ctx = BoundContext(args.n, args.p, args.h)
        dn = bounds.delta(space.n, ctx)
        rng = np.random.default_rng(args.seed)
        theta_h = space.theta(space.n - 1)
        for _ in range(args.trials):
            j = int(rng.integers(1, max(2, dn)))
            cw, d_true = minimality.random_combination(space, j, rng)
            d = minimality.decompose(cw)
            _require(d.terms == d_true.terms, "terms not recovered")
            _require(d.m == -(-codes.weight(cw) // theta_h), "term count mismatch")

    return [("decompose-roundtrip", roundtrip)]


def _suite_minimality(args) -> list[tuple[str, callable]]:
    def seven_line():
        space = _space_from_params(2, 5, 3, args.cap_points)
        cw, _, info = minimality.szonyi_example(space)
        rep = minimality.verdict(cw, with_oracle=True, oracle_cap=args.cap_oracle)
        expected = {frozenset(info["r"] + [info["s_prime"]]),
                    frozenset(info["s"] + [info["r_prime"]]),
                    frozenset([info["t"]])}
        _require(set(rep.fixpoint.blocks) == expected)
        _require(set(rep.exceptional_holes) == {info["R"], info["S"]})
        _require(rep.verdict == minimality.VERDICT_UNDETERMINED)
        _require(rep.oracle.minimal is True)

    def char2_fixtures():
        space = _space_from_params(2, 2, 5, args.cap_points)
        for kind in ("pencil", "no-hole-line"):
            cw = minimality.p2_fixtures(space, kind)[0]
            rep = minimality.verdict(cw, with_oracle=True, oracle_cap=args.cap_oracle)
            _require(rep.verdict == minimality.VERDICT_NOT_MINIMAL, kind)
            w = rep.witness
            _require(w is not None)
            _require(not np.any((w.values != 0) & (cw.values == 0)), "support escape")
            _require(not minimality._is_scalar_multiple(
                w.values, cw.values, space.field.p), "witness proportional")
            _require(rep.oracle.minimal is False, kind)

    return [("seven-line-example", seven_line),
            ("char2-fixtures", char2_fixtures)]


def cmd_verify(args) -> int:
    suites = {
        "bounds": _suite_bounds,
        "secants": _suite_secants,
        "roundtrip": _suite_roundtrip,
        "minimality": _suite_minimality,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check_name, fn in suites[name](args):
            all_ok &= _check(f"{name}:{check_name}", fn)
    print("OK" if all_ok else "FAILED")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, so `main` reports it like any other
    error, with exit code 1: argparse's own exit code 2 means out-of-regime
    warnings here.  Subparsers are built with the same class."""

    def error(self, message):
        raise ValueError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# each subcommand declares the options it reads, by name
_OPTIONS = {
    "--threads": dict(type=_positive_int, default=1),
    "--cap-points": dict(type=int, default=None),
    "--cap-lines": dict(type=int, default=None,
                        help="refuse a secant spectrum of a space with more lines "
                             f"(default {bounds.SPECTRUM_LINE_CAP:,})"),
    "--cap-oracle": dict(type=int, default=minimality.DEFAULT_ORACLE_CAP),
    "--out": dict(default=None, help="write the report to a file"),
    "--no-regime-exit": dict(action="store_true",
                             help="exit 0 instead of 2 on out-of-regime warnings"),
}


def _add_options(sub, *names):
    for name in names:
        sub.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pgcodes",
        description="Hyperplane incidence codes of PG(n,q): analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geom-info", help="theta/Delta/W/U table for (n, p, h)")
    g.add_argument("n", type=int)
    g.add_argument("p", type=int)
    g.add_argument("h", type=int)
    _add_options(g, "--out", "--no-regime-exit")
    g.set_defaults(func=cmd_geom_info)

    a = sub.add_parser("analyze", help="analyse a codeword spec file")
    a.add_argument("spec", help="path to a codeword spec JSON file")
    a.add_argument("--decompose", action="store_true")
    a.add_argument("--spectrum", action="store_true")
    a.add_argument("--minimality", action="store_true")
    a.add_argument("--oracle", action="store_true")
    _add_options(a, "--threads", "--cap-points", "--cap-lines", "--cap-oracle",
                 "--out", "--no-regime-exit")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=["bounds", "secants", "roundtrip",
                                     "minimality", "all"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=_positive_int, default=20)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--h", type=int, default=5)
    _add_options(v, "--threads", "--cap-points", "--cap-lines", "--cap-oracle")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("fixture", help="emit the expanded spec of a named fixture")
    f.add_argument("name", choices=["szonyi", "pencil", "no-hole-line", "random-j"])
    f.add_argument("--n", type=int, default=2)
    f.add_argument("--p", type=int, default=5)
    f.add_argument("--h", type=int, default=3)
    f.add_argument("--j", type=int, default=3)
    f.add_argument("--seed", type=int, default=0)
    _add_options(f, "--cap-points", "--out")
    f.set_defaults(func=cmd_fixture)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
