"""Correctness checks on pgcodes outputs.

Every check compares an output with a computation made here, or with a
property the method must have; none compares with a stored copy of an
earlier output.  A failed check raises CheckFailed.  `selftest.py` feeds each
check a corrupted output to show that it can fail.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

MINIMAL = "Minimal"
NOT_MINIMAL = "NotMinimal"


class CheckFailed(Exception):
    pass


def theta(m: int, q: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1) if m >= 0 else 0


def merge_terms(terms: Sequence[tuple[int, int]], p: int) -> dict[int, int]:
    """Drawn (hyperplane, coefficient) terms merged mod p, zero sums dropped."""
    merged: dict[int, int] = {}
    for h, c in terms:
        merged[int(h)] = (merged.get(int(h), 0) + int(c)) % p
    return {h: c for h, c in sorted(merged.items()) if c}


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def _digits(a: int, p: int, h: int) -> list[int]:
    return [(a // p ** i) % p for i in range(h)]


def _undigits(d: Sequence[int], p: int) -> int:
    return sum(int(c) * p ** i for i, c in enumerate(d))


def poly_mulmod(a: int, b: int, p: int, h: int, modulus: Sequence[int]) -> int:
    """a * b in F_p[x] / (monic modulus), elements encoded as sum c_i p^i."""
    da, db = _digits(a, p, h), _digits(b, p, h)
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, h - 1, -1):
        lead = prod[k]
        if lead:
            for i in range(h + 1):
                prod[k - h + i] = (prod[k - h + i] - lead * modulus[i]) % p
    return _undigits(prod[:h], p)


def check_field(field, rng: np.random.Generator, samples: int = 64):
    """The dense tables against polynomial arithmetic done here, then
    a(b+c) = ab+ac, a*a^-1 = 1 and a^q = a on sampled elements."""
    p, h, q = field.p, field.h, field.q
    add, mul, inv = field.add_table, field.mul_table, field.inv_table
    a = rng.integers(1, q, size=samples)
    b = rng.integers(0, q, size=samples)
    c = rng.integers(0, q, size=samples)
    for x, y in zip(a.tolist(), b.tolist()):
        if int(mul[x, y]) != poly_mulmod(x, y, p, h, field.modulus):
            raise CheckFailed(f"mul table: {x}*{y} != polynomial product")
        s = _undigits([(u + v) % p for u, v in zip(_digits(x, p, h), _digits(y, p, h))], p)
        if int(add[x, y]) != s:
            raise CheckFailed(f"add table: {x}+{y} != digit-wise sum")
    if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):
        raise CheckFailed("a(b+c) != ab+ac")
    if not np.all(mul[a, inv[a]] == 1):
        raise CheckFailed("a * a^-1 != 1")
    x = a.copy()
    for _ in range(h):           # x -> x^p, h times, gives a^q
        y = x.copy()
        for _ in range(p - 1):
            y = mul[y, x]
        x = y
    if not np.array_equal(x, a):
        raise CheckFailed("a^q != a")


# ---------------------------------------------------------------------------
# decomposition and verdict
# ---------------------------------------------------------------------------

def check_decomposition(recovered: dict[int, int], drawn: Sequence[tuple[int, int]],
                        p: int, c_values: np.ndarray, theta_h: int):
    """Recovered terms are the drawn ones, and there are ceil(wt/theta(n-1))."""
    want = merge_terms(drawn, p)
    got = {int(h): int(c) for h, c in recovered.items()}
    if got != want:
        raise CheckFailed(f"decomposition {sorted(got.items())} != drawn {sorted(want.items())}")
    wt = int(np.count_nonzero(c_values))
    if len(got) != -(-wt // theta_h):
        raise CheckFailed(f"{len(got)} terms but ceil({wt}/{theta_h}) = {-(-wt // theta_h)}")


def check_witness(w_values: np.ndarray, c_values: np.ndarray, p: int):
    """Nonzero, support inside supp(c), not a scalar multiple of c."""
    w = np.asarray(w_values, dtype=np.int64) % p
    c = np.asarray(c_values, dtype=np.int64) % p
    if not w.any():
        raise CheckFailed("witness is zero")
    if np.any((w != 0) & (c == 0)):
        raise CheckFailed("witness support leaves supp(c)")
    for lam in range(1, p):
        if np.array_equal(w, (lam * c) % p):
            raise CheckFailed(f"witness is {lam} * c")


def incident_any(field, point_rows: np.ndarray, dual_rows: np.ndarray) -> np.ndarray:
    """For each point row, whether its GF(q) dot product with some dual row is 0."""
    add, mul = field.add_table, field.mul_table
    pts = np.asarray(point_rows, dtype=np.int64)
    hit = np.zeros(len(pts), dtype=bool)
    for dual in np.asarray(dual_rows, dtype=np.int64):
        acc = np.zeros(len(pts), dtype=np.int64)
        for j, d in enumerate(dual):
            acc = add[acc, mul[pts[:, j], d]]
        hit |= acc == 0
    return hit


def check_holes(holes: Sequence[int], c_values: np.ndarray, field,
                point_table: np.ndarray, term_duals: np.ndarray):
    """Every exceptional hole is a hole of c lying on a term hyperplane."""
    holes = np.asarray(holes, dtype=np.int64)
    if len(holes) == 0:
        return
    if np.any(c_values[holes] != 0):
        raise CheckFailed("an exceptional hole is not a hole of c")
    if not incident_any(field, point_table[holes], term_duals).all():
        raise CheckFailed("an exceptional hole lies on no term hyperplane")


def check_oracle(verdict: str, oracle_minimal: bool):
    """A decided verdict agrees with the exhaustive oracle."""
    if verdict == MINIMAL and not oracle_minimal:
        raise CheckFailed("verdict Minimal but the oracle found a smaller support")
    if verdict == NOT_MINIMAL and oracle_minimal:
        raise CheckFailed("verdict NotMinimal but the oracle says minimal")


def check_seven_line(fixpoint_blocks, holes, verdict: str, oracle_minimal: bool,
                     combinations: int, expected: dict, p: int):
    """The paper's seven-line plane: 3-block fixpoint, holes {R, S},
    Undetermined, and minimal after all p^7 combinations."""
    if set(map(frozenset, fixpoint_blocks)) != expected["blocks"]:
        raise CheckFailed("seven-line fixpoint is not the 3-block partition")
    if set(int(x) for x in holes) != expected["holes"]:
        raise CheckFailed("seven-line exceptional holes are not {R, S}")
    if verdict != "Undetermined":
        raise CheckFailed(f"seven-line verdict {verdict}, expected Undetermined")
    if not oracle_minimal or combinations != p ** 7:
        raise CheckFailed(f"seven-line oracle: minimal={oracle_minimal}, {combinations} combinations")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def check_spectrum(hist: dict[int, int], n: int, q: int, wt: int,
                   delta_n: int, w1: int, u1: int):
    """Line counting identities, the secant gap, and the thin/thick dichotomy."""
    lines = sum(hist.values())
    if lines != theta(n, q) * theta(n - 1, q) // (q + 1):
        raise CheckFailed(f"sum k_s = {lines}, not the number of lines")
    if sum(s * k for s, k in hist.items()) != wt * theta(n - 1, q):
        raise CheckFailed("sum s k_s != wt theta(n-1)")
    if sum(s * (s - 1) // 2 * k for s, k in hist.items()) != wt * (wt - 1) // 2:
        raise CheckFailed("sum C(s,2) k_s != C(wt,2)")
    for s, k in hist.items():
        if k and delta_n + 1 <= s <= q - delta_n + 1:
            raise CheckFailed(f"{s}-secant inside the gap [{delta_n + 1}, {q - delta_n + 1}]")
        if k and not (s <= w1 or s >= u1):
            raise CheckFailed(f"{s}-secant neither thin (<= {w1}) nor thick (>= {u1})")


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def check_identical(reports: Sequence[bytes]):
    """Repeated invocations on one spec give byte-identical reports."""
    for r in reports[1:]:
        if r != reports[0]:
            raise CheckFailed("CLI reports differ between invocations on one spec")


def check_cli_report(report: bytes, drawn: Optional[Sequence[tuple[int, int]]], p: int,
                     verdict: Optional[str] = None, oracle_minimal: Optional[bool] = None,
                     histogram: Optional[dict[int, int]] = None,
                     split: Optional[dict[str, int]] = None):
    """The report's decomposition is the drawn one; its verdict, oracle,
    spectrum and thin/thick split equal the in-process results."""
    rep = json.loads(report.decode("utf-8"))
    if "error" in rep:
        raise CheckFailed(f"CLI report has an error: {rep['error']}")
    if drawn is not None:
        want = [[h, c] for h, c in merge_terms(drawn, p).items()]
        if rep["decomposition"]["terms"] != want:
            raise CheckFailed("CLI decomposition != drawn terms")
    if verdict is not None and rep["minimality"]["verdict"] != verdict:
        raise CheckFailed("CLI verdict != in-process verdict")
    if oracle_minimal is not None and rep["minimality"]["oracle"]["minimal"] != oracle_minimal:
        raise CheckFailed("CLI oracle != in-process oracle")
    if histogram is not None:
        want = [[s, k] for s, k in sorted(histogram.items()) if k]
        if rep["spectrum"]["histogram"] != want:
            raise CheckFailed("CLI spectrum != in-process spectrum")
    if split is not None and rep["thin_thick_lines"] != split:
        raise CheckFailed("CLI thin/thick split != in-process split")
