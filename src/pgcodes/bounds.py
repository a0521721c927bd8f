"""Numeric bound functions and secant statistics for codewords over PG(n, q).

theta(m, q) counts the points of an m-dimensional projective subspace, with
theta(-1) = theta(-2) = 0.  delta/W/U are the thresholds that split
subspaces into thin (restricted weight <= W) and thick (>= U); they require
an extension field (h >= 2).  All floors are computed in exact integer
arithmetic: floor(sqrt(q)/2^k) is isqrt of the exactly-floored radicand,
never a float.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .ff import is_prime
from .codes import Codeword, restricted_weight, support
from .geometry import SubspacePointSet, _chunk_slices


def theta(m: int, q: int) -> int:
    """(q^(m+1) - 1)/(q - 1) for m >= 0; zero for m in {-1, -2}."""
    if m < -2:
        raise ValueError("theta undefined for m < -2")
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


@dataclass(frozen=True)
class BoundContext:
    """Ambient parameters (n, p, h); delta/W/U additionally need h >= 2."""

    n: int
    p: int
    h: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.h < 1:
            raise ValueError("h must be >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.h

    def require_extension(self):
        if self.h < 2:
            raise ValueError("delta/W/U require h >= 2 (h = 1 supports theta only)")


def delta(i: int, ctx: BoundContext) -> int:
    """Threshold Delta_{i,q}: floor(sqrt(q)/2^(i-2)) for h > 2, floor(p/2^i) for h = 2."""
    ctx.require_extension()
    if not 0 <= i <= ctx.n:
        raise ValueError(f"i = {i} out of range [0, {ctx.n}]")
    q = ctx.q
    if ctx.h == 2:
        return ctx.p >> i
    if i <= 2:
        return math.isqrt(q << (2 * (2 - i)))
    return math.isqrt(q // (4 ** (i - 2)))


def weight_bound_W(i: int, ctx: BoundContext) -> int:
    """Thin threshold W(i, q) = (Delta_{i,q} - 1) * theta(i-1)."""
    return (delta(i, ctx) - 1) * theta(i - 1, ctx.q)


def _floor_pow(q: int, e: int) -> int:
    return q ** e if e >= 0 else 0


def thick_bound_U(i: int, ctx: BoundContext) -> int:
    """Thick threshold U(n, i, q); floors of negative powers of q are zero."""
    ctx.require_extension()
    if not 1 <= i <= ctx.n:
        raise ValueError(f"i = {i} out of range [1, {ctx.n}]")
    q, n = ctx.q, ctx.n
    dn = delta(n, ctx)
    return (q ** i
            - (dn - 2) * _floor_pow(q, i - 1)
            - (i - 2) * ((q - 1) * dn + 1) * _floor_pow(q, i - 3)
            + theta(i - 3, q))


class Classification(Enum):
    THIN = "Thin"
    THICK = "Thick"
    NEITHER = "Neither"


def classify(c: Codeword, sub: SubspacePointSet, ctx: BoundContext) -> Classification:
    """Thin / thick / neither for a subspace, by its restricted weight.

    Points (dim 0) are thin exactly when they are holes and thick otherwise.
    For degenerate parameter ranges where the thin and thick ranges overlap,
    thin wins.  The classification is computed for any context; whether the
    dichotomy is guaranteed is a regime question (see `regime_flags`), which
    reports attach separately.
    """
    sp = c.space
    if (ctx.n, ctx.p, ctx.h) != (sp.n, sp.field.p, sp.field.h):
        raise ValueError("context does not match the codeword's space")
    rw = restricted_weight(c, sub)
    i = sub.dim
    if i == 0:
        return Classification.THIN if rw == 0 else Classification.THICK
    if rw <= weight_bound_W(i, ctx):
        return Classification.THIN
    if rw >= thick_bound_U(i, ctx):
        return Classification.THICK
    return Classification.NEITHER


# ---------------------------------------------------------------------------
# Secant spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecantSpectrum:
    """Histogram of |line & supp(c)| over every line of the space."""

    histogram: dict[int, int]
    total_lines: int

    def count(self, s: int) -> int:
        return self.histogram.get(s, 0)

    def to_json(self) -> dict:
        return {"histogram": [[s, self.histogram[s]]
                              for s in sorted(self.histogram) if self.histogram[s]]}


def _spectrum_plane(sp, supp: np.ndarray) -> dict[int, int]:
    """Histogram over every line of the plane, from the pencils of the support."""
    counts = np.zeros(sp.num_hyperplanes, dtype=np.int64)
    for sl in _chunk_slices(len(supp), sp.q + 1):
        np.add.at(counts, sp._orthogonal_indices(2, supp[sl]), 1)
    hist = np.bincount(counts)
    return {int(s): int(k) for s, k in enumerate(hist) if k}


def _spectrum_general_range(c: Codeword, supp: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum over anchors in supp[lo:hi] of the per-anchor secant-size counts.

    A line through an anchor corresponds to a point of the quotient space;
    bucketing the other support points by quotient index yields, for each
    line through the anchor, its number of further support points.
    """
    sp = c.space
    tq = sp.theta(sp.n - 1)
    weighted = np.zeros(sp.q + 2, dtype=np.int64)
    for a in range(lo, hi):
        yidx = sp._project(int(supp[a]), np.delete(supp, a))
        buckets = np.bincount(yidx, minlength=tq)
        local = np.bincount(buckets)
        # bucket size k means a (k+1)-secant through this anchor
        weighted[1:1 + len(local)] += local
    return weighted


def _anchor_ranges(nsup: int, threads: int) -> list[tuple[int, int]]:
    """Split nsup anchors into one contiguous range per worker thread.

    The pool is capped at os.cpu_count() and at nsup, whatever `threads` asks.
    """
    workers = max(1, min(threads, os.cpu_count() or 1, nsup))
    step = -(-nsup // workers)
    return [(lo, min(nsup, lo + step)) for lo in range(0, nsup, step)]


def secant_spectrum(c: Codeword, max_lines: Optional[int] = None,
                    threads: int = 1) -> SecantSpectrum:
    """Exact histogram of line-support intersection sizes over all lines.

    For n >= 3 the anchors are split over at most `threads` threads (>= 1).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sp = c.space
    total = sp.line_count()
    cap = max_lines if max_lines is not None else 50_000_000
    if total > cap:
        raise ValueError(f"line count {total} exceeds the cap of {cap}")
    supp = support(c)
    if len(supp) == 0:
        return SecantSpectrum({0: total}, total)
    if sp.n == 2:
        return SecantSpectrum(_spectrum_plane(sp, supp), total)
    ranges = _anchor_ranges(len(supp), threads)
    with ThreadPoolExecutor(max_workers=len(ranges)) as ex:
        weighted = sum(ex.map(lambda r: _spectrum_general_range(c, supp, *r), ranges))
    hist: dict[int, int] = {}
    for s in range(1, len(weighted)):
        if weighted[s]:
            if weighted[s] % s != 0:
                raise RuntimeError("inconsistent secant accumulation")
            hist[s] = int(weighted[s] // s)
    covered = sum(hist.values())
    if covered < total:
        hist[0] = total - covered
    return SecantSpectrum(hist, total)


def max_thin_secant(c: Codeword, ctx: BoundContext,
                    spectrum: Optional[SecantSpectrum] = None) -> int:
    """Largest s with a thin s-secant to supp(c); 0 when none exists."""
    if spectrum is None:
        spectrum = secant_spectrum(c)
    w1 = weight_bound_W(1, ctx)
    thin_sizes = [s for s, k in spectrum.histogram.items() if k and s <= w1]
    return max(thin_sizes, default=0)


# ---------------------------------------------------------------------------
# Regime bookkeeping
# ---------------------------------------------------------------------------

def regime_flags(ctx: BoundContext, weight: Optional[int] = None) -> list[str]:
    """The hypotheses of the guaranteed regime that this input violates.

    Empty list = fully in regime: h >= 2, q > 27, the section's size
    assumptions (n >= 3 only), and weight <= W(n, q) when a weight is given.
    """
    flags = []
    q = ctx.q
    if ctx.h == 1:
        flags.append("h=1")
    if q <= 27:
        flags.append("q<=27")
    if ctx.n >= 3 and ctx.h >= 2:
        bound = max(32, 2 ** (2 * ctx.n - 4)) if ctx.h > 2 else 2 ** (2 * ctx.n)
        if q < bound:
            flags.append("size-assumption")
    if weight is not None and ctx.h >= 2:
        if weight > weight_bound_W(ctx.n, ctx):
            flags.append("weight-above-W")
    return flags


def context_for(c: Codeword) -> BoundContext:
    sp = c.space
    return BoundContext(sp.n, sp.field.p, sp.field.h)
