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
from .codes import Codeword, restricted_weight
from .geometry import _CHUNK_ENTRIES, SubspacePointSet, _affine_digits, theta

# `secant_spectrum` refuses a space with more lines than this by default
SPECTRUM_LINE_CAP = 50_000_000


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


def classify(c: Codeword, sub: SubspacePointSet) -> Classification:
    """Thin / thick / neither for a subspace, by its restricted weight.

    Points (dim 0) are thin exactly when they are holes and thick otherwise.
    For degenerate parameter ranges where the thin and thick ranges overlap,
    thin wins.  The classification is computed in any regime; whether the
    dichotomy is guaranteed is a regime question (see `regime_flags`), which
    reports attach separately.
    """
    ctx = context_for(c)
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
    """Histogram of |line & supp(c)| over every line of the space; only
    sizes met by at least one line are keys."""

    histogram: dict[int, int]
    total_lines: int

    def to_json(self) -> dict:
        return {"histogram": [[s, self.histogram[s]] for s in sorted(self.histogram)]}


def _affine_counts(field, dim: int, x: np.ndarray, on_inf: np.ndarray,
                   blocks: list[tuple[int, int, int, int]]) -> np.ndarray:
    """hist[s] = number of affine lines of PG(dim, q) in the direction
    blocks that meet the support in s points.

    x holds the affine support points as rows (x_1..x_dim) and on_inf marks
    the directions in the support.  A direction d with leading 1 at column
    k sends an affine point x to the key of y = x - x_k d with y_k dropped,
    a base-q number in [0, q^(dim-1)) that names its line.  Block (k, a, b, r)
    holds the directions with leading column k, middle columns the base-q
    digits of r and last column in [a, b); the last column's term of the
    key depends only on (k, a, b), so it is reused over every r.
    """
    q = field.q
    bins = q ** (dim - 1)
    minus = field.mul_table[field.p - 1]           # -1 is encoded as p - 1
    hist = np.zeros(q + 2, dtype=np.int64)
    shared = None
    for k, a, b, r in blocks:
        if shared != (k, a, b):
            shared = (k, a, b)
            minus_xk = minus[x[:, k]]
            fixed = np.zeros(len(x), dtype=np.intp)
            for c in range(k):
                fixed += x[:, c] * q ** (dim - 2 - c)
            # int32: the one array kept across blocks; keys and bins are intp
            shift = np.arange(b - a, dtype=np.int32) * bins
            if k < dim - 1:
                shift = shift + field.array_add(x[:, -1:], field.mul_table[minus_xk, a:b])
        base = fixed.copy()
        for c in range(k + 1, dim - 1):
            dc = r // q ** (dim - 2 - c) % q
            y = field.array_add(x[:, c], field.mul_table[dc, minus_xk])
            base += y.astype(np.intp) * q ** (dim - 1 - c)
        counts = np.bincount((base[:, None] + shift).ravel(),
                             minlength=(b - a) * bins).reshape(b - a, bins)
        first = theta(dim - 2 - k, q) + r * q + a
        counts += on_inf[first:first + b - a, None]
        hist += np.bincount(counts.ravel(), minlength=q + 2)
        del counts                  # free the bins before the next block's keys
    return hist


def _block_ranges(nblocks: int, threads: int) -> list[tuple[int, int]]:
    """Split nblocks direction blocks into one contiguous range per worker.

    The pool is capped at os.cpu_count() and at nblocks, whatever `threads` asks.
    """
    workers = max(1, min(threads, os.cpu_count() or 1, nblocks))
    step = -(-nblocks // workers)
    return [(lo, min(nblocks, lo + step)) for lo in range(0, nblocks, step)]


def _line_counts(sp, dim: int, supp: np.ndarray, threads: int) -> np.ndarray:
    """hist[s] = number of lines of PG(dim, q) that meet supp in s >= 1 points.

    PG(dim, q) is the first theta(dim) points of the space.  Its first
    theta(dim-1) points are the hyperplane at infinity x0 = 0, indexed as
    PG(dim-1, q); point theta(dim-1) + t is the affine point (1, base-q digits
    of t).  Each line either has a direction at infinity or lies in it.
    """
    q = sp.q
    hist = np.zeros(q + 2, dtype=np.int64)
    if len(supp) == 0:
        return hist
    if dim == 1:
        hist[len(supp)] = 1
        return hist
    t_inf = sp.theta(dim - 1)
    at_inf = supp[supp < t_inf]
    t = supp[supp >= t_inf] - t_inf
    x = np.stack(_affine_digits(t, q, dim), axis=1)
    on_inf = np.zeros(t_inf, dtype=np.int64)
    on_inf[at_inf] = 1
    # a block of B directions holds B * len(x) keys and B * q^(dim-1) bins,
    # together at most _CHUNK_ENTRIES (one direction's bins may exceed it)
    step = max(1, min(q, _CHUNK_ENTRIES // (len(x) + q ** (dim - 1))))
    size = -(-q // -(-q // step))              # equal pieces of the last column
    blocks = [(dim - 1, 0, 1, 0)] + [(k, a, min(q, a + size), r) for k in range(dim - 1)
                                      for a in range(0, q, size)
                                      for r in range(q ** (dim - 2 - k))]
    ranges = _block_ranges(len(blocks), threads)

    def work(r):
        return _affine_counts(sp.field, dim, x, on_inf, blocks[slice(*r)])

    # the calling thread takes the first range itself, so threads=1 starts no
    # thread; a pool thread's own malloc arena added 3-5 MB to peak RSS
    with ThreadPoolExecutor(max_workers=len(ranges)) as ex:
        rest = ex.map(work, ranges[1:])
        hist += work(ranges[0]) + sum(rest)
    return hist + _line_counts(sp, dim - 1, at_inf, threads)


def secant_spectrum(c: Codeword, max_lines: Optional[int] = None,
                    threads: int = 1) -> SecantSpectrum:
    """Exact histogram of line-support intersection sizes over all lines.

    The direction blocks of each level are split over at most `threads`
    threads (>= 1).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sp = c.space
    total = sp.line_count()
    cap = max_lines if max_lines is not None else SPECTRUM_LINE_CAP
    if total > cap:
        raise ValueError(f"line count {total} exceeds the cap of {cap}")
    counts = _line_counts(sp, sp.n, c.support, threads)
    hist = {s: int(k) for s, k in enumerate(counts) if s and k}
    covered = sum(hist.values())
    if covered < total:
        hist[0] = total - covered
    return SecantSpectrum(hist, total)


def max_thin_secant(c: Codeword, *, spectrum: Optional[SecantSpectrum] = None) -> int:
    """Largest s with a thin s-secant to supp(c); 0 when none exists."""
    if spectrum is None:
        spectrum = secant_spectrum(c)
    w1 = weight_bound_W(1, context_for(c))
    return max((s for s in spectrum.histogram if s <= w1), default=0)


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
