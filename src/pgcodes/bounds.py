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
from .geometry import _CHUNK_ENTRIES, SubspacePointSet, _affine_digits, _f_matmul, theta

# `secant_spectrum` refuses a space with more lines than this by default
SPECTRUM_LINE_CAP = 50_000_000
# The term path of `secant_spectrum` walks the theta(n-1) lines through W
# points, m (line, term) entries a line; the point scan keys wt points by
# theta(n-1) directions.  The term path runs where _TERM_COST W m <= wt.
# Measured once on 2 vCPUs over 65 random combinations in PG(2,q) for
# q = 49, 64, 125 and 2048, PG(3,16), PG(3,64) and PG(4,8), the two paths
# break even where wt / (W m) is 6-9 wherever the walks dominate, 3-7 at
# PG(2,2048), and 14-37 for m <= 4 in the planes up to q = 125, where the
# term path's fixed cost, about 0.17 ms, dominates.  At 16 a large case
# that takes the term path runs in about half the scan's time or less, and
# a small plane case that takes it loses at most about 0.1 ms.
_TERM_COST = 16
# (line, term) entries per block of the term path: at the scan's 2^18, the
# traced peak of a PG(3,64) term spectrum with m = 4 went 0.6 -> 10 MB
_TERM_BLOCK_ENTRIES = 1 << 14


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
    sizes met by at least one line are keys.  The term path and the point
    scan of `secant_spectrum` give the same histogram."""

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


def _term_counts(c: Codeword) -> Optional[np.ndarray]:
    """hist[s] = number of lines of PG(n, q) that meet the support of
    c = sum a_i [H_i] in s points, from its m terms (H_i, a_i) alone, with
    hist[0] not filled; None where _TERM_COST W m > wt, W the walks below:
    the point scan then costs less.  Also None, before any work, where the
    m theta(n-1) term rows that give U hold more than _CHUNK_ENTRIES
    entries: they are sorted in one piece, and the scan keeps to blocks.

    A line l meets each H_i in one point or lies in it.  With A the sum of
    the a_i of the H_i that hold l, d the number of distinct points where
    the others meet l, and s(P) the sum of the a_i meeting l at P,
    |l & supp c| = (q + 1 - d) [A != 0] + #{P : A + s(P) != 0}.  With
    m >= 2, let U be the points on two or more H_i.  A line that misses U
    lies in no H_i and meets them in m distinct points, so it counts m.
    Every other line is some XY with X in U and Y on x_j = 0, j the leading
    position of X.  Its points are X + tY for t in GF(q) and Y, and H_i
    meets it at t = -(H_i.X)/(H_i.Y); at Y where only H_i.Y is 0, and
    nowhere (it holds l) where both are.  The line is reached once from each
    of its k = |l & U| points: q + 1 when two or more H_i hold it, d when
    one does, and otherwise the number of points where two or more H_i meet
    it.  So each (count, k) tally divides by k exactly, and no line needs an
    ownership test.

    Points X of U with the same leading position, the same H_i through them
    and at most one H_i off them see the same (count, k) on XY for every Y:
    that one H_i meets XY at a point of no other term.  One walk of the
    theta(n-1) lines through X stands for all of them; every other X is
    walked on its own.
    """
    sp, terms, wt = c.space, c._terms, len(c.support)
    f, n, q, p = sp.field, sp.n, sp.q, sp.field.p
    m = len(terms)
    hist = np.zeros(q + 2, dtype=np.int64)
    if m == 0:
        return hist
    if m == 1:
        t = sp.theta(n - 1)
        hist[q + 1] = t * (t - 1) // ((q + 1) * q)       # the lines of the hyperplane
        hist[1] = sp.line_count() - hist[q + 1]
        return hist
    if m * sp.theta(n - 1) > _CHUNK_ENTRIES:
        return None
    # U: the repeats of the sorted term rows, with the number of terms through each
    rows = np.sort(sp._orthogonal_indices(n, [h for h, _ in terms]).ravel())
    multiple, mult = np.unique(rows[1:][rows[1:] == rows[:-1]], return_counts=True)
    mult += 1
    # a point of U off two or more terms is a walk of its own
    if _TERM_COST * int((mult <= m - 2).sum()) * m > wt:
        return None
    duals = sp.hyperplane_table[[h for h, _ in terms]]
    xs = sp.point_table[multiple]
    lead = (xs != 0).argmax(axis=1)
    neg_u = f.mul_table[p - 1][_f_matmul(f, xs, duals.T)]         # -H_i.X, -1 = p - 1
    off = m - (neg_u == 0).sum(axis=1)
    walks = {}                  # (leading position, X walked for) -> positions in U
    for x in np.flatnonzero(off > 1).tolist():
        walks.setdefault((int(lead[x]), 1), []).append(x)
    shared = np.flatnonzero(off <= 1)
    # a shared X's group: its leading position and its term off X, m if none
    group = lead[shared] * (m + 1) + np.where(off[shared] == 0, m,
                                              (neg_u[shared] != 0).argmax(axis=1))
    keys, first, sizes = np.unique(group, return_index=True, return_counts=True)
    for key, x, size in zip(keys.tolist(), shared[first].tolist(), sizes.tolist()):
        walks.setdefault((key // (m + 1), size), []).append(x)
    if _TERM_COST * sum(map(len, walks.values())) * m > wt:
        return None

    coefs = np.array([a for _, a in terms], dtype=np.int32)
    bits = p.bit_length()                       # a key is par << bits | a
    ys = sp._get_enum(n - 1).table
    width = len(ys)
    step_x = max(1, _TERM_BLOCK_ENTRIES // (width * m))
    pieces = -(-width * m // _TERM_BLOCK_ENTRIES)
    step_y = -(-width // pieces)                # the Ys in equal pieces
    tables = {}
    reached_often = {}          # k * (q + 2) + count -> reaches of the lines with k > 1
    for (j, weight), positions in walks.items():
        if j not in tables:
            v = _f_matmul(f, ys, np.delete(duals, j, axis=1).T)   # H_i.Y, Y_j = 0 dropped
            tables[j] = f.inv_table[v], v == 0
        inv_v, v_zero = tables[j]
        for x0 in range(0, len(positions), step_x):
            nu = neg_u[positions[x0:x0 + step_x], None, :]
            for y0 in range(0, width, step_y):
                ysl = slice(y0, y0 + step_y)
                t = f.mul_table[nu, inv_v[None, ysl]]
                # q marks the meeting point Y, q + 1 a hyperplane holding the line
                par = np.where(v_zero[None, ysl], q + (nu == 0), t).reshape(-1, m)
                _tally(np.sort((par.astype(np.int32) << bits) + coefs, axis=1),
                       q, p, bits, weight, hist, reached_often)
    for key, reached in reached_often.items():
        k, s = divmod(key, q + 2)
        hist[s] += reached // k
    missing = sp.line_count() - int(hist.sum())
    if missing:
        hist[m] += missing
    return hist


def _tally(keys: np.ndarray, q: int, p: int, bits: int, weight: int,
           hist: np.ndarray, reached_often: dict):
    """Count the lines of one block, each `weight` times: into hist where
    the line has one point in U, and into reached_often by (k, count)
    otherwise.

    Row r of keys holds line r's m entries par << bits | a, sorted, with par
    the meeting parameter and q + 1 for a hyperplane holding the line, so
    those come last.  The columns are walked once, closing each run of
    equal par: every run but a last held one is a meeting point.
    """
    lines, m = keys.shape
    cols = keys.T.copy()
    par = cols >> bits
    a = cols & ((1 << bits) - 1)
    # read at A plus a run's sum: the last run may be the held one, so up to 2m terms
    nonzero = np.arange(2 * m * p) % p != 0
    held = par == q + 1
    held_by = held.sum(axis=0)
    big_a = np.where(held, a, 0).sum(axis=0)
    d = np.zeros(lines, dtype=np.int32)
    count = np.zeros(lines, dtype=np.int32)
    doubles = np.zeros(lines, dtype=np.int32)         # meeting points of two or more
    run_sum = a[0].copy()
    longer = np.zeros(lines, dtype=bool)
    for j in range(1, m + 1):
        end = par[j] != par[j - 1] if j < m else held_by == 0
        d += end
        count += end & nonzero[big_a + run_sum]
        doubles += end & longer
        if j < m:
            longer = ~end
            run_sum[end] = 0
            run_sum += a[j]
    count += np.where(nonzero[big_a], q + 1 - d, 0)
    k = np.where(held_by > 1, q + 1, np.where(held_by == 1, d, doubles))
    one = k == 1
    hist += weight * np.bincount(count[one], minlength=q + 2)
    if not one.all():
        keys, reached = np.unique(k[~one] * (q + 2) + count[~one], return_counts=True)
        for key, r in zip(keys.tolist(), reached.tolist()):
            reached_often[key] = reached_often.get(key, 0) + weight * r


def secant_spectrum(c: Codeword, max_lines: Optional[int] = None,
                    threads: int = 1) -> SecantSpectrum:
    """Exact histogram of line-support intersection sizes over all lines.

    The line cap is checked first.  A codeword that carries its terms
    (built by `combine`, `partial_combination` or `incidence_codeword`) is
    counted from them where _TERM_COST W m <= wt (`_term_counts`), in the
    calling thread, in blocks of at most _TERM_BLOCK_ENTRIES (line, term)
    entries.  Otherwise the point scan keys every support point by every
    direction, and the direction blocks of each level are split over at
    most `threads` threads (>= 1).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    sp = c.space
    total = sp.line_count()
    cap = max_lines if max_lines is not None else SPECTRUM_LINE_CAP
    if total > cap:
        raise ValueError(f"line count {total} exceeds the cap of {cap}")
    counts = None
    if c._terms is not None:
        counts = _term_counts(c)
    if counts is None:
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
