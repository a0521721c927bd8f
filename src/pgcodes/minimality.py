"""Decomposition of small-weight codewords and minimality analysis.

A codeword of weight at most W(n, q) is (in the guaranteed regime) a unique
combination of ceil(wt / theta(n-1)) hyperplanes.  `decompose` recovers the
terms by majority peeling: some hyperplane always carries more than half of
theta(n-1) points of equal nonzero value, and subtracting it shrinks the
problem.  The partition machinery then refines the singleton partition of
the terms along a hole-witness adjacency graph to a fixpoint; the size of
the fixpoint and of its exceptional hole set decide minimality, with a
constructive witness in the non-minimal case and an exact oracle (linear
algebra over F_p on the span of the terms) as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import bounds
from .bounds import BoundContext
from .codes import Codeword, Decomposition, combine, weight
from .ff import Field, nullspace
from .geometry import ProjectiveSpace, _chunk_slices

DEFAULT_ORACLE_CAP = 100_000_000
# `combinations_checked` counts coefficient vectors in blocks of this size
_ORACLE_BLOCK = 1 << 15


class NoDecompositionError(ValueError):
    """Raised when majority peeling cannot express the codeword."""


class OracleCapExceededError(ValueError):
    """Raised when p^m exceeds the oracle's budget."""


class NoWitnessError(RuntimeError):
    """Raised when no solution of the hole system escapes span(c)."""


VERDICT_MINIMAL = "Minimal"
VERDICT_NOT_MINIMAL = "NotMinimal"
VERDICT_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class HyperplanePartition:
    """Partition of the decomposition's hyperplanes; generation 0 = singletons."""

    blocks: tuple[frozenset[int], ...]
    generation: int

    @property
    def size(self) -> int:
        return len(self.blocks)

    def as_sorted_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


def _make_partition(blocks, generation):
    ordered = tuple(sorted((frozenset(b) for b in blocks), key=min))
    return HyperplanePartition(ordered, generation)


@dataclass(frozen=True)
class AdjacencyWitnessGraph:
    """Edges between partition blocks, each annotated with a witness hole."""

    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (block_i, block_j, witness point)


@dataclass(frozen=True)
class OracleResult:
    minimal: bool
    combinations_checked: int
    counterexample: Optional[Codeword] = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MinimalityReport:
    decomposition: Decomposition
    fixpoint: HyperplanePartition
    history: tuple[HyperplanePartition, ...]
    exceptional_holes: tuple[int, ...]
    verdict: str
    witness: Optional[Codeword]
    oracle: Optional[OracleResult]
    regime_flags: tuple[str, ...]

    def to_json(self) -> dict:
        out = {
            "decomposition": self.decomposition.to_json(),
            "partition_history": [p.as_sorted_lists() for p in self.history],
            "fixpoint": self.fixpoint.as_sorted_lists(),
            "exceptional_holes": list(self.exceptional_holes),
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "oracle": None,
            "regime_flags": list(self.regime_flags),
        }
        if self.oracle is not None:
            out["oracle"] = {
                "minimal": self.oracle.minimal,
                "combinations_checked": self.oracle.combinations_checked,
                "flags": list(self.oracle.flags),
            }
        return out


# ---------------------------------------------------------------------------
# Decomposition by majority peeling
# ---------------------------------------------------------------------------

def _histogram(space: ProjectiveSpace, supp: np.ndarray, vals: np.ndarray,
               anchor_pos: int) -> np.ndarray:
    """hist[y, alpha-1]: the support points other than the anchor
    supp[anchor_pos] that have value alpha and project to point y of the
    quotient PG(n-1, q).  supp is the sorted support and vals its values."""
    p = space.field.p
    others = np.concatenate((supp[:anchor_pos], supp[anchor_pos + 1:]))
    others_vals = np.concatenate((vals[:anchor_pos], vals[anchor_pos + 1:]))
    codes = space._project(int(supp[anchor_pos]), others) * (p - 1) + others_vals - 1
    return np.bincount(codes, minlength=space.theta(space.n - 1) * (p - 1)).reshape(-1, p - 1)


def _plane_pairing(f: Field) -> np.ndarray:
    """perm[t]: the one point y of PG(1, q) with t . y = 0, for every point
    t, in enumeration order: (0, 1) and (1, 0) swap, and (1, b) goes to
    (1, -1/b).  An involution."""
    perm = np.empty(f.q + 1, dtype=np.intp)
    perm[0], perm[1] = 1, 0
    perm[2:] = 1 + f.mul_table[f.p - 1][f.inv_table[1:f.q]]     # -1 is encoded p - 1
    return perm


def _pencil_counts(space: ProjectiveSpace, hist: np.ndarray, anchor_val: int) -> np.ndarray:
    """counts[t, alpha-1]: the support points of value alpha, the anchor of
    value anchor_val included, on hyperplane pencil_indices(anchor)[t].

    Position t is a point of the quotient PG(n-1, q), and a support point
    projecting to y lies on hyperplane t iff t . y = 0, so the counts sum
    the anchor's `_histogram` over the quotient row of t.  In the plane that
    row is one point, perm[t] of `_plane_pairing`, so the counts are the
    histogram's rows permuted.  At n >= 3 the histogram of every nonzero y
    is scattered through its row, in blocks; this is the fallback of
    `_certified_candidate` and the reference it is tested against.
    """
    if space.n == 2:
        counts = hist[_plane_pairing(space.field)]
    else:
        p = space.field.p
        ys, alphas = np.nonzero(hist)
        width = space.theta(space.n - 2)
        counts = np.zeros(hist.size, dtype=np.int64)
        for sl in _chunk_slices(len(ys), width):
            cells = space._orthogonal_indices(space.n - 1, ys[sl]) * (p - 1) + alphas[sl, None]
            np.add.at(counts, cells.ravel(), np.repeat(hist[ys[sl], alphas[sl]], width))
        counts = counts.reshape(hist.shape)
    counts[:, anchor_val - 1] += 1
    return counts


def _pencil_candidate(space: ProjectiveSpace, hist: np.ndarray, anchor: int, anchor_val: int):
    """(count, hyperplane index, value, tie) of the maximal candidate of the
    whole pencil, from `_pencil_counts`.  Ties break to the lowest
    hyperplane index, then the smallest value.  A pencil row increases with
    t, so that is the first maximal cell of the counts in row-major order,
    and only its t is mapped to a hyperplane, by `_pencil_index`."""
    counts = _pencil_counts(space, hist, anchor_val)
    best = int(counts.max())
    t, alpha = np.unravel_index(int(np.argmax(counts)), counts.shape)
    tie = np.count_nonzero(counts == best) > 1
    return best, space._pencil_index(anchor, int(t)), int(alpha) + 1, tie


def _certified_candidate(space: ProjectiveSpace, hist: np.ndarray, anchor: int,
                         anchor_val: int):
    """`_pencil_candidate(...)` where a bound proves it is a strict maximum,
    else None; with no scatter.  Requires n >= 3.

    Only the theta(n-2) quotient hyperplanes ts through the point y1 of the
    heaviest histogram cell are counted, each from its own row, in blocks
    of rows within _CHUNK_ENTRIES gathered entries.  Let t* be the best of
    them.  Two hyperplanes of the quotient share theta(n-3) points, so any
    other t' counts at value beta at most [beta is anchor_val] plus the top
    theta(n-3) entries of column beta on row(t*) plus the top theta(n-2) -
    theta(n-3) off it.  A maximum unique among the counted ts that beats
    every such bound is the strict maximum of the whole pencil, where
    `_pencil_candidate` reports no tie.
    """
    d = space.n - 1
    # value-major, so that the sums and sorts below run along the last axis;
    # a copy, as the bound below zeroes row(t*) in it
    cols = hist.T.copy()
    y1 = int(np.argmax(cols)) % cols.shape[1]
    ts = space._orthogonal_indices(d, [y1])[0]
    counts = np.empty((len(cols), len(ts)), dtype=np.int64)     # counts[alpha-1, i] on ts[i]
    for sl in _chunk_slices(len(ts), len(cols) * len(ts)):
        counts[:, sl] = cols[:, space._orthogonal_indices(d, ts[sl])].sum(axis=2)
    counts[anchor_val - 1] += 1
    best = int(counts.max())
    if np.count_nonzero(counts == best) > 1:
        return None
    alpha, i = np.unravel_index(int(np.argmax(counts)), counts.shape)     # t* = ts[i]
    row = space._orthogonal_indices(d, ts[i:i + 1])[0]
    on_row = cols[:, row]
    cols[:, row] = 0
    k_on, k_off = space.theta(d - 2), space.theta(d - 1) - space.theta(d - 2)
    # np.sort: np.partition is several times slower on these small counts
    bound = (np.sort(on_row, axis=1)[:, -k_on:].sum(axis=1)
             + np.sort(cols, axis=1)[:, -k_off:].sum(axis=1))
    bound[anchor_val - 1] += 1
    if best <= bound.max():
        return None
    return best, space._pencil_index(anchor, int(ts[i])), int(alpha) + 1, False


def _peel(supp: np.ndarray, vals: np.ndarray, pts: np.ndarray,
          alpha: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Subtract alpha on the points pts of a hyperplane from the residual
    held as its sorted support supp and values vals, and return the new
    (supp, vals), in O(wt + theta(n-1)) without a full-space pass.

    Points of pts found in supp by `searchsorted` change value, and leave
    the support when they reach 0; the others take the value -alpha != 0
    and are merged in.
    """
    pos = np.searchsorted(supp, pts)
    found = np.searchsorted(supp, pts, side="right") != pos
    at = pos[found]
    vals = vals.copy()
    vals[at] = (vals[at] - alpha) % p
    keep = vals != 0
    supp, vals = supp[keep], vals[keep]
    # one slot mask places both arrays: np.insert would place each on its
    # own, at a fixed cost per call that dominates on short supports
    fresh = np.sort(pts[~found])
    slots = np.searchsorted(supp, fresh) + np.arange(len(fresh))
    kept = np.ones(len(supp) + len(fresh), dtype=bool)
    kept[slots] = False
    new_supp, new_vals = np.empty(len(kept), dtype=supp.dtype), np.empty(len(kept), dtype=vals.dtype)
    new_supp[kept], new_supp[slots] = supp, fresh
    new_vals[kept], new_vals[slots] = vals, (-alpha) % p
    return new_supp, new_vals


def decompose(c: Codeword) -> Decomposition:
    """Write a small-weight codeword as its unique hyperplane combination.

    Peeling step: scan support anchors in index order; the first anchor whose
    hyperplane pencil contains a candidate (H, alpha) covering more than half
    of theta(n-1) support points of value alpha gets that candidate peeled.
    In the guaranteed regime the first anchor always succeeds and the term
    set is independent of the peel order, so this matches the global-maximum
    rule up to ordering.  Out of regime the peel is best-effort and flagged.
    At n >= 3 an anchor's best candidate comes from `_certified_candidate`
    where its bound holds, and from the whole pencil otherwise; both give
    the same candidate, so the peels and tie-breaks do not depend on which.
    In the plane the whole pencil's counts are one permutation of the
    anchor's histogram (`_pencil_counts`).

    Raises NoDecompositionError when no majority candidate exists anywhere or
    the peel budget is exhausted with a nonzero residual.
    """
    space = c.space
    ctx = bounds.context_for(c)
    p = space.field.p
    supp = c.support
    vals = c.values[supp]
    wt = len(supp)
    theta_h = space.theta(space.n - 1)
    flags = list(bounds.regime_flags(ctx, weight=wt))
    in_regime = not flags

    m_est = -(-wt // theta_h)  # ceil
    if ctx.h >= 2:
        cap = delta_cap = bounds.delta(space.n, ctx) - 1
        if not in_regime:
            cap = max(delta_cap, m_est + 2)
            flags.append("best-effort")
    else:
        cap = m_est + 2
        flags.append("best-effort")

    terms: dict[int, int] = {}
    tie_breaks: list[int] = []

    peels = 0
    while len(supp):
        if peels >= cap:
            raise NoDecompositionError(
                f"residual nonzero after {peels} peels (weight {wt} may exceed W, "
                "or the input is outside the guaranteed regime)")
        found = False
        for anchor_pos in range(len(supp)):
            # one histogram per anchor serves both the certificate and its fallback
            args = (space, _histogram(space, supp, vals, anchor_pos),
                    int(supp[anchor_pos]), int(vals[anchor_pos]))
            cand = _certified_candidate(*args) if space.n >= 3 else None
            if cand is None:
                cand = _pencil_candidate(*args)
            best, hyp, alpha, tie = cand
            if 2 * best > theta_h:
                if tie:
                    tie_breaks.append(peels)
                supp, vals = _peel(supp, vals, space.hyperplane_point_indices(hyp), alpha, p)
                terms[hyp] = (terms.get(hyp, 0) + alpha) % p
                if terms[hyp] == 0:
                    del terms[hyp]
                peels += 1
                found = True
                break
        if not found:
            raise NoDecompositionError(
                "no hyperplane carries a strict majority of equal-valued support "
                f"points (weight {wt}; outside the guaranteed regime?)")

    if in_regime and len(terms) != m_est and wt > 0:
        raise NoDecompositionError(
            f"internal inconsistency: {len(terms)} terms recovered but "
            f"ceil(wt/theta) = {m_est} expected in regime")
    return Decomposition(space, terms, flags=flags, tie_breaks=tie_breaks)


# ---------------------------------------------------------------------------
# Partition refinement over the hole-witness adjacency graph
# ---------------------------------------------------------------------------

def _hole_values(d: Decomposition, blocks: Sequence[Iterable[int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """c's holes as points, and one int64 row of F_p values over them per
    block of terms: the block's partial combination there.

    Every edge witness, exceptional hole and column of the witness and
    oracle systems is a hole.  A block's row is one scatter per term, whose
    points off the holes go to a spare last column.
    """
    union, positions, holes, _ = d._union_positions()
    column = np.full(len(union), len(holes))
    column[holes] = np.arange(len(holes))
    where = dict(zip(d.terms, column[positions]))
    vals = np.zeros((len(blocks), len(holes) + 1), dtype=np.int64)
    for row, block in zip(vals, blocks):
        for h in block:
            row[where[h]] += d.terms[h]
    vals %= d.space.field.p
    return union[holes], vals[:, :-1]


def _on_union(space: ProjectiveSpace, union: np.ndarray, values: np.ndarray) -> Codeword:
    """The codeword with the given values on U and 0 elsewhere."""
    out = np.zeros(space.num_points, dtype=np.int16)
    out[union] = values
    return Codeword._with_support(space, out, union[values != 0])


def build_adjacency(d: Decomposition, partition: HyperplanePartition) -> AdjacencyWitnessGraph:
    """Edges between blocks witnessed by a hole of c that is a real point of
    exactly those two blocks' partial combinations and a hole of all others.
    Each edge keeps its lowest-index witness."""
    if partition.size != 0 and set().union(*partition.blocks) != set(d.terms):
        raise ValueError("partition does not cover the decomposition's hyperplanes")

    points, vals = _hole_values(d, partition.blocks)
    nz = vals != 0
    cols = np.flatnonzero(nz.sum(axis=0) == 2)
    # the two blocks nonzero at each witness column, lower block first
    pairs = np.nonzero(nz[:, cols].T)[1].reshape(-1, 2)
    _, first = np.unique(pairs[:, 0] * partition.size + pairs[:, 1], return_index=True)
    edges = tuple(zip(*pairs[first].T.tolist(), points[cols[first]].tolist()))
    return AdjacencyWitnessGraph(partition.size, edges)


def _merge_components(partition: HyperplanePartition,
                      graph: AdjacencyWitnessGraph) -> HyperplanePartition:
    parent = list(range(partition.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set[int]] = {}
    for bi, block in enumerate(partition.blocks):
        groups.setdefault(find(bi), set()).update(block)
    return _make_partition(groups.values(), partition.generation + 1)


def refine_to_fixpoint(d: Decomposition
                       ) -> tuple[HyperplanePartition, list[HyperplanePartition]]:
    """Iterate component merging from the singleton partition to a fixpoint."""
    current = _make_partition([{h} for h in d.terms], 0)
    history = [current]
    while True:
        graph = build_adjacency(d, current)
        merged = _merge_components(current, graph)
        if merged.blocks == current.blocks:
            return current, history
        current = merged
        history.append(current)


def exceptional_holes(d: Decomposition, fixpoint: HyperplanePartition) -> tuple[int, ...]:
    """Holes of c at which some fixpoint block's partial combination is nonzero."""
    points, vals = _hole_values(d, fixpoint.blocks)
    return tuple(int(i) for i in points[vals.any(axis=0)])


def build_witness(d: Decomposition, fixpoint: HyperplanePartition,
                  holes: Sequence[int]) -> Codeword:
    """Solve the hole system for a subsupport codeword that is not a scalar
    multiple of c.  Requires |holes| <= |blocks| - 2, each a hole of c or a
    point off U, which adds no equation; raises NoWitnessError when every
    solution is proportional to c."""
    if len(holes) > fixpoint.size - 2:
        raise ValueError("witness construction needs r <= blocks - 2 "
                         f"(r={len(holes)}, blocks={fixpoint.size})")
    union, _, hole_positions, c_on_union = d._union_positions()
    given = np.asarray(holes, dtype=np.int64)
    at = np.searchsorted(union, given)
    at = at[union[np.minimum(at, len(union) - 1)] == given]          # the given points on U
    if np.any(c_on_union[at]):
        raise ValueError("a given point of U lies on supp(c), not on a hole")
    system = _hole_values(d, fixpoint.blocks)[1][:, np.searchsorted(hole_positions, at)]
    block_of = {h: b for b, block in enumerate(fixpoint.blocks) for h in block}
    found = _first_escape(d, system, lambda beta: [beta[block_of[h]] * a
                                                   for h, a in d.terms.items()])
    if found is None:
        raise NoWitnessError("every solution of the hole system is a scalar multiple of c")
    if np.any(found[1][hole_positions]):
        raise RuntimeError("witness support escapes supp(c)")
    return _on_union(d.space, union, found[1])


def _is_scalar_multiple(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """True iff a = lam * b (mod p) for some lam in F_p, with a reduced."""
    b = np.asarray(b, dtype=np.int32)                   # lam * b < p^2 <= 2^24
    nz = np.flatnonzero(b)
    lam = int(a[nz[0]]) * pow(int(b[nz[0]]), -1, p) % p if len(nz) else 0
    return np.array_equal(a, lam * b % p)


def _first_escape(d: Decomposition, system: np.ndarray, coefs_of
                  ) -> Optional[tuple[tuple[int, ...], np.ndarray]]:
    """The first beta in the null space of the columns of `system` (one row
    per unknown) whose values sum_r coefs_of(beta)[r] * [H_r] on U are not a
    multiple of c, with those values, or None.

    `nullspace` lists one basis vector per free coordinate f, in increasing
    f; it is 1 at f and 0 above it, and the others are 0 at f.  So with k =
    sum beta_i p^i, a kernel vector of lower k than the first basis vector
    that escapes span(c) combines earlier ones and stays in span(c).
    """
    p = d.space.field.p
    c_on_union = d._union_positions()[3]
    # a repeated column repeats an equation; the basis is the same in any order
    cols = list(set(map(tuple, system.T.tolist())))
    for beta in nullspace(cols, p, len(system)):
        values = d._union_sum(coefs_of(beta))
        if not _is_scalar_multiple(values, c_on_union, p):
            return beta, values
    return None


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def oracle_minimal(d: Decomposition, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Minimality within the span of the decomposition's hyperplanes.

    sum beta_i [H_i] keeps inside supp(c) iff it vanishes on the holes of c,
    so these beta are the null space of the 0/1 term incidences at the holes,
    and c is minimal in the span iff all give values proportional to c.  The
    counterexample is the first that enumerating F_p^m by k = sum beta_i p^i
    would meet, and `combinations_checked` the nominal count that
    enumeration reaches in blocks of 2^15; p^m stays capped.  Exact in the
    guaranteed regime (support subsets cannot involve outside hyperplanes
    there); otherwise flagged heuristic, but a counterexample is definitive.
    """
    space = d.space
    p = space.field.p
    total = p ** d.m
    if total > cap:
        raise OracleCapExceededError(f"p^m = {total} exceeds the oracle cap {cap}")
    union, _, holes, _ = d._union_positions()
    found = _first_escape(d, _hole_values(d, [{h} for h in d.terms])[1] != 0, lambda beta: beta)
    checked, counter = total, None
    if found is not None:
        k = sum(b * p ** i for i, b in enumerate(found[0]))
        checked = min(total, (k // _ORACLE_BLOCK + 1) * _ORACLE_BLOCK)
        counter = _on_union(space, union, found[1])
    ctx = BoundContext(space.n, p, space.field.h)
    heuristic = bounds.regime_flags(ctx, weight=len(union) - len(holes))
    return OracleResult(counter is None, checked, counter,
                        ("heuristic-span-restricted",) if heuristic else ())


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------

def verdict(c: Codeword, *, with_oracle: bool = False, oracle_cap: int = DEFAULT_ORACLE_CAP,
            decomposition: Optional[Decomposition] = None) -> MinimalityReport:
    """Run the full minimality pipeline on a codeword.

    Minimal:    fixpoint has one block (only asserted inside the regime).
    NotMinimal: the exceptional-hole count is at most blocks - 2 and a
                witness is found; it re-verifies its postconditions, so this
                verdict stands even outside the regime.  If no witness
                exists, Undetermined with the flag "no-witness".
    Otherwise Undetermined, optionally accompanied by the oracle's answer.
    A given decomposition must be of c's space and combine to c on U, with
    all of supp(c) in U; otherwise a ValueError is raised.
    """
    space = c.space
    wt = weight(c)
    if decomposition is not None:
        if decomposition.space is not space:
            raise ValueError("the decomposition belongs to another space")
        union, _, _, combined = decomposition._union_positions()
        if np.count_nonzero(combined) != wt or not np.array_equal(combined, c.values[union]):
            raise ValueError("the decomposition does not combine to the codeword")
    flags = list(bounds.regime_flags(bounds.context_for(c), weight=wt))
    in_regime = not flags

    if wt == 0:
        empty = Decomposition(space, {})
        fix = _make_partition([], 0)
        return MinimalityReport(empty, fix, (fix,), (), VERDICT_MINIMAL, None,
                                None, tuple(flags + ["degenerate-zero-codeword"]))

    d = decomposition if decomposition is not None else decompose(c)
    fixpoint, history = refine_to_fixpoint(d)
    holes = exceptional_holes(d, fixpoint)

    witness = None
    if fixpoint.size == 1:
        verdict_str = VERDICT_MINIMAL if in_regime else VERDICT_UNDETERMINED
        if not in_regime:
            flags.append("single-block-outside-regime")
    elif len(holes) <= fixpoint.size - 2:
        try:
            witness = build_witness(d, fixpoint, holes)
        except NoWitnessError:
            flags.append("no-witness")
        verdict_str = VERDICT_UNDETERMINED if witness is None else VERDICT_NOT_MINIMAL
    else:
        verdict_str = VERDICT_UNDETERMINED

    oracle = oracle_minimal(d, cap=oracle_cap) if with_oracle else None
    return MinimalityReport(d, fixpoint, tuple(history), holes, verdict_str,
                            witness, oracle, tuple(flags))


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

def _lines_through(space: ProjectiveSpace, point: int, k: int, skip: int = -1) -> list[int]:
    """The k lowest-index lines through a point, other than `skip`."""
    return [int(i) for i in np.sort(space.pencil_indices(point)) if i != skip][:k]


def szonyi_example(space: ProjectiveSpace) -> tuple[Codeword, Decomposition, dict]:
    """Seven-line plane configuration: two triples of lines through two points
    of a common transversal, with coefficients (+1, +1, -1) per triple and -1
    on the transversal.  Deterministic lowest-index choices throughout."""
    if space.n != 2:
        raise ValueError("the seven-line configuration lives in a plane (n = 2)")
    if space.field.p <= 3:
        raise ValueError("requires p > 3")
    t = 0
    r_pt, s_pt = (int(i) for i in np.sort(space.hyperplane_point_indices(t))[:2])
    r_lines = _lines_through(space, r_pt, 3, skip=t)
    s_lines = _lines_through(space, s_pt, 3, skip=t)
    p = space.field.p
    terms = [
        (r_lines[0], 1), (r_lines[1], 1), (r_lines[2], p - 1),
        (s_lines[0], 1), (s_lines[1], 1), (s_lines[2], p - 1),
        (t, p - 1),
    ]
    info = {
        "t": t, "R": r_pt, "S": s_pt,
        "r": r_lines[:2], "r_prime": r_lines[2],
        "s": s_lines[:2], "s_prime": s_lines[2],
    }
    return (*combine(space, terms), info)


def p2_fixtures(space: ProjectiveSpace, kind: str) -> tuple[Codeword, Decomposition, dict]:
    """Characteristic-2 plane configurations with all coefficients 1.

    "pencil":       three lines through a common point.
    "no-hole-line": a base line with two further lines through each of two of
                    its points (five lines; the base line carries no holes).
    """
    if space.n != 2 or space.field.p != 2:
        raise ValueError("fixtures are defined for p = 2, n = 2")
    if kind == "pencil":
        vertex = 0
        lines = _lines_through(space, vertex, 3)
        info = {"vertex": vertex, "lines": lines}
    elif kind == "no-hole-line":
        base = 0
        a_pt, b_pt = (int(i) for i in np.sort(space.hyperplane_point_indices(base))[:2])
        lines = ([base] + _lines_through(space, a_pt, 2, skip=base)
                 + _lines_through(space, b_pt, 2, skip=base))
        info = {"base": base, "A": a_pt, "B": b_pt, "lines": lines}
    else:
        raise ValueError(f"unknown fixture kind: {kind!r}")
    return (*combine(space, [(l, 1) for l in lines]), info)


def random_combination(space: ProjectiveSpace, j: int, rng: np.random.Generator
                       ) -> tuple[Codeword, Decomposition]:
    """j distinct random hyperplanes with random nonzero coefficients."""
    p = space.field.p
    idx = rng.choice(space.num_hyperplanes, size=j, replace=False)
    coefs = rng.integers(1, p, size=j)
    return combine(space, list(zip(idx.tolist(), coefs.tolist())))
