"""Codeword algebra for the hyperplane incidence code of PG(n, q).

A codeword is a dense vector of F_p values indexed by point index, with its
sorted support carried alongside.  The code is spanned by the characteristic
vectors of hyperplanes; `combine` builds F_p-linear combinations and records
which hyperplanes carry nonzero coefficients in a `Decomposition`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import ProjectiveSpace, SubspacePointSet, _chunk_slices


def _residues(values, p: int) -> np.ndarray:
    """values mod p as a fresh int16 array, never a view of `values`.

    Values already in [0, p) are only copied: on a 4.2M-entry int16 vector
    the min/max passes and the copy cost about an eighth of `%`.
    """
    vals = np.asarray(values)
    if vals.size and (vals.min() < 0 or vals.max() >= p):
        return (vals % p).astype(np.int16, copy=False)      # `%` is already fresh
    return vals.astype(np.int16)


class Codeword:
    """Immutable vector of canonical F_p residues indexed by point index,
    with its sorted, read-only support.

    A codeword built by `combine`, `partial_combination` or
    `incidence_codeword` also carries its terms in `_terms`: a tuple of
    (hyperplane, coefficient) pairs with distinct hyperplanes and nonzero
    coefficients, which `secant_spectrum` reads.  A codeword built from
    values, `+`, `-` and `scaled` among them, carries None.  Equality and
    `to_json` read the values alone.
    """

    __slots__ = ("space", "values", "_support", "_terms")

    def __init__(self, space: ProjectiveSpace, values: np.ndarray):
        if len(values) != space.num_points:
            raise ValueError("value vector length must equal the point count")
        vals = _residues(values, space.field.p)
        vals.setflags(write=False)
        self.space = space
        self.values = vals
        self._support = None
        self._terms = None

    @classmethod
    def _with_support(cls, space: ProjectiveSpace, values: np.ndarray,
                      supp: np.ndarray, terms: Optional[tuple] = None) -> "Codeword":
        """A codeword from values already in [0, p), their sorted support and,
        if known, the terms they sum, all built by this package; none is
        checked or copied."""
        cw = cls.__new__(cls)
        values.setflags(write=False)
        supp.setflags(write=False)
        cw.space, cw.values, cw._support = space, values, supp
        cw._terms = terms
        return cw

    @property
    def support(self) -> np.ndarray:
        """Sorted indices of the nonzero points, found once."""
        if self._support is None:
            supp = np.flatnonzero(self.values)
            supp.setflags(write=False)
            self._support = supp
        return self._support

    def __eq__(self, other):
        return (isinstance(other, Codeword) and self.space is other.space
                and np.array_equal(self.values, other.values))

    def _values_of(self, other: "Codeword") -> np.ndarray:
        """other's values, refused unless other lies in this codeword's space:
        two spaces with the same point count would otherwise add silently."""
        if other.space is not self.space:
            raise ValueError("codewords of different spaces do not add")
        return other.values

    def __add__(self, other: "Codeword") -> "Codeword":
        return Codeword(self.space, (self.values + self._values_of(other)) % self.space.field.p)

    def __sub__(self, other: "Codeword") -> "Codeword":
        return Codeword(self.space, (self.values - self._values_of(other)) % self.space.field.p)

    def scaled(self, alpha: int) -> "Codeword":
        return Codeword(self.space, (self.values.astype(np.int64) * alpha) % self.space.field.p)

    def is_zero(self) -> bool:
        return len(self.support) == 0

    def __repr__(self):
        return f"Codeword(weight={weight(self)}, space={self.space!r})"

    def to_json(self) -> dict:
        sp = self.space
        supp = self.support
        return {
            "n": sp.n,
            "p": sp.field.p,
            "h": sp.field.h,
            "values": [[int(i), int(v)] for i, v in zip(supp, self.values[supp])],
        }


def checked_int(value, what: str) -> int:
    """An integer from outside; bool, float and str are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def checked_index(i, space: ProjectiveSpace, what: str) -> int:
    """A point or hyperplane index from outside: an integer in [0, theta(n))."""
    return space._checked_index(checked_int(i, f"a {what} index"), what)


class Decomposition:
    """A codeword written as sum of coefficient * hyperplane indicator.

    `terms` maps hyperplane index to its nonzero F_p coefficient; this is the
    extended evaluation of the codeword on hyperplanes (zero off `terms`).
    """

    __slots__ = ("space", "terms", "dropped", "flags", "tie_breaks", "_union")

    def __init__(self, space: ProjectiveSpace, terms: dict[int, int],
                 dropped: Sequence[int] = (), flags: Sequence[str] = (),
                 tie_breaks: Sequence[int] = ()):
        p = space.field.p
        clean = {}
        for hidx in sorted(terms):
            coef = terms[hidx] % p
            if coef == 0:
                raise ValueError("decomposition terms must have nonzero coefficients")
            clean[int(hidx)] = int(coef)
        self.space = space
        self.terms = clean
        self.dropped = tuple(dropped)
        self.flags = tuple(flags)
        self.tie_breaks = tuple(tie_breaks)
        self._union = None

    @property
    def m(self) -> int:
        return len(self.terms)

    def _union_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sorted union U of the term hyperplanes' points; an
        m x theta(n-1) array whose row r holds the positions in U of the
        points of the r-th hyperplane of `terms`; the positions in U of c's
        holes, where two or more terms cancel; and c on U, in int64.

        Filled on first use and kept, so the minimality stages share one U.
        One sort of the concatenated point lists finds U as the entries that
        differ from their predecessor, and its inverse permutation gives the
        positions, so no per-term search is needed.  A point's entries are
        adjacent in that sort, so one `reduceat` sums c there.
        """
        if self._union is None:
            sp = self.space
            rows = sp._orthogonal_indices(
                sp.n, [sp._checked_index(h, "hyperplane") for h in self.terms])
            flat = rows.ravel()
            order = np.argsort(flat)
            ordered = flat[order]
            first = np.ones(len(ordered), dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            union = ordered[first]
            positions = np.empty(rows.shape, dtype=np.int64)
            positions.ravel()[order] = np.cumsum(first) - 1
            coefs = np.repeat(np.array(list(self.terms.values()), dtype=np.int64), rows.shape[1])
            c_on_union = np.add.reduceat(coefs[order], np.flatnonzero(first)) % sp.field.p
            holes = np.flatnonzero(c_on_union == 0)
            for arr in (union, positions, holes, c_on_union):
                arr.setflags(write=False)
            self._union = (union, positions, holes, c_on_union)
        return self._union

    def _union_sum(self, coefs) -> np.ndarray:
        """sum_r coefs[r] * [H_r] on U, reduced mod p, for one coefficient per
        term in the order of `terms`: one scatter per term, in int64."""
        union, positions = self._union_positions()[:2]
        vals = np.zeros(len(union), dtype=np.int64)
        for pos, a in zip(positions, coefs):
            vals[pos] += a
        return vals % self.space.field.p

    def to_json(self) -> dict:
        return {"terms": [[h, c] for h, c in self.terms.items()]}

    def __repr__(self):
        return f"Decomposition(m={self.m}, terms={self.terms})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def incidence_codeword(space: ProjectiveSpace, h: int) -> Codeword:
    """Characteristic vector of a hyperplane: 1 on its points, 0 elsewhere."""
    return _accumulate(space, {h: 1})


def combine(space: ProjectiveSpace, terms: Iterable[tuple[int, int]]
            ) -> tuple[Codeword, Decomposition]:
    """F_p-linear combination of hyperplane indicators.

    Duplicate hyperplanes are merged by coefficient addition; terms whose
    merged coefficient vanishes are dropped from the resulting decomposition
    and reported in its `dropped` metadata.
    """
    p = space.field.p
    merged: dict[int, int] = {}
    for h, coef in terms:
        key = int(h)
        merged[key] = (merged.get(key, 0) + int(coef)) % p
    dropped = sorted(k for k, v in merged.items() if v == 0)
    surviving = {k: v for k, v in merged.items() if v != 0}
    cw = _accumulate(space, surviving)
    return cw, Decomposition(space, surviving, dropped=dropped)


def _accumulate(space: ProjectiveSpace, terms: dict[int, int]) -> Codeword:
    """The codeword sum coef * [hyperplane], with int16 values reduced mod p
    term by term and the term rows taken from the primitive in
    `_chunk_slices` blocks.  The codeword carries the terms, whose
    coefficients the caller keeps nonzero mod p.

    Each partial sum stays below 2p, so no dense int64 vector is needed: at
    PG(3,125) one costs 15.7 MB, and the freed temporaries left the peak RSS
    of a short run depending on where the allocator happened to place them.
    The support comes from the term rows: sorted, their repeats dropped by a
    neighbour mask, and kept where the value is nonzero.  Rows holding more
    entries than there are points are not kept; one scan of the values is
    then cheaper than the sort, and memory stays at theta(n) entries.
    """
    p = space.field.p
    vals = np.zeros(space.num_points, dtype=np.int16)
    keys = [space._checked_index(int(h), "hyperplane") for h in terms]
    coefs = [int(c) % p for c in terms.values()]
    pairs = tuple(zip(keys, coefs))
    row_len = space.theta(space.n - 1)
    keep = len(keys) * row_len <= space.num_points
    rows = []
    for sl in _chunk_slices(len(keys), row_len):
        block = space._orthogonal_indices(space.n, keys[sl])
        for pts, coef in zip(block, coefs[sl]):
            vals[pts] = (vals[pts] + coef) % p
        if keep:
            rows.append(block.ravel())
    if not keep:
        return Codeword._with_support(space, vals, np.flatnonzero(vals), pairs)
    touched = np.sort(np.concatenate(rows)) if rows else np.zeros(0, dtype=np.int64)
    first = np.ones(len(touched), dtype=bool)
    first[1:] = touched[1:] != touched[:-1]
    touched = touched[first]
    return Codeword._with_support(space, vals, touched[vals[touched] != 0], pairs)


def weight(c: Codeword) -> int:
    return len(c.support)


def restricted_weight(c: Codeword, sub: SubspacePointSet) -> int:
    """Weight of the restriction to a subspace: |supp(c) & subspace points|."""
    idx = np.asarray(sub.point_indices, dtype=np.int64)
    return int(np.count_nonzero(c.values[idx]))


def partial_combination(d: Decomposition, subset: Iterable[int]) -> Codeword:
    """The combination restricted to a subset of the decomposition's terms."""
    subset = set(int(s) for s in subset)
    extra = subset - set(d.terms)
    if extra:
        raise ValueError(f"subset contains hyperplanes outside the decomposition: {sorted(extra)}")
    return _accumulate(d.space, {h: d.terms[h] for h in subset})
