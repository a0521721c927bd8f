"""Points, hyperplanes and lines of PG(n, q) with exact incidence.

Representation
--------------
A projective point is the canonical representative of its class: the
(n+1)-vector over GF(q) whose first nonzero coordinate is 1.  Points are
ordered lexicographically on their serialised coordinate integers with
coordinate 0 most significant, which gives every point a closed-form index:

    index = theta(n-k-1) + sum_j code(c_j) * q^(n-j) - q^(n-k)

where k is the position of the leading 1.  Hyperplanes are encoded by dual
coordinate vectors normalised the same way, so the hyperplane table is the
point table and indices agree under duality.

Incidence is the vanishing of the GF(q) dot product.  Subspace point sets
are produced by pushing the canonical point table of PG(d, q) through a
basis matrix, which keeps every enumeration a handful of table gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .ff import Field

DEFAULT_POINT_CAP = 10_000_000
DEFAULT_LINE_CAP = 5_000_000
DEFAULT_INCIDENCE_CACHE_BYTES = 2 << 30


def _theta_int(m: int, q: int) -> int:
    if m < -2:
        raise ValueError("theta undefined below m = -2")
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class Hyperplane:
    dual_coords: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class ProjLine:
    """A line, identified by its two lowest point indices."""

    anchor: tuple[int, int]
    point_set: tuple[int, ...]


@dataclass(frozen=True)
class SubspacePointSet:
    dim: int
    basis: tuple[int, ...]          # point indices of the spanning points
    point_indices: tuple[int, ...]  # sorted


class _Enumeration:
    """Canonical point table and index machinery for PG(dim, q)."""

    def __init__(self, field: Field, dim: int):
        q = field.q
        self.field = field
        self.dim = dim
        self.size = _theta_int(dim, q)
        # weights[j] = q^(dim-j); theta_prefix[m+1] = theta_m for m in [-1, dim]
        self.weights = (q ** np.arange(dim, -1, -1)).astype(np.int64)
        self.theta_prefix = np.array(
            [_theta_int(m, q) for m in range(-1, dim + 1)], dtype=np.int64)

        blocks = []
        for k in range(dim, -1, -1):
            count = q ** (dim - k)
            block = np.zeros((count, dim + 1), dtype=np.int16)
            block[:, k] = 1
            t = np.arange(count, dtype=np.int64)
            for j in range(k + 1, dim + 1):
                block[:, j] = (t // (q ** (dim - j))) % q
            blocks.append(block)
        self.table = np.vstack(blocks)
        self.table.setflags(write=False)

    def normalize_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype=np.int16)
        nz = rows != 0
        if not nz.any(axis=1).all():
            raise ValueError("cannot normalise a zero vector")
        k = nz.argmax(axis=1)
        lead = rows[np.arange(len(rows)), k]
        inv = self.field.inv_v(lead).astype(np.int16)
        return self.field.mul_v(inv[:, None], rows)

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Indices of already-normalised coordinate rows."""
        rows64 = np.asarray(rows, dtype=np.int64)
        nz = rows64 != 0
        k = nz.argmax(axis=1)
        fullsum = rows64 @ self.weights
        return self.theta_prefix[self.dim - k] + fullsum - self.weights[k]

    def coords_of(self, idx: int) -> np.ndarray:
        if not 0 <= idx < self.size:
            raise IndexError(f"index {idx} out of range for size {self.size}")
        return self.table[idx]


def _f_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(q) via lookup-table gathers."""
    mul, add = field.mul_table, field.add_table
    acc = None
    for k in range(a.shape[1]):
        term = mul[a[:, k][:, None], b[k][None, :]]
        acc = term if acc is None else add[acc, term]
    return acc


class ProjectiveSpace:
    """PG(n, q): immutable point/hyperplane tables plus incidence queries."""

    def __init__(self, n: int, field: Field, max_points: Optional[int] = None):
        if n < 2:
            raise ValueError("projective dimension n must be >= 2")
        cap = DEFAULT_POINT_CAP if max_points is None else max_points
        q = field.q
        size = _theta_int(n, q)
        if size > cap:
            raise ValueError(
                f"PG({n},{q}) has {size} points, exceeding the cap of {cap}")
        field._require_tables()
        self.n = n
        self.field = field
        self.q = q
        self._enums: dict[int, _Enumeration] = {}
        self._enum = self._get_enum(n)
        self._hyperplane_points_cache: dict[int, np.ndarray] = {}
        self._incidence_mats: dict[int, Optional[np.ndarray]] = {}
        self.incidence_cache_bytes = DEFAULT_INCIDENCE_CACHE_BYTES

    # -- basics ---------------------------------------------------------------

    def _get_enum(self, dim: int) -> _Enumeration:
        e = self._enums.get(dim)
        if e is None:
            e = _Enumeration(self.field, dim)
            self._enums[dim] = e
        return e

    @property
    def num_points(self) -> int:
        return self._enum.size

    @property
    def num_hyperplanes(self) -> int:
        return self._enum.size

    def theta(self, m: int) -> int:
        return _theta_int(m, self.q)

    @property
    def point_table(self) -> np.ndarray:
        return self._enum.table

    @property
    def hyperplane_table(self) -> np.ndarray:
        # duality: normalised dual vectors enumerate identically
        return self._enum.table

    def point(self, index: int) -> ProjPoint:
        coords = tuple(int(c) for c in self._enum.coords_of(index))
        return ProjPoint(coords, index)

    def hyperplane(self, index: int) -> Hyperplane:
        coords = tuple(int(c) for c in self._enum.coords_of(index))
        return Hyperplane(coords, index)

    def normalize(self, coords: Sequence[int]) -> tuple[int, ...]:
        row = np.asarray([coords], dtype=np.int16)
        return tuple(int(c) for c in self._enum.normalize_rows(row)[0])

    def point_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n + 1:
            raise ValueError("coordinate vector has wrong length")
        if any(not 0 <= int(c) < self.q for c in coords):
            raise ValueError(f"coordinates {list(coords)} must lie in [0, {self.q})")
        row = self._enum.normalize_rows(np.asarray([coords], dtype=np.int16))
        return int(self._enum.index_rows(row)[0])

    def hyperplane_index(self, dual_coords: Sequence[int]) -> int:
        return self.point_index(dual_coords)

    # -- incidence --------------------------------------------------------------

    def _coords_of_point(self, p: Union[ProjPoint, int]) -> np.ndarray:
        if isinstance(p, ProjPoint):
            return np.asarray(p.coords, dtype=np.int16)
        return self._enum.coords_of(int(p))

    def _coords_of_hyperplane(self, h: Union[Hyperplane, int]) -> np.ndarray:
        if isinstance(h, Hyperplane):
            return np.asarray(h.dual_coords, dtype=np.int16)
        return self._enum.coords_of(int(h))

    def incident(self, p: Union[ProjPoint, int], h: Union[Hyperplane, int]) -> bool:
        """True iff the GF(q) dot product of point and dual vector vanishes."""
        pc = self._coords_of_point(p)
        hc = self._coords_of_hyperplane(h)
        f = self.field
        acc = 0
        for a, b in zip(pc, hc):
            acc = f.add(acc, f.mul(int(a), int(b)))
        return acc == 0

    # -- complements and spans ----------------------------------------------------

    def complement_rows(self, coords: np.ndarray) -> np.ndarray:
        """n independent vectors orthogonal to a normalised vector."""
        n = self.n
        f = self.field
        j0 = int(np.argmax(np.asarray(coords) != 0))
        rows = np.zeros((n, n + 1), dtype=np.int16)
        r = 0
        for j in range(n + 1):
            if j == j0:
                continue
            rows[r, j] = 1
            rows[r, j0] = f.neg(int(coords[j]))
            r += 1
        return rows

    def span_rows(self, basis_rows: np.ndarray) -> np.ndarray:
        """All theta(d) normalised points of the span of d+1 independent rows."""
        basis_rows = np.ascontiguousarray(basis_rows, dtype=np.int16)
        d = basis_rows.shape[0] - 1
        tuples = self._get_enum(d).table
        raw = _f_matmul(self.field, tuples, basis_rows)
        return self._enum.normalize_rows(raw)

    def span_indices(self, basis_rows: np.ndarray) -> np.ndarray:
        return self._enum.index_rows(self.span_rows(basis_rows))

    def _rank(self, rows: Sequence[Sequence[int]]) -> int:
        f = self.field
        m = [[int(v) for v in r] for r in rows]
        ncols = len(m[0])
        rank = 0
        for c in range(ncols):
            piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = f.inv(m[rank][c])
            m[rank] = [f.mul(inv, v) for v in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][c] != 0:
                    fac = m[r][c]
                    m[r] = [f.sub(v, f.mul(fac, w)) for v, w in zip(m[r], m[rank])]
            rank += 1
        return rank

    def span_points(self, basis: Sequence[Union[ProjPoint, int]]) -> SubspacePointSet:
        """Point set of the projective span of independent points."""
        rows = np.vstack([self._coords_of_point(b) for b in basis])
        if self._rank(rows) != len(rows):
            raise ValueError("basis points are linearly dependent")
        idx = np.sort(self.span_indices(rows))
        basis_idx = tuple(
            b.index if isinstance(b, ProjPoint) else int(b) for b in basis)
        return SubspacePointSet(len(rows) - 1, basis_idx,
                                tuple(int(i) for i in idx))

    # -- hyperplanes ---------------------------------------------------------------

    def hyperplane_point_indices(self, h: Union[Hyperplane, int]) -> np.ndarray:
        """Indices of the theta(n-1) points on a hyperplane (enumeration order)."""
        key = h.index if isinstance(h, Hyperplane) else int(h)
        cached = self._hyperplane_points_cache.get(key)
        if cached is not None:
            return cached
        rows = self.complement_rows(self._coords_of_hyperplane(h))
        idx = self.span_indices(rows)
        if len(self._hyperplane_points_cache) < 256:
            idx.setflags(write=False)
            self._hyperplane_points_cache[key] = idx
        return idx

    def pencil_indices(self, p: Union[ProjPoint, int]) -> np.ndarray:
        """Indices of the theta(n-1) hyperplanes through a point (enum order)."""
        rows = self.complement_rows(self._coords_of_point(p))
        return self.span_indices(rows)

    def hyperplanes_through(self, p: Union[ProjPoint, int]) -> list[Hyperplane]:
        idx = np.sort(self.pencil_indices(p))
        return [self.hyperplane(int(i)) for i in idx]

    # -- lines ------------------------------------------------------------------

    def line_through(self, p: Union[ProjPoint, int], q_: Union[ProjPoint, int]) -> ProjLine:
        pc = self._coords_of_point(p)
        qc = self._coords_of_point(q_)
        pi = p.index if isinstance(p, ProjPoint) else int(p)
        qi = q_.index if isinstance(q_, ProjPoint) else int(q_)
        if pi == qi:
            raise ValueError("line_through requires two distinct points")
        idx = np.sort(self.span_indices(np.vstack([pc, qc])))
        return ProjLine((int(idx[0]), int(idx[1])), tuple(int(i) for i in idx))

    def line_count(self) -> int:
        t = self.num_points
        return t * (t - 1) // ((self.q + 1) * self.q)

    def lines_of(self, max_lines: Optional[int] = None) -> Iterator[ProjLine]:
        """Yield every line exactly once (guarded by a line-count cap)."""
        cap = DEFAULT_LINE_CAP if max_lines is None else max_lines
        total = self.line_count()
        if total > cap:
            raise ValueError(
                f"PG({self.n},{self.q}) has {total} lines, exceeding the cap of {cap}")
        if self.n == 2:
            # self-dual plane: lines are the hyperplanes
            for h in range(self.num_hyperplanes):
                idx = np.sort(self.hyperplane_point_indices(h))
                yield ProjLine((int(idx[0]), int(idx[1])),
                               tuple(int(i) for i in idx))
            return
        reps = self._get_enum(self.n - 1).table
        for i in range(self.num_points):
            pc = self._enum.coords_of(i)
            j0 = int(np.argmax(np.asarray(pc) != 0))
            basis = np.zeros((self.n, self.n + 1), dtype=np.int16)
            r = 0
            for j in range(self.n + 1):
                if j == j0:
                    continue
                basis[r, j] = 1
                r += 1
            dirs = _f_matmul(self.field, reps, basis)
            for d in range(dirs.shape[0]):
                idx = np.sort(self.span_indices(np.vstack([pc, dirs[d]])))
                if int(idx[0]) == i:
                    yield ProjLine((int(idx[0]), int(idx[1])),
                                   tuple(int(v) for v in idx))

    # -- cached incidence matrices -------------------------------------------------

    def incidence_matrix(self, dim: int) -> Optional[np.ndarray]:
        """0/1 matrix M[i, j] = [tuple_i . tuple_j == 0] over PG(dim, q).

        Used as a dual-transform kernel; returns None when the matrix would
        exceed the cache budget (callers fall back to direct scans).
        """
        if dim in self._incidence_mats:
            return self._incidence_mats[dim]
        enum = self._get_enum(dim)
        t = enum.size
        if 4 * t * t > self.incidence_cache_bytes:
            self._incidence_mats[dim] = None
            return None
        table = enum.table
        mul, add = self.field.mul_table, self.field.add_table
        out = np.empty((t, t), dtype=np.float32)
        chunk = max(1, (1 << 24) // max(t, 1))
        for start in range(0, t, chunk):
            stop = min(t, start + chunk)
            acc = None
            for c in range(dim + 1):
                term = mul[table[start:stop, c][:, None], table[:, c][None, :]]
                acc = term if acc is None else add[acc, term]
            out[start:stop] = (acc == 0)
        out.setflags(write=False)
        self._incidence_mats[dim] = out
        return out

    def __repr__(self):
        return f"ProjectiveSpace(n={self.n}, q={self.q}, points={self.num_points})"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def space_make(n: int, field: Field, max_points: Optional[int] = None) -> ProjectiveSpace:
    return ProjectiveSpace(n, field, max_points)

