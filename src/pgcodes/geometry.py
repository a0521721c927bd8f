"""Points, hyperplanes and subspace spans of PG(n, q) with exact incidence.

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .ff import Field

DEFAULT_POINT_CAP = 10_000_000
# Row blocks of the orthogonality primitive hold at most this many entries.
_CHUNK_ENTRIES = 1 << 18


def theta(m: int, q: int) -> int:
    """(q^(m+1) - 1)/(q - 1) for m >= 0; zero for m in {-1, -2}."""
    if m < -2:
        raise ValueError("theta undefined for m < -2")
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


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
        self.size = theta(dim, q)
        # weights[j] = q^(dim-j); a canonical row leading at k has index
        # lead_offset[k] + row . weights, with lead_offset[k] = theta(dim-k-1) - q^(dim-k)
        self.weights = (q ** np.arange(dim, -1, -1)).astype(np.int64)
        self.lead_offset = np.array(
            [theta(dim - k - 1, q) for k in range(dim + 1)], dtype=np.int64) - self.weights

        # the rows with the leading 1 at k count t = 0, 1, ... in base q over
        # the coordinates after k; each digit of t is written through a
        # reshaped view of the block, so no counter or digit array is built
        self.table = np.zeros((self.size, dim + 1), dtype=np.int16)
        start = 0
        for k in range(dim, -1, -1):
            block = self.table[start:start + q ** (dim - k)]
            block[:, k] = 1
            for j in range(k + 1, dim + 1):
                block.reshape(-1, q, q ** (dim - j), dim + 1)[:, :, :, j] = np.arange(q)[:, None]
            start += len(block)
        self.table.setflags(write=False)

    def index_vectors(self, cols) -> np.ndarray:
        """Indices of the points spanned by nonzero coordinate vectors, given
        as their dim + 1 coordinate columns (1-D arrays of equal length, or
        the rows of a transposed (len, dim + 1) array).

        Vector r with leading nonzero entry at k is scaled to its canonical
        representative in the log domain, digit i = exp_z[log r_i - log r_k
        + q - 1], which is 0 where r_i = 0, and indexed in closed form.  The
        leading entry is found one column at a time, last to first, which
        beats an argmax along the short row axis.  A zero vector raises
        ValueError.
        """
        f, dim = self.field, self.dim
        logs = [f.log_table[c] for c in cols]
        zero = f.log_table[0]
        lead, k = logs[dim].copy(), np.full(len(logs[dim]), dim, dtype=np.intp)
        for col in range(dim - 1, -1, -1):
            nz = logs[col] != zero
            np.copyto(lead, logs[col], where=nz)
            np.copyto(k, col, where=nz)
        if (lead == zero).any():
            raise ValueError("cannot normalise a zero vector")
        shift = lead - (f.q - 1)
        index = self.lead_offset[k]
        for col in range(dim + 1):
            index += f.exp_z[logs[col] - shift] * self.weights[col]
        return index


def _affine_digits(t: np.ndarray, q: int, dim: int) -> list[np.ndarray]:
    """Coordinates x_1 .. x_dim of the affine points theta(dim-1) + t of
    PG(dim, q), which are (1, x_1, .., x_dim) with x the base-q digits of t,
    most significant first, in t's dtype."""
    digits = []
    for _ in range(dim - 1):
        high = t // q
        digits.append(t - high * q)
        t = high
    return [t] + digits[::-1]


def _chunk_slices(count: int, row_len: int) -> Iterator[slice]:
    """Consecutive slices of range(count) whose rows of row_len entries
    stay within _CHUNK_ENTRIES."""
    step = max(1, _CHUNK_ENTRIES // row_len)
    return (slice(s, min(count, s + step)) for s in range(0, count, step))


def _f_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(q) via lookup-table gathers."""
    mul = field.mul_table
    acc = None
    for k in range(a.shape[1]):
        term = mul[a[:, k][:, None], b[k][None, :]]
        acc = term if acc is None else field.array_add(acc, term)
    return acc


class ProjectiveSpace:
    """PG(n, q): immutable point/hyperplane tables plus incidence queries."""

    def __init__(self, n: int, field: Field, max_points: Optional[int] = None):
        if n < 2:
            raise ValueError("projective dimension n must be >= 2")
        cap = DEFAULT_POINT_CAP if max_points is None else max_points
        q = field.q
        size = 1                     # theta(m) = q theta(m-1) + 1, stopped past the cap
        for _ in range(n):
            size = q * size + 1
            if size > cap:
                raise ValueError(f"PG({n},{q}) has more points than the cap of {cap}")
        self.n = n
        self.field = field
        self.q = q
        self._enums: dict[int, _Enumeration] = {}
        self._enum = self._get_enum(n)

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
        return theta(m, self.q)

    @property
    def point_table(self) -> np.ndarray:
        return self._enum.table

    @property
    def hyperplane_table(self) -> np.ndarray:
        # duality: normalised dual vectors enumerate identically
        return self._enum.table

    def point_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n + 1:
            raise ValueError("coordinate vector has wrong length")
        if any(not 0 <= int(c) < self.q for c in coords):
            raise ValueError(f"coordinates {list(coords)} must lie in [0, {self.q})")
        return int(self._enum.index_vectors(np.asarray([coords], dtype=np.int16).T)[0])

    def hyperplane_index(self, dual_coords: Sequence[int]) -> int:
        return self.point_index(dual_coords)

    # -- spans ----------------------------------------------------------------------

    def span_points(self, basis: Sequence[int]) -> SubspacePointSet:
        """Point set of the projective span of d+1 independent points: the
        theta(d) points of PG(d, q) pushed through the basis rows."""
        rows = np.vstack([self.point_table[self._checked_index(int(b), "point")]
                          for b in basis])
        raw = _f_matmul(self.field, self._get_enum(len(rows) - 1).table, rows)
        try:
            idx = np.sort(self._enum.index_vectors(raw.T))
        except ValueError:          # a dependent basis spans a zero vector
            raise ValueError("basis points are linearly dependent") from None
        return SubspacePointSet(len(rows) - 1, tuple(int(b) for b in basis),
                                tuple(int(i) for i in idx))

    # -- hyperplanes ---------------------------------------------------------------

    def _orthogonal_indices(self, dim: int, ys) -> np.ndarray:
        """For point indices ys of PG(dim, q), a len(ys) x theta(dim-1) array
        whose row i lists the points x with x . y_i = 0.

        By duality a row is both the points on hyperplane y_i and the
        hyperplanes through point y_i.  With j the trailing nonzero position
        of y, entry t of its row is the point x whose coordinates off j form
        the t-th point of PG(dim-1, q), with x_j = sum c_i x_i and
        c_i = -y_i / y_j; as c_i = 0 past j, that x is already canonical.
        The first theta(dim-j-1) entries lead after j, so x_j = 0 and entry
        t is point t.  The others lead before j: their coordinates before j
        are the u-th point of PG(j-1, q), those after j count b = 0 .. w-1
        with w = q^(dim-j), and the index is theta(dim-j-1)
        + w (1 + q u + x_j) + b.  x_j is built for every u with one
        broadcast `array_add` per coordinate before j.  The ys are grouped
        by j.  As x_j < q and b < w, every row increases.
        """
        f, q = self.field, self.q
        coords = self._get_enum(dim).table[np.asarray(ys, dtype=np.int64)]
        trail = dim - (coords[:, ::-1] != 0).argmax(axis=1)
        out = np.empty((len(coords), self.theta(dim - 1)), dtype=np.int64)
        for j in set(trail.tolist()):
            sel = np.nonzero(trail == j)[0]
            start, w = self.theta(dim - j - 1), q ** (dim - j)
            out[sel, :start] = np.arange(start)
            if j == 0:                   # y = (1, 0, .., 0): all entries lead after j
                continue
            y = coords[sel]
            c = f.mul_table[y, f.mul_table[f.p - 1][f.inv_table[y[:, j]]][:, None]]   # -y_i / y_j
            # s[:, a] sums c_i x_i over k <= i < j, with those x_i the base-q
            # digits of a; its slab x_k = 1 is x_j at the points u leading at k
            slabs, s = [], np.zeros((len(sel), 1), dtype=np.int16)
            for k in range(j - 1, 0, -1):
                s = f.array_add(f.mul_table[c[:, k]][:, :, None], s[:, None, :])
                slabs.append(s[:, 1])
                s = s.reshape(len(sel), -1)
            slabs.append(f.array_add(c[:, :1], s))           # k = 0 needs only its slab
            x_j = np.concatenate(slabs, axis=1)
            u = np.arange(x_j.shape[1])
            out[sel, start:] = ((start + w * (1 + q * u + x_j))[:, :, None]
                                + np.arange(w)).reshape(len(sel), -1)
        return out

    def _checked_index(self, i: int, what: str) -> int:
        """i, refused with a ValueError outside [0, theta(n))."""
        if not 0 <= i < self.num_points:
            raise ValueError(f"{what} index {i} out of range [0, {self.num_points})")
        return i

    def hyperplane_point_indices(self, h: int) -> np.ndarray:
        """Indices of the theta(n-1) points on a hyperplane (enumeration order)."""
        return self._orthogonal_indices(self.n, [self._checked_index(int(h), "hyperplane")])[0]

    def pencil_indices(self, p: int) -> np.ndarray:
        """Indices of the theta(n-1) hyperplanes through a point (enum order)."""
        return self._orthogonal_indices(self.n, [self._checked_index(int(p), "point")])[0]

    def _pencil_index(self, p: int, t: int) -> int:
        """pencil_indices(p)[t] without the row: with j the trailing nonzero
        position of p, the hyperplane whose coordinates off j are point t of
        PG(n-1, q) and whose coordinate j is sum c_i x_i, c_i = -p_i / p_j, as
        in `_orthogonal_indices`; it is canonical, so its index is closed form."""
        f, e = self.field, self._enum
        a = self.point_table[p].tolist()
        j = max(i for i, v in enumerate(a) if v)
        x = self._get_enum(self.n - 1).table[t].tolist()
        x.insert(j, 0)
        c = f.mul(f.p - 1, f.inv(a[j]))
        for i in range(j):
            x[j] = f.add(x[j], f.mul(f.mul(a[i], c), x[i]))
        k = next(i for i, v in enumerate(x) if v)
        return int(e.lead_offset[k]) + sum(v * w for v, w in zip(x, e.weights.tolist()))

    # -- the quotient at a point ------------------------------------------------

    def _project(self, anchor: int, others: np.ndarray) -> np.ndarray:
        """Indices in the quotient PG(n-1, q) of the lines joining a point a
        to each of the sorted points `others`.

        With j the trailing nonzero position of a, the image y of x has
        coordinates y_i = x_i + c_i x_j, c_i = -a_i / a_j, for i != j.  So x
        lies on the hyperplane through a at position t of pencil_indices(a)
        iff t . y = 0.  When a lies at infinity (a_0 = 0, so c_0 = 0), an
        affine x = (1, x_1, .., x_n) keeps y_0 = 1: y is already canonical,
        and its index, theta(n-2) plus y's other n - 1 coordinates read as a
        base-q number, needs neither the point table nor a normalisation.
        The affine points are the suffix of `others` from theta(n-1); the
        points at infinity, and all points when a is affine, go through
        `index_vectors`.
        """
        f, n, q = self.field, self.n, self.q
        a = self.point_table[anchor]
        j = n - int(np.argmax(a[::-1] != 0))
        off = [i for i in range(n + 1) if i != j]
        c = f.mul_table[a[off], f.mul_table[f.p - 1, f.inv_table[a[j]]]]   # -a_i / a_j, -1 = p - 1
        split = len(others) if a[0] else int(np.searchsorted(others, self.theta(n - 1)))
        out = np.empty(len(others), dtype=np.int64)
        if split:
            x = np.take(self.point_table, others[:split], axis=0)
            # mul_table[c_i] is one q-entry row: a 1-D read
            out[:split] = self._get_enum(n - 1).index_vectors(
                [f.array_add(x[:, i], f.mul_table[c[col]][x[:, j]]) for col, i in enumerate(off)])
        if split < len(others):
            t = others[split:] - self.theta(n - 1)
            # the digits divide several times faster in int32 than in int64
            # x[i] is coordinate i; x_0 = 1 is not read
            x = [None] + _affine_digits(t.astype(np.int32) if q ** n < 2 ** 31 else t, q, n)
            weights = self._get_enum(n - 1).weights
            index = out[split:]
            index[:] = self.theta(n - 2)
            for col, i in enumerate(off[1:], 1):
                index += f.array_add(x[i], np.take(f.mul_table[c[col]], x[j])) * weights[col]
        return out

    # -- lines ------------------------------------------------------------------

    def line_count(self) -> int:
        t = self.num_points
        return t * (t - 1) // ((self.q + 1) * self.q)

    def __repr__(self):
        return f"ProjectiveSpace(n={self.n}, q={self.q}, points={self.num_points})"


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def space_make(n: int, field: Field, max_points: Optional[int] = None) -> ProjectiveSpace:
    return ProjectiveSpace(n, field, max_points)

