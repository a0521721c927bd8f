"""Enumeration, indexing and incidence of PG(n, q)."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pgcodes import Codeword, bounds, combine, geometry, incidence_codeword, space_make
from pgcodes.geometry import DEFAULT_POINT_CAP, _f_matmul
from pgcodes.minimality import _histogram, _pencil_counts


def theta(m, q):
    return 0 if m < 0 else (q ** (m + 1) - 1) // (q - 1)


def _incident(sp, p, h):
    """Reference incidence: the GF(q) dot product of the point's coordinates
    and the hyperplane's dual coordinates vanishes, one scalar op at a time."""
    f = sp.field
    acc = 0
    for a, b in zip(sp.point_table[p], sp.hyperplane_table[h]):
        acc = f.add(acc, f.mul(int(a), int(b)))
    return acc == 0


def test_point_counts(spaces):
    assert spaces(2, 5, 1).num_points == 31
    assert spaces(2, 2, 1).num_points == 7
    assert spaces(3, 2, 5).num_points == 33825


def test_rejects_low_dimension(fields):
    with pytest.raises(ValueError):
        space_make(1, fields(5, 1))


def test_resource_guard(fields):
    with pytest.raises(ValueError):
        space_make(2, fields(5, 1), max_points=10)
    assert DEFAULT_POINT_CAP == 10_000_000


def _reference_normalize_rows(enum, rows):
    """Reference normalisation: each row times the inverse of its leading
    nonzero entry, by 2-D gathers into inv_table and mul_table."""
    rows = np.ascontiguousarray(rows, dtype=np.int16)
    nz = rows != 0
    if not nz.any(axis=1).all():
        raise ValueError("cannot normalise a zero vector")
    k = nz.argmax(axis=1)
    lead = rows[np.arange(len(rows)), k]
    inv = enum.field.inv_table[lead].astype(np.int16)
    return enum.field.mul_table[inv[:, None], rows]


def _reference_index_rows(enum, rows):
    """Reference indices of already-normalised coordinate rows."""
    q, dim = enum.field.q, enum.dim
    weights = (q ** np.arange(dim, -1, -1)).astype(np.int64)
    theta_prefix = np.array([theta(m, q) for m in range(-1, dim + 1)], dtype=np.int64)
    rows64 = np.asarray(rows, dtype=np.int64)
    nz = rows64 != 0
    k = nz.argmax(axis=1)
    fullsum = rows64 @ weights
    return theta_prefix[dim - k] + fullsum - weights[k]


def test_index_table_bijection(spaces):
    for key in ((2, 5, 1), (2, 2, 5), (3, 3, 1)):
        sp = spaces(*key)
        idx = _reference_index_rows(sp._enum, sp.point_table)
        assert np.array_equal(idx, np.arange(sp.num_points))


@pytest.mark.parametrize("key", [(2, 2, 2), (2, 5, 1), (3, 3, 1), (3, 2, 2),
                                 (4, 2, 1), (4, 3, 1)])
def test_enumeration_splits_at_x0(spaces, key):
    """The points with x0 = 0 are exactly the indices below theta(n-1), each
    with its index in PG(n-1, q); point theta(n-1) + t is (1, base-q digits
    of t).  The secant spectrum's affine/infinity split rests on both."""
    sp = spaces(*key)
    n, q = sp.n, sp.q
    t_inf = theta(n - 1, q)
    table = sp.point_table
    assert np.array_equal(np.nonzero(table[:, 0] == 0)[0], np.arange(t_inf))
    assert np.array_equal(table[:t_inf, 1:], sp._get_enum(n - 1).table)
    for i in range(t_inf, sp.num_points):
        t = i - t_inf
        assert table[i].tolist() == [1] + [t // q ** (n - 1 - c) % q for c in range(n)]
    t = np.arange(sp.num_points - t_inf)
    for dtype in (np.int32, np.int64):
        digits = geometry._affine_digits(t.astype(dtype), q, n)
        assert np.array_equal(np.stack(digits, axis=1), table[t_inf:, 1:])


@pytest.mark.parametrize("index", [-5, -1, 21])
def test_out_of_range_indices_are_refused(spaces, index):
    """PG(2,4) has theta(2) = 21 points and hyperplanes.  An index outside
    [0, 21) is refused by the point sets of hyperplanes, by pencils, by the
    codeword builders and by spans, even once hyperplane 16 (which -5 used
    to wrap onto) is cached."""
    sp = spaces(2, 2, 2)
    sp.hyperplane_point_indices(16)
    for call in (sp.hyperplane_point_indices, sp.pencil_indices,
                 lambda i: combine(sp, [(i, 1)]), lambda i: incidence_codeword(sp, i),
                 lambda i: sp.span_points([0, i])):
        with pytest.raises(ValueError, match="out of range"):
            call(index)


def test_point_index_roundtrip(spaces):
    sp = spaces(2, 3, 2)
    for i in (0, 1, 17, sp.num_points - 1):
        coords = [int(c) for c in sp.point_table[i]]
        assert sp.point_index(coords) == i
        assert coords[next(k for k, c in enumerate(coords) if c)] == 1


def test_normalization_idempotent(spaces):
    """Every nonzero multiple of a vector names one point, whose table row
    names it again."""
    sp = spaces(2, 5, 1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = [int(x) for x in rng.integers(0, 5, size=3)]
        if not any(v):
            continue
        i = sp.point_index(v)
        assert sp.point_index([int(c) for c in sp.point_table[i]]) == i
        assert all(sp.point_index([lam * x % 5 for x in v]) == i for lam in range(1, 5))


INDEX_VECTOR_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3), (5, 3)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,h", INDEX_VECTOR_FIELDS)
def test_index_vectors_against_reference(spaces, n, p, h):
    """index_vectors equals the reference normalise-then-index on every point
    of PG(n, q), q in {2, 4, 9, 25, 27, 125}, times a random nonzero scalar,
    and on random nonzero vectors; each scaled point keeps its index."""
    sp = spaces(n, p, h)
    enum, q, mul = sp._enum, sp.q, sp.field.mul_table
    rng = np.random.default_rng(15)
    scalars = rng.integers(1, q, size=sp.num_points)
    scaled = mul[scalars[:, None], sp.point_table]
    got = enum.index_vectors(scaled.T)
    assert np.array_equal(got, np.arange(sp.num_points))
    ref = _reference_index_rows(enum, _reference_normalize_rows(enum, scaled))
    assert np.array_equal(got, ref)
    vecs = rng.integers(0, q, size=(4000, n + 1)).astype(np.int16)
    vecs = vecs[vecs.any(axis=1)]
    assert np.array_equal(enum.index_vectors(vecs.T),
                          _reference_index_rows(enum, _reference_normalize_rows(enum, vecs)))


def test_index_vectors_sampled_at_2048(spaces):
    """PG(2,2048): sampled points times random nonzero scalars, random
    vectors, and rows with leading zeros, against the reference."""
    sp = spaces(2, 2, 11)
    enum, q = sp._enum, sp.q
    rng = np.random.default_rng(16)
    idx = rng.choice(sp.num_points, size=50_000, replace=False)
    idx[:3] = [0, 1, sp.num_points - 1]            # (0,0,1), (0,1,0), (1,q-1,q-1)
    scaled = sp.field.mul_table[rng.integers(1, q, size=len(idx))[:, None],
                                sp.point_table[idx]]
    assert np.array_equal(enum.index_vectors(scaled.T), idx)
    vecs = rng.integers(0, q, size=(20_000, 3)).astype(np.int16)
    vecs[:2000, 0] = 0
    vecs[:1000, 1] = 0
    vecs = vecs[vecs.any(axis=1)]
    assert np.array_equal(enum.index_vectors(vecs.T),
                          _reference_index_rows(enum, _reference_normalize_rows(enum, vecs)))


@pytest.mark.parametrize("p,h", [(2, 2), (5, 1), (2, 11)])
def test_index_vectors_rejects_zero_rows(spaces, p, h):
    enum = spaces(2, p, h)._enum
    rows = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0]], dtype=np.int16)
    with pytest.raises(ValueError, match="zero vector"):
        enum.index_vectors(rows.T)
    with pytest.raises(ValueError, match="zero vector"):
        enum.index_vectors(np.zeros((1, 3), dtype=np.int16).T)


def test_one_array_add_and_one_normalisation():
    """geometry and bounds add arrays only through Field.array_add, and
    normalise only through index_vectors: no add_table gather and no
    inverse-then-multiply normalisation is left in them."""
    for module in (geometry, bounds):
        text = Path(module.__file__).read_text()
        for pattern in ("add_table[", "inv_table[lead]", "mul_table[inv"):
            assert pattern not in text, (module.__name__, pattern)


def test_point_index_rejects_out_of_range_coordinates(spaces):
    sp = spaces(2, 5, 3)
    for coords in ([0, -1, 5], [1, 125, 0], [0, 0, 1 << 20]):
        with pytest.raises(ValueError):
            sp.point_index(coords)
        with pytest.raises(ValueError):
            sp.hyperplane_index(coords)


def test_normalize_rejects_zero(spaces):
    with pytest.raises(ValueError, match="zero vector"):
        spaces(2, 5, 1).point_index([0, 0, 0])


def test_incident_basics(spaces):
    sp = spaces(2, 5, 1)
    p = sp.point_index([1, 0, 0])
    h_yes = sp.hyperplane_index([0, 0, 1])
    h_no = sp.hyperplane_index([1, 0, 0])
    assert _incident(sp, p, h_yes)
    assert not _incident(sp, p, h_no)


def test_every_line_of_pg25_has_six_points(spaces):
    sp = spaces(2, 5, 1)
    for h in range(sp.num_hyperplanes):
        pts = sp.hyperplane_point_indices(h)
        assert len(set(pts.tolist())) == 6
        for pt in pts:
            assert _incident(sp, int(pt), h)


def test_hyperplanes_through_counts(spaces):
    sp = spaces(2, 5, 1)
    for pt in range(sp.num_points):
        hs = sp.pencil_indices(pt)
        assert len(set(hs.tolist())) == 6
        assert all(_incident(sp, pt, int(h)) for h in hs)
    sp32 = spaces(3, 2, 5)
    rng = np.random.default_rng(1)
    for pt in rng.integers(0, sp32.num_points, size=10):
        assert len(sp32.pencil_indices(int(pt))) == 1057  # theta_2(32)


def _dots(sp, xs, y, dim=None):
    """GF(q) dot products of the points xs with the coordinates of point y,
    points of PG(dim, q), by default of the space itself."""
    f, table = sp.field, sp._get_enum(sp.n if dim is None else dim).table
    dots = np.zeros(len(xs), dtype=np.int64)
    for k in range(table.shape[1]):
        dots = f.add_table[dots, f.mul_table[table[xs, k], table[y, k]]]
    return dots


@pytest.mark.parametrize("key", [(2, 5, 3), (3, 2, 5), (4, 2, 2)])
def test_orthogonal_rows_against_dot_products(spaces, key):
    """Each row of the primitive, over the space and over its quotient
    PG(n-1, q), is exactly the zero set of the GF(q) dot product with its
    point, and over the space is the array hyperplane_point_indices and
    pencil_indices return."""
    sp = spaces(*key)
    rng = np.random.default_rng(44)
    ys = np.concatenate([[0, sp.num_points - 1],
                         rng.choice(sp.num_points, size=10, replace=False)])
    rows = sp._orthogonal_indices(sp.n, ys)
    assert rows.shape == (len(ys), theta(sp.n - 1, sp.q))
    everything = np.arange(sp.num_points)
    for y, row in zip(ys, rows):
        assert np.array_equal(np.sort(row), np.nonzero(_dots(sp, everything, y) == 0)[0])
        assert np.array_equal(row, sp.hyperplane_point_indices(int(y)))
        assert np.array_equal(row, sp.pencil_indices(int(y)))
    yq = rng.choice(theta(sp.n - 1, sp.q), size=10, replace=False)
    quotient = np.arange(theta(sp.n - 1, sp.q))
    for y, row in zip(yq, sp._orthogonal_indices(sp.n - 1, yq)):
        on = np.nonzero(_dots(sp, quotient, y, sp.n - 1) == 0)[0]
        assert np.array_equal(np.sort(row), on)


def _normalising_rows(sp, dim, ys):
    """Reference orthogonality rows by normalisation: every point of
    PG(dim-1, q) fills the coordinates off y's leading position j0, x . y = 0
    is solved for coordinate j0 by a GF(q) matrix product, and each entry is
    then normalised and indexed."""
    enum = sp._get_enum(dim)
    tuples = sp._get_enum(dim - 1).table
    coords = enum.table[np.asarray(ys, dtype=np.int64)]
    lead = (coords != 0).argmax(axis=1)
    minus = sp.field.mul_table[sp.field.p - 1]
    out = np.empty((len(coords), len(tuples)), dtype=np.int64)
    for j0 in np.unique(lead):
        sel = np.nonzero(lead == j0)[0]
        raw = np.empty((len(sel), len(tuples), dim + 1), dtype=np.int16)
        raw[:, :, np.arange(dim + 1) != j0] = tuples
        rest = np.delete(coords[sel], j0, axis=1)
        raw[:, :, j0] = _f_matmul(sp.field, minus[rest], np.ascontiguousarray(tuples.T))
        rows = _reference_normalize_rows(enum, raw.reshape(-1, dim + 1))
        out[sel] = _reference_index_rows(enum, rows).reshape(len(sel), -1)
    return out


PRIMITIVE_SPACES = [(2, 3, 3), (3, 2, 4), (4, 2, 2), (5, 2, 1)]


@pytest.mark.parametrize("key", PRIMITIVE_SPACES)
def test_closed_form_rows_match_normalising_rows(spaces, key):
    """At PG(2,27), PG(3,16), PG(4,4) and PG(5,2), for every point of
    PG(n, q) and of PG(n-1, q), the closed-form row holds the same points as
    the normalising reference, in increasing order."""
    sp = spaces(*key)
    for dim in (sp.n, sp.n - 1):
        ys = np.arange(theta(dim, sp.q))
        rows = sp._orthogonal_indices(dim, ys)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert np.array_equal(rows, np.sort(_normalising_rows(sp, dim, ys), axis=1))


@pytest.mark.parametrize("key", PRIMITIVE_SPACES)
def test_pencil_position_is_quotient_point(spaces, key):
    """x lies on hyperplane pencil_indices(a)[t] iff t is in the quotient
    row of _project(a, x): pencil positions and projections drop the same
    coordinate of a."""
    sp = spaces(*key)
    rng = np.random.default_rng(71)
    for a in [0, sp.num_points - 1, *rng.choice(sp.num_points, size=3, replace=False)]:
        others = np.setdiff1d(rng.choice(sp.num_points, size=min(200, sp.num_points)), [a])
        pencil = sp.pencil_indices(int(a))
        on = np.stack([_dots(sp, others, h) == 0 for h in pencil], axis=1)
        rows = sp._orthogonal_indices(sp.n - 1, sp._project(int(a), others))
        expected = np.zeros_like(on)
        np.put_along_axis(expected, rows, True, axis=1)
        assert np.array_equal(on, expected)


def _reference_project(sp, anchor, others):
    """Reference projection from an anchor: the image y of each x, built
    from its point-table row by 2-D table gathers, then normalised and
    indexed by the references."""
    f = sp.field
    a, x = sp.point_table[anchor], sp.point_table[others]
    j = sp.n - int(np.argmax(a[::-1] != 0))
    off = [i for i in range(sp.n + 1) if i != j]
    c = f.mul_table[a[off], f.mul_table[f.p - 1, f.inv_table[a[j]]]]
    y = f.add_table[x[:, off], f.mul_table[c[None, :], x[:, [j]]]]
    enum = sp._get_enum(sp.n - 1)
    return _reference_index_rows(enum, _reference_normalize_rows(enum, y))


@pytest.mark.parametrize("key", [(2, 2, 3), (2, 5, 1), (2, 3, 2), (3, 2, 2), (3, 5, 1),
                                 (4, 2, 1), (4, 3, 1)])
def test_project_against_normalising_reference(spaces, key):
    """_project, closed form for affine points seen from an anchor at
    infinity, equals the normalising reference for anchors at infinity and
    affine anchors, on all other points, on only the points at infinity,
    on only the affine points, and on random sorted subsets."""
    sp = spaces(*key)
    t_inf = theta(sp.n - 1, sp.q)
    rng = np.random.default_rng(sum(key))
    anchors = [0, 1, t_inf - 1, t_inf, t_inf + 1, sp.num_points - 1,
               *rng.choice(sp.num_points, size=4, replace=False)]
    for a in anchors:
        rest = np.setdiff1d(np.arange(sp.num_points), [a])
        subsets = [rest, rest[rest < t_inf], rest[rest >= t_inf], rest[:0],
                   np.sort(rng.choice(rest, size=len(rest) // 3, replace=False))]
        for others in subsets:
            assert np.array_equal(sp._project(int(a), others),
                                  _reference_project(sp, int(a), others))


def test_project_sampled_at_2048(spaces):
    """PG(2,2048): the closed-form projection of 60000 sampled points equals
    the normalising reference from anchors at infinity and affine anchors."""
    sp = spaces(2, 2, 11)
    t_inf = theta(1, sp.q)
    rng = np.random.default_rng(17)
    for a in [0, 1, 2, t_inf - 1, t_inf, sp.num_points - 1,
              *rng.choice(sp.num_points, size=3, replace=False)]:
        others = np.setdiff1d(rng.choice(sp.num_points, size=60_000, replace=False), [a])
        others = np.union1d(others, np.setdiff1d(np.arange(300), [a]))
        assert np.array_equal(sp._project(int(a), others),
                              _reference_project(sp, int(a), others))


@pytest.mark.parametrize("key", PRIMITIVE_SPACES)
def test_pencil_counts_against_dot_products(spaces, key):
    """counts[t, v-1] of _pencil_counts is the number of support points of
    value v on hyperplane pencil_indices(anchor)[t], counted by direct dot
    products."""
    sp = spaces(*key)
    p = sp.field.p
    rng = np.random.default_rng(72)
    residual = np.zeros(sp.num_points, dtype=np.int16)
    residual[rng.choice(sp.num_points, size=sp.num_points // 3, replace=False)] = \
        rng.integers(1, p, size=sp.num_points // 3)
    supp = np.nonzero(residual)[0]
    for anchor_pos in (0, len(supp) - 1, int(rng.integers(len(supp)))):
        hist = _histogram(sp, supp, residual[supp], anchor_pos)
        counts = _pencil_counts(sp, hist, int(residual[supp[anchor_pos]]))
        pencil = sp.pencil_indices(int(supp[anchor_pos]))
        assert counts.shape == (len(pencil), p - 1)
        for t, h in enumerate(pencil):
            vals = residual[supp[_dots(sp, supp, h) == 0]]
            assert counts[t].tolist() == [int(np.sum(vals == v)) for v in range(1, p)]


@pytest.mark.parametrize("key", PRIMITIVE_SPACES)
def test_pencil_index_is_the_pencil_row_entry(spaces, key):
    """_pencil_index(a, t) is entry t of pencil_indices(a), for anchors with
    every trailing nonzero position."""
    sp = spaces(*key)
    anchors = {0, sp.num_points - 1} | {sp.theta(k) for k in range(sp.n)}
    anchors |= set(np.random.default_rng(73).integers(sp.num_points, size=6).tolist())
    for a in sorted(anchors):
        row = sp.pencil_indices(a)
        assert [sp._pencil_index(a, t) for t in range(len(row))] == row.tolist()


def test_point_and_pencil_duality(spaces):
    """Each hyperplane carries theta(n-1) points, each point theta(n-1)
    hyperplanes, and q * theta(n-1) + 1 = theta(n)."""
    for key in ((2, 7, 1), (3, 2, 2)):
        sp = spaces(*key)
        t1 = theta(sp.n - 1, sp.q)
        for h in range(sp.num_hyperplanes):
            assert len(sp.hyperplane_point_indices(h)) == t1
        for pt in range(sp.num_points):
            assert len(sp.pencil_indices(pt)) == t1
        assert sp.q * t1 + 1 == sp.num_points


def test_line_through(spaces):
    """The span of two points of PG(2,5) is a line of 6 points, the same from
    any two of them; a point twice spans no line."""
    sp = spaces(2, 5, 1)
    p = sp.point_index([1, 0, 0])
    q_ = sp.point_index([0, 1, 0])
    line = sp.span_points([p, q_]).point_indices
    assert len(line) == 6
    for i in line:
        assert sp.point_table[i, 2] == 0
    # well-definedness: any two points of the line span the same line
    for a, b in combinations(line, 2):
        assert sp.span_points([a, b]).point_indices == line
    with pytest.raises(ValueError, match="linearly dependent"):
        sp.span_points([p, p])


def test_line_through_pg332_sizes(spaces):
    sp = spaces(3, 2, 5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.choice(sp.num_points, size=2, replace=False)
        assert len(sp.span_points([int(a), int(b)]).point_indices) == 33


def test_line_counts(spaces):
    assert spaces(2, 5, 1).line_count() == 31
    assert spaces(2, 2, 1).line_count() == 7
    assert spaces(3, 2, 1).line_count() == 35


def test_two_points_span_unique_line(spaces):
    sp = spaces(2, 3, 1)
    for a, b in combinations(range(sp.num_points), 2):
        ln1 = sp.span_points([a, b]).point_indices
        assert a in ln1 and b in ln1
    # dually: two lines of a plane meet in exactly one point
    for h1, h2 in combinations(range(sp.num_hyperplanes), 2):
        s1 = set(sp.hyperplane_point_indices(h1).tolist())
        s2 = set(sp.hyperplane_point_indices(h2).tolist())
        assert len(s1 & s2) == 1


def test_span_points(spaces):
    sp = spaces(3, 2, 5)
    # two points span a line of q+1 points
    sub = sp.span_points([0, 1])
    assert sub.dim == 1 and len(sub.point_indices) == 33
    # three independent points span a plane of theta_2 points
    a = sp.point_index([1, 0, 0, 0])
    b = sp.point_index([0, 1, 0, 0])
    c = sp.point_index([0, 0, 1, 0])
    sub2 = sp.span_points([a, b, c])
    assert len(sub2.point_indices) == 1057
    assert list(sub2.point_indices) == sorted(sub2.point_indices)
    # a full basis spans everything
    d = sp.point_index([0, 0, 0, 1])
    assert len(sp.span_points([a, b, c, d]).point_indices) == sp.num_points
    # dependent basis rejected
    ab = sp.point_index([1, 1, 0, 0])
    with pytest.raises(ValueError):
        sp.span_points([a, b, ab])


def test_span_points_pg3_32_plane_size(spaces, gf_rank):
    sp = spaces(3, 2, 5)
    rng = np.random.default_rng(3)
    found = 0
    while found < 5:
        pts = [int(x) for x in rng.choice(sp.num_points, size=3, replace=False)]
        rows = sp.point_table[pts]
        if gf_rank(sp.field, rows) != 3:
            continue
        assert len(sp.span_points(pts).point_indices) == 1057
        found += 1
