"""Codeword algebra: incidence vectors, combinations, supports, restrictions."""

import numpy as np
import pytest

from pgcodes import (Codeword, Decomposition, combine, incidence_codeword,
                     partial_combination, restricted_weight, weight)
from pgcodes.codes import _residues
from pgcodes.minimality import random_combination


def theta(m, q):
    return 0 if m < 0 else (q ** (m + 1) - 1) // (q - 1)


@pytest.mark.parametrize("values", [
    np.array([0, 1, 2, 4, 3], dtype=np.int16),
    np.array([0, 1, 2, 4, 3], dtype=np.int64),
    np.array([-1, -5, 0, 3, -7], dtype=np.int16),
    np.array([5, 9, 40000, 4, 0], dtype=np.int64),
    np.array([0, 4, 5, 1], dtype=np.int16),
    np.array([0, 4, -1, 1], dtype=np.int64),
    np.array([0, -32768, 32767, 1], dtype=np.int16),
    np.array([], dtype=np.int16),
    np.array([], dtype=np.int64),
])
def test_residues_match_mod_p(values):
    """The reduction behind Codeword equals np.asarray(v) % p, as a fresh
    int16 array, whether or not the values are already in [0, p)."""
    got = _residues(values, 5)
    assert got.dtype == np.int16
    assert np.array_equal(got, np.asarray(values) % 5)
    assert not np.shares_memory(got, values)


def test_codeword_never_aliases_its_input(spaces):
    sp = spaces(2, 5, 1)
    vals = np.zeros(sp.num_points, dtype=np.int16)
    vals[3] = 4
    cw = Codeword(sp, vals)
    vals[3] = 1
    assert cw.values[3] == 4
    assert not cw.values.flags.writeable


def test_incidence_codeword_weights(spaces):
    sp = spaces(2, 5, 1)
    for h in (0, 7, 30):
        assert weight(incidence_codeword(sp, h)) == 6
    sp32 = spaces(3, 2, 5)
    for h in (0, 12345):
        cw = incidence_codeword(sp32, h)
        assert weight(cw) == 1057
        # counting: value sum equals theta(n-1) mod p
        assert int(cw.values.sum()) % 2 == 1057 % 2


def test_combine_cancellation(spaces):
    sp = spaces(2, 5, 1)
    cw, d = combine(sp, [(3, 1), (3, 4)])
    assert cw.is_zero()
    assert d.m == 0
    assert d.dropped == (3,)


def test_two_line_difference_weight(spaces):
    sp = spaces(2, 2, 5)
    cw, d = combine(sp, [(0, 1), (5, 1)])  # p = 2: difference = sum
    assert weight(cw) == 2 * 32
    assert d.m == 2


def test_concurrent_triple_weight_matches_pointwise_oracle(spaces):
    """Three concurrent lines, coefficients 1,1,1 over p > 3: weight computed
    by an independent dict-based evaluation."""
    sp = spaces(2, 5, 1)
    vertex = 0
    lines = [int(i) for i in np.sort(sp.pencil_indices(vertex))[:3]]
    acc = {}
    for ln in lines:
        for pt in sp.hyperplane_point_indices(ln):
            acc[int(pt)] = (acc.get(int(pt), 0) + 1) % 5
    expected = sum(1 for v in acc.values() if v)
    cw, _ = combine(sp, [(ln, 1) for ln in lines])
    assert weight(cw) == expected
    assert expected == 3 * 5 + 1  # q points per line off the vertex, vertex value 3


def test_support_and_weight(spaces):
    sp = spaces(2, 5, 1)
    zero = Codeword(sp, np.zeros(sp.num_points, dtype=np.int16))
    assert weight(zero) == 0
    assert len(zero.support) == 0
    cw = incidence_codeword(sp, 4)
    assert set(cw.support.tolist()) == set(sp.hyperplane_point_indices(4).tolist())


def test_scaling_preserves_weight(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(5)
    cw, _ = random_combination(sp, 4, rng)
    for alpha in range(1, 5):
        assert weight(cw.scaled(alpha)) == weight(cw)


def test_combine_is_linear(spaces):
    sp = spaces(2, 5, 1)
    a, _ = combine(sp, [(0, 2), (4, 3)])
    b, _ = combine(sp, [(9, 1), (17, 4)])
    both, _ = combine(sp, [(0, 2), (4, 3), (9, 1), (17, 4)])
    assert a + b == both


def test_combinations_reduce_coefficients_outside_0_p(spaces):
    """combine and partial_combination agree with the pointwise sum of
    indicators mod p for coefficients below 0 and at least p."""
    sp = spaces(2, 5, 1)
    terms = [(3, -1), (7, 9), (11, 37), (3, 12)]

    def pointwise(pairs):
        return sum(c * incidence_codeword(sp, h).values.astype(np.int64)
                   for h, c in pairs) % 5

    cw, _ = combine(sp, terms)
    assert cw.values.dtype == np.int16
    assert np.array_equal(cw.values, pointwise(terms))
    d = Decomposition(sp, dict(terms[1:]))
    assert np.array_equal(partial_combination(d, d.terms).values, pointwise(terms[1:]))


def test_restricted_weight(spaces):
    sp = spaces(3, 2, 2)
    h = 7
    cw = incidence_codeword(sp, h)
    whole = sp.span_points([sp.point_index([1, 0, 0, 0]),
                            sp.point_index([0, 1, 0, 0]),
                            sp.point_index([0, 0, 1, 0]),
                            sp.point_index([0, 0, 0, 1])])
    assert restricted_weight(cw, whole) == weight(cw)
    on = sp.hyperplane_point_indices(h)
    inside = sp.span_points([int(on[0]), int(on[1])])
    assert set(inside.point_indices) <= set(on.tolist())
    assert restricted_weight(cw, inside) == sp.q + 1
    # a line not inside the hyperplane meets it in exactly one point
    off = next(i for i in range(sp.num_points) if i not in set(on.tolist()))
    crossing = sp.span_points([int(on[0]), off])
    assert restricted_weight(cw, crossing) == 1
    # monotone: restricted weight never exceeds the weight
    assert restricted_weight(cw, inside) <= weight(cw)


def test_partial_combination(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(6)
    cw, d = random_combination(sp, 5, rng)
    assert partial_combination(d, []).is_zero()
    assert partial_combination(d, d.terms.keys()) == cw
    h0 = next(iter(d.terms))
    single = partial_combination(d, [h0])
    assert weight(single) == theta(1, sp.q)
    with pytest.raises(ValueError):
        partial_combination(d, [max(d.terms) + 1])


def test_weight_sandwich(spaces):
    """j*theta(n-1) - j(j-1)*theta(n-2) <= wt <= j*theta(n-1); the tighter
    (j - 1/8)*theta(n-1) lower bound holds once j(j-1)*theta(n-2) stays below
    theta(n-1)/8."""
    for key, jmax in (((2, 5, 3), 10), ((2, 2, 5), 4)):
        sp = spaces(*key)
        t1, t0 = theta(sp.n - 1, sp.q), theta(sp.n - 2, sp.q)
        rng = np.random.default_rng(7)
        for _ in range(20):
            j = int(rng.integers(1, jmax + 1))
            cw, d = random_combination(sp, j, rng)
            wt = weight(cw)
            assert wt <= j * t1
            assert wt >= j * t1 - j * (j - 1) * t0
            if 8 * j * (j - 1) * t0 <= t1:
                assert 8 * wt >= (8 * j - 1) * t1


def test_codeword_json_roundtrip(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(8)
    cw, _ = random_combination(sp, 3, rng)
    data = cw.to_json()
    assert data["n"] == 2 and data["p"] == 5 and data["h"] == 3
    idxs = [i for i, _ in data["values"]]
    assert idxs == sorted(idxs)
    assert data["values"] == [[i, int(cw.values[i])] for i in cw.support.tolist()]


def test_codeword_immutable(spaces):
    sp = spaces(2, 5, 1)
    cw = incidence_codeword(sp, 0)
    with pytest.raises(ValueError):
        cw.values[0] = 3


def test_codewords_of_different_spaces_do_not_add(spaces):
    """PG(2,5) and PG(4,2) both have 31 points, so only the space tells
    their codewords apart: neither sum nor difference is taken."""
    a = incidence_codeword(spaces(2, 5, 1), 0)
    b = incidence_codeword(spaces(4, 2, 1), 0)
    with pytest.raises(ValueError, match="different spaces"):
        a + b
    with pytest.raises(ValueError, match="different spaces"):
        a - b


@pytest.mark.parametrize("key,ms", [((2, 2, 2), (1, 2, 3, 7, 21)), ((2, 5, 1), (1, 3, 8, 31)),
                                    ((3, 3, 1), (1, 2, 5, 40)), ((2, 5, 3), (1, 4, 9))])
def test_combine_carries_its_support(spaces, key, ms):
    """The support that combine builds from its term rows, including where
    terms cancel and where the rows outnumber the points, equals a scan of
    the values, is read-only, and is what weight counts; so is
    the support of partial_combination and the one a Codeword built from
    values finds on first use."""
    sp = spaces(*key)
    rng = np.random.default_rng(sum(key))
    for m in ms:
        cw, d = random_combination(sp, m, rng)
        cancelling, _ = combine(sp, [(0, 1), (1, 1), (1, sp.field.p - 1), (2, 2)])
        half = list(d.terms)[: (m + 1) // 2]
        for c in (cw, cancelling, partial_combination(d, half), Codeword(sp, cw.values)):
            assert np.array_equal(c.support, np.flatnonzero(c.values))
            assert not c.support.flags.writeable
            assert weight(c) == len(c.support)
