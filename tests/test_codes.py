"""Codeword algebra: incidence vectors, combinations, supports, restrictions."""

import pickle

import numpy as np
import pytest

from pgcodes import (Codeword, Decomposition, combine, incidence_codeword,
                     partial_combination, restricted_weight, secant_spectrum, verdict,
                     weight)
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


# ---------------------------------------------------------------------------
# inputs are checked where they enter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("terms", [[(3.7, 1)], [(3, 1.9)], [(True, 1)], [("4", 2)],
                                   [(np.float64(3.0), 1)], [(3, 2), (5, np.float32(1))]])
def test_combine_refuses_non_integer_terms(spaces, terms):
    """A float, bool or str hyperplane or coefficient is refused, not
    truncated or read as an index: 3.7 is not hyperplane 3, nor True 1."""
    sp = spaces(2, 5, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        combine(sp, terms)
    with pytest.raises(ValueError, match="must be an integer"):
        Decomposition(sp, dict(terms))


def test_terms_are_checked_in_input_order(spaces):
    """Each term is checked as it is read, hyperplane before coefficient."""
    sp = spaces(2, 5, 1)
    with pytest.raises(ValueError, match="a coefficient must be an integer, got 1.5"):
        combine(sp, [(2, 1.5), (99, 1)])
    with pytest.raises(ValueError, match="hyperplane index 99 out of range"):
        combine(sp, [(99, 1.5), (2, 1)])
    with pytest.raises(ValueError, match="a hyperplane index must be an integer, got 2.5"):
        Decomposition(sp, {2.5: 1, 99: 1})


def test_incidence_codeword_refuses_a_non_integer_hyperplane(spaces):
    sp = spaces(2, 5, 1)
    for h in (2.9, True, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            incidence_codeword(sp, h)


def test_one_out_of_range_index_keeps_its_message(spaces):
    sp = spaces(2, 5, 1)
    for build in (lambda h: combine(sp, [(h, 1)]), lambda h: incidence_codeword(sp, h),
                  lambda h: Decomposition(sp, {h: 1})):
        for h in (31, -1):
            with pytest.raises(ValueError, match=rf"^hyperplane index {h} out of range \[0, 31\)$"):
                build(h)


def test_a_zero_coefficient_is_refused(spaces):
    sp = spaces(2, 5, 1)
    for a in (0, 5, -10):
        with pytest.raises(ValueError, match="nonzero coefficients"):
            Decomposition(sp, {3: 1, 4: a})


@pytest.mark.parametrize("values", [
    [1.5, 2.7, 4.99],                       # truncated to 1, 2, 4 if taken
    [True, False, True],
    ["1", "2", "3"],
])
def test_codeword_refuses_non_integer_values(spaces, values):
    sp = spaces(2, 5, 1)
    vals = np.resize(np.array(values), sp.num_points)
    with pytest.raises(ValueError, match="1-D integer vector"):
        Codeword(sp, vals)


def test_codeword_refuses_a_2d_vector(spaces):
    """A (theta(n), 2) array has the right length but is no vector."""
    sp = spaces(2, 5, 1)
    vals = np.zeros((sp.num_points, 2), dtype=np.int64)
    vals[1] = 1
    with pytest.raises(ValueError, match="1-D integer vector"):
        Codeword(sp, vals)


def test_codeword_refuses_a_wrong_length(spaces):
    sp = spaces(2, 5, 1)
    for n in (0, sp.num_points - 1, sp.num_points + 1):
        with pytest.raises(ValueError, match="length must equal the point count"):
            Codeword(sp, np.zeros(n, dtype=np.int16))


def test_codeword_from_integer_lists_and_arrays(spaces):
    """Integer lists and arrays of any integer dtype keep their residues,
    and the codeword holds a copy."""
    sp = spaces(2, 5, 1)
    base = [(7 * i - 40) for i in range(sp.num_points)]
    want = np.array(base) % 5
    for vals in (base, np.array(base, dtype=np.int64), np.array(base, dtype=np.int16),
                 np.array(base, dtype=np.int64) % 5 + 5, np.array(want, dtype=np.uint8)):
        cw = Codeword(sp, vals)
        assert np.array_equal(cw.values, want)
        assert not np.shares_memory(cw.values, vals)


def test_scaled_reduces_alpha_before_multiplying(spaces):
    """At p = 5 a value 4 times 2**62 is 1, times 3 * 2**61 is 4, and times
    2**63 + 2 is 0; an int64 product would wrap or overflow."""
    sp = spaces(2, 5, 1)
    vals = np.zeros(sp.num_points, dtype=np.int16)
    vals[0] = 4
    cw = Codeword(sp, vals)
    for alpha in (2 ** 62, 3 * 2 ** 61, 2 ** 63 + 2, -(2 ** 70) - 1, np.int64(2 ** 62)):
        assert cw.scaled(alpha).values[0] == 4 * int(alpha) % 5
    for alpha in (1.0, True, "2"):
        with pytest.raises(ValueError, match="alpha must be an integer"):
            cw.scaled(alpha)


def test_partial_combination_refuses_non_integer_hyperplanes(spaces):
    sp = spaces(2, 5, 1)
    _, d = combine(sp, [(2, 1), (3, 1)])
    with pytest.raises(ValueError, match="must be an integer"):
        partial_combination(d, [2.9])


# ---------------------------------------------------------------------------
# one read-only Decomposition
# ---------------------------------------------------------------------------

def test_decomposition_terms_are_read_only(spaces):
    """A coefficient can be neither changed nor added after construction,
    so the U that a verdict kept still belongs to the terms: a changed
    coefficient once made a later verdict accept a decomposition that no
    longer combines to c."""
    sp = spaces(2, 5, 3)
    cw, d = random_combination(sp, 4, np.random.default_rng(0))
    before = verdict(cw, decomposition=d)
    h0 = next(iter(d.terms))
    with pytest.raises(TypeError):
        d.terms[h0] = d.terms[h0] % 4 + 1
    with pytest.raises(TypeError):
        d.terms[0] = 1
    with pytest.raises(TypeError):
        del d.terms[h0]
    again = verdict(cw, decomposition=d, with_oracle=True)
    assert again.verdict == before.verdict
    assert cw._terms is d
    assert list(d.terms) == sorted(d.terms)


def test_combine_codeword_carries_its_decomposition(spaces):
    sp = spaces(2, 5, 1)
    cw, d = combine(sp, [(9, 1), (3, 2), (9, 3), (4, 1), (4, 4)])
    assert cw._terms is d
    assert dict(d.terms) == {3: 2, 9: 4}
    assert d.dropped == (4,)
    assert incidence_codeword(sp, 5)._terms.terms == {5: 1}
    part = partial_combination(d, [9])
    assert dict(part._terms.terms) == {9: 4}


@pytest.mark.parametrize("key,m", [((2, 5, 3), 4), ((3, 3, 1), 3), ((2, 2, 3), 1)])
def test_decomposition_and_codeword_pickle(spaces, key, m):
    """A Decomposition and a combine codeword round-trip through pickle
    with equal terms, values and secant spectrum; the terms stay read-only."""
    sp = spaces(*key)
    cw, d = random_combination(sp, m, np.random.default_rng(sum(key)))
    d2 = pickle.loads(pickle.dumps(d))
    assert d2.terms == d.terms and d2.dropped == d.dropped
    with pytest.raises(TypeError):
        d2.terms[next(iter(d2.terms))] = 1
    cw2 = pickle.loads(pickle.dumps(cw))
    assert cw2._terms.terms == d.terms
    assert np.array_equal(cw2.values, cw.values)
    assert np.array_equal(cw2.support, cw.support)
    assert secant_spectrum(cw2) == secant_spectrum(cw)


def _reference_union(d: Decomposition):
    """U, positions, holes and c on U by one argsort of the term rows and a
    `reduceat` over the runs of equal points: the earlier implementation."""
    sp = d.space
    rows = sp._orthogonal_indices(sp.n, list(d.terms))
    flat = rows.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    union = ordered[first]
    positions = np.empty(rows.shape, dtype=np.int64)
    positions.ravel()[order] = np.cumsum(first) - 1
    coefs = np.repeat(np.array(list(d.terms.values()), dtype=np.int64), rows.shape[1])
    c_on_union = np.add.reduceat(coefs[order], np.flatnonzero(first)) % sp.field.p
    return union, positions, np.flatnonzero(c_on_union == 0), c_on_union


@pytest.mark.parametrize("key", [(2, 5, 1), (2, 2, 3), (2, 5, 2), (3, 3, 1), (3, 2, 2), (4, 2, 1)])
def test_union_positions_match_the_reduceat_reference(spaces, key):
    """Random, cancelling and duplicate-term combinations give the same U,
    positions, holes and c on U as the reference, and c on U is c there."""
    sp = spaces(*key)
    p = sp.field.p
    rng = np.random.default_rng(sum(key) + 28)
    corpus = [random_combination(sp, m, rng) for m in (1, 2, 3, 5, 8)]
    corpus.append(combine(sp, [(0, 1), (1, 1), (1, p - 1), (2, 2), (3, p - 2)]))
    corpus.append(combine(sp, [(5, 1), (6, 1), (5, 1), (7, p - 1), (6, 3), (5, 2)]))
    pencil = [int(h) for h in sp.pencil_indices(0)[:4]]
    corpus.append(combine(sp, [(h, 1) for h in pencil] + [(pencil[0], p - 1)]))
    for cw, d in corpus:
        got = d._union_positions()
        for a, b in zip(got, _reference_union(d)):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
        union, _, _, c_on_union = got
        assert np.array_equal(c_on_union, cw.values[union])
        assert np.array_equal(d._union_sum(list(d.terms.values())), c_on_union)
