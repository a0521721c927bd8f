"""Decomposition, partition refinement, witnesses, verdicts, and the oracle."""

import functools
import tracemalloc

import numpy as np
import pytest

from pgcodes import bounds, minimality
from pgcodes import (AdjacencyWitnessGraph, BoundContext, Codeword, Decomposition,
                     NoDecompositionError, OracleResult, combine, decompose,
                     incidence_codeword, nullspace, oracle_minimal,
                     p2_fixtures, partial_combination, refine_to_fixpoint,
                     space_make, szonyi_example, verdict, weight)
from pgcodes.minimality import (DEFAULT_ORACLE_CAP, VERDICT_MINIMAL,
                                VERDICT_NOT_MINIMAL, VERDICT_UNDETERMINED,
                                NoWitnessError, OracleCapExceededError,
                                _certified_candidate, _histogram,
                                _is_scalar_multiple, _make_partition,
                                _merge_components, _on_union, _pencil_candidate,
                                _pencil_counts, _peel, _plane_pairing,
                                build_adjacency, build_witness,
                                exceptional_holes, random_combination)


def _assert_witness_valid(witness, cw):
    p = cw.space.field.p
    assert witness is not None
    assert not np.any((witness.values != 0) & (cw.values == 0)), "support escapes"
    assert not _is_scalar_multiple(witness.values, cw.values, p), "proportional to c"


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_scalar_multiple_of_hyperplane(spaces):
    sp = spaces(2, 5, 3)
    cw, _ = combine(sp, [(42, 3)])
    d = decompose(cw)
    assert d.terms == {42: 3}
    assert d.m == 1


def test_decompose_roundtrip_plane(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(21)
    for _ in range(25):
        j = int(rng.integers(1, 11))
        cw, d_true = random_combination(sp, j, rng)
        d = decompose(cw)
        assert d.terms == d_true.terms
        assert d.m == -(-weight(cw) // sp.theta(1))
        assert d.flags == ()


def test_decompose_deterministic_and_scale_covariant(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(22)
    cw, d_true = random_combination(sp, 6, rng)
    d1, d2 = decompose(cw), decompose(cw)
    assert d1.terms == d2.terms == d_true.terms
    scaled = decompose(cw.scaled(3))
    assert scaled.terms == {h: (3 * c) % 5 for h, c in d_true.terms.items()}


def test_decompose_two_hyperplane_difference(spaces):
    sp = spaces(3, 2, 2)  # small stand-in; the (3,64) case runs in acceptance
    cw, _ = combine(sp, [(1, 1), (9, 1)])
    d = decompose(cw)
    assert set(d.terms) == {1, 9}
    assert d.m == 2 == -(-weight(cw) // sp.theta(2))


def test_decompose_difference_pg3_64(spaces):
    sp = spaces(3, 2, 6)
    cw, _ = combine(sp, [(100, 1), (2000, 1)])
    assert weight(cw) == 8192  # 2 * 64^2
    d = decompose(cw)
    assert set(d.terms) == {100, 2000}
    assert d.m == 2  # ceil(8192 / 4161)


def test_decompose_prime_field_flagged(spaces):
    """q prime still decomposes, flagged outside the theorem guarantee."""
    sp = spaces(2, 7, 1)
    cw, d_true = combine(sp, [(0, 2), (13, 5)])
    d = decompose(cw)
    assert d.terms == d_true.terms
    assert "h=1" in d.flags and "best-effort" in d.flags


@pytest.mark.parametrize("key", [(2, 5, 3), (3, 2, 5)])
def test_decompose_matches_the_scatter_reference(spaces, key):
    """Random combinations of 1-4 hyperplanes and three hyperplanes of one
    pencil, which tie at every peel: the terms are the ground truth, and
    the tie-breaks are those of `_full_scan_decompose`, whose pencil counts
    come from the scatter reference.  At n = 3 only the tie case reaches
    the full pencil."""
    sp = spaces(*key)
    rng = np.random.default_rng(33)
    cases = [random_combination(sp, j, rng) for j in (1, 2, 3, 4)]
    pencil = [int(h) for h in np.sort(sp.pencil_indices(0))[[0, 5, 9]]]
    cases.append(combine(sp, [(h, 1) for h in pencil]))   # a tie at every peel
    ties = False
    for cw, d_true in cases:
        d = decompose(cw)
        assert d.terms == d_true.terms
        assert d.tie_breaks == _full_scan_decompose(cw)[2]
        ties |= bool(d.tie_breaks)
    assert ties


def _codim2_pencil(space):
    """Three hyperplanes through a codimension-2 space that holds point 0,
    with coefficients 1, 1, -1.  At point 0, the lowest support point, the
    first two are candidates of equal count: a tie."""
    h1, h2 = (int(h) for h in np.sort(space.pencil_indices(0))[:2])
    common = np.intersect1d(space.hyperplane_point_indices(h1),
                            space.hyperplane_point_indices(h2))
    through = functools.reduce(np.intersect1d, [space.pencil_indices(int(x)) for x in common])
    return [(int(h), a) for h, a in zip(through[:3], (1, 1, space.field.p - 1))]


def _anchor_args(space, supp, vals, anchor_pos):
    """The arguments of `_pencil_counts` and `_certified_candidate` at the
    anchor supp[anchor_pos], as `decompose` passes them."""
    return (space, _histogram(space, supp, vals, anchor_pos),
            int(supp[anchor_pos]), int(vals[anchor_pos]))


def test_certified_peel_never_falls_back_in_regime(spaces, monkeypatch):
    """In the regime every peel of PG(3,32) is certified: `decompose`
    recovers the terms without reaching the full pencil.  The tie case
    falls back to it, and is recovered with the tie flagged."""
    sp = spaces(3, 2, 5)
    full = []

    def counted(*args):
        full.append(args[2])
        return _pencil_candidate(*args)

    monkeypatch.setattr(minimality, "_pencil_candidate", counted)
    rng = np.random.default_rng(34)
    for j in (1, 2, 3, 4):
        cw, d_true = random_combination(sp, j, rng)
        assert decompose(cw).terms == d_true.terms
    assert full == []
    terms = _codim2_pencil(sp)
    d = decompose(combine(sp, terms)[0])
    assert d.terms == dict(terms) and d.tie_breaks
    assert full


def test_certified_peel_memory_is_not_pencil_squared(fields):
    """Peeling one hyperplane of PG(5,11) certifies its first anchor from
    the theta(3) = 1464 quotient hyperplanes through one point.  Their rows
    gathered over the 10 values in one piece took 1464^2 * 10 int64 entries,
    171 MB; in blocks the peel stays below 16 MB."""
    sp = space_make(5, fields(11, 1))
    cw, d_true = combine(sp, [(sp.num_points // 3, 7)])
    tracemalloc.start()
    try:
        d = decompose(cw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.terms == d_true.terms
    assert peak < 16e6


def _scatter_counts(space, hist, anchor_val):
    """Reference pencil counts: the histogram of every nonzero quotient
    point y added with `np.add.at` into the cells of y's quotient row, and
    the anchor on every hyperplane."""
    p = space.field.p
    ys, alphas = np.nonzero(hist)
    rows = space._orthogonal_indices(space.n - 1, ys)
    counts = np.zeros(hist.size, dtype=np.int64)
    np.add.at(counts, (rows * (p - 1) + alphas[:, None]).ravel(),
              np.repeat(hist[ys, alphas], rows.shape[1]))
    counts = counts.reshape(hist.shape)
    counts[:, anchor_val - 1] += 1
    return counts


def _reference_candidate(space, hist, anchor, anchor_val):
    """(count, hyperplane index, value, tie) from `_scatter_counts` and the
    anchor's whole pencil row, ties broken to the lowest hyperplane index,
    then the smallest value."""
    counts = _scatter_counts(space, hist, anchor_val)
    best = int(counts.max())
    ts, als = np.nonzero(counts == best)
    hyp = space.pencil_indices(anchor)[ts]
    k = np.lexsort((als, hyp))[0]
    return best, int(hyp[k]), int(als[k]) + 1, len(ts) > 1


def _full_scan_decompose(c):
    """Reference peel: the majority peel of `decompose`, finding the support
    with a scan of every point before each peel and each anchor's candidate
    with `_reference_candidate`.  Returns (terms, flags, tie_breaks), or the
    start of the NoDecompositionError message."""
    space = c.space
    ctx = bounds.context_for(c)
    p = space.field.p
    wt = weight(c)
    theta_h = space.theta(space.n - 1)
    flags = list(bounds.regime_flags(ctx, weight=wt))
    m_est = -(-wt // theta_h)
    if ctx.h >= 2:
        cap = bounds.delta(space.n, ctx) - 1
        if flags:
            cap = max(cap, m_est + 2)
            flags.append("best-effort")
    else:
        cap = m_est + 2
        flags.append("best-effort")
    residual = c.values.astype(np.int64)
    terms, tie_breaks, peels = {}, [], 0
    while residual.any():
        if peels >= cap:
            return "residual nonzero"
        supp = np.nonzero(residual)[0]
        for anchor_pos in range(len(supp)):
            best, hyp, alpha, tie = _reference_candidate(
                *_anchor_args(space, supp, residual[supp], anchor_pos))
            if 2 * best > theta_h:
                break
        else:
            return "no hyperplane carries a strict majority"
        if tie:
            tie_breaks.append(peels)
        pts = space.hyperplane_point_indices(hyp)
        residual[pts] = (residual[pts] - alpha) % p
        terms[hyp] = (terms.get(hyp, 0) + alpha) % p
        if terms[hyp] == 0:
            del terms[hyp]
        peels += 1
    if not flags and len(terms) != m_est and wt > 0:
        return "internal inconsistency"
    return {h: terms[h] for h in sorted(terms)}, tuple(flags), tuple(tie_breaks)


@pytest.mark.parametrize("key,js", [
    ((2, 3, 3), (1, 2, 3, 4, 6, 9)),
    ((2, 2, 5), (1, 2, 3, 4, 6, 9)),
    ((3, 2, 4), (1, 2, 3, 5, 7)),
    ((4, 2, 2), (1, 2, 3, 4, 6)),
])
def test_decompose_matches_full_scan_peel(spaces, key, js):
    """Terms, flags and tie-breaks of the sorted-support peel equal the full
    scan's on seeded codewords, in and out of the regime.  At p = 2 the
    pencil of three hyperplanes through a point (a line for n > 2) puts that
    point on three terms: it leaves the support at the first peel through
    it, comes back at the second and leaves again at the third.  A lone
    point is no codeword, and both peels refuse it."""
    sp = spaces(*key)
    rng = np.random.default_rng(sum(key))
    cws = [random_combination(sp, j, rng)[0] for j in js]
    through = sp.pencil_indices(0)
    if sp.n > 2:
        through = np.intersect1d(through, sp.pencil_indices(1))
    cws.append(combine(sp, [(int(h), 1) for h in np.sort(through)[:3]])[0])
    lone = np.zeros(sp.num_points, dtype=np.int16)
    lone[17] = 1
    cws.append(Codeword(sp, lone))                     # no majority: an error
    for cw in cws:
        try:
            d = decompose(cw)
            got = d.terms, d.flags, d.tie_breaks
        except NoDecompositionError as exc:
            got = str(exc)
        ref = _full_scan_decompose(cw)
        if isinstance(ref, str):
            assert isinstance(got, str) and got.startswith(ref)
        else:
            assert got == ref


def test_certified_candidate_matches_full_pencil(spaces):
    """At every anchor of a seeded corpus, mostly outside the regime, a
    certified candidate is the full pencil's (count, hyperplane, value) with
    no tie, the full pencil reading the same histogram after it as in
    `decompose`; both branches run, and `decompose` gives the full path's
    terms, flags and tie-breaks, which the three hyperplanes of
    `_codim2_pencil` make non-empty."""
    certified = fallback = ties = 0
    for key in [(3, 3, 1), (3, 2, 2), (3, 5, 1), (3, 2, 3), (3, 3, 2), (3, 2, 4),
                (4, 3, 1), (4, 2, 2)]:
        sp = spaces(*key)
        rng = np.random.default_rng(sum(key) + 40)
        cws = [random_combination(sp, j, rng)[0] for j in (1, 2, 3)]
        cws.append(combine(sp, _codim2_pencil(sp))[0])
        for cw in cws:
            supp = cw.support
            vals = cw.values[supp]
            for pos in range(len(supp)):
                args = _anchor_args(sp, supp, vals, pos)
                got = _certified_candidate(*args)
                if got is None:
                    fallback += 1
                    continue
                certified += 1
                assert got == _pencil_candidate(*args)
            try:
                d = decompose(cw)
                got = d.terms, d.flags, d.tie_breaks
                ties += bool(d.tie_breaks)
            except NoDecompositionError as exc:
                got = str(exc)
            ref = _full_scan_decompose(cw)
            assert got.startswith(ref) if isinstance(ref, str) else got == ref
    assert certified and fallback and ties


PAIRING_FIELDS = [(3, 1), (2, 2), (3, 2), (5, 3), (2, 11)]    # q = 3, 4, 9, 125, 2048


@pytest.mark.parametrize("p,h", PAIRING_FIELDS)
def test_plane_pairing_is_the_quotient_row(spaces, p, h):
    """For every point y of PG(1, q), the pairing is the one entry of y's
    row from the primitive, and pairing twice is the identity."""
    sp = spaces(2, p, h)
    perm = _plane_pairing(sp.field)
    ys = np.arange(sp.q + 1)
    assert np.array_equal(perm, sp._orthogonal_indices(1, ys)[:, 0])
    assert np.array_equal(perm[perm], ys)


@pytest.mark.parametrize("p,h", PAIRING_FIELDS)
def test_plane_pencil_counts_match_the_scatter(spaces, p, h):
    """At anchors of random supports, of lines through one point, which tie,
    and of a single point, whose whole pencil ties, the plane's permuted
    counts equal the scatter reference, and the candidate, tie-break
    included, is the one the anchor's pencil row gives."""
    sp = spaces(2, p, h)
    rng = np.random.default_rng(p * 100 + h)
    supports = []
    for size in (5, 3 * sp.q, min(sp.num_points, 30 * sp.q)):
        values = np.zeros(sp.num_points, dtype=np.int16)
        values[rng.choice(sp.num_points, size=size, replace=False)] = \
            rng.integers(1, p, size=size)
        supports.append(values)
    through = np.sort(sp.pencil_indices(7))[:3]
    supports.append(combine(sp, [(int(l), 1) for l in through])[0].values)
    supports.append(np.zeros(sp.num_points, dtype=np.int16))
    supports[-1][11] = 1
    ties = 0
    for values in supports:
        supp = np.flatnonzero(values)
        for pos in {0, len(supp) - 1, *rng.integers(len(supp), size=4).tolist()}:
            args = _anchor_args(sp, supp, values[supp], pos)
            assert np.array_equal(_pencil_counts(sp, args[1], args[3]),
                                  _scatter_counts(sp, args[1], args[3]))
            got = _pencil_candidate(*args)
            assert got == _reference_candidate(*args)
            ties += got[3]
    assert ties


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (5, 1)])
def test_peel_keeps_support_sorted_and_exact(spaces, p, h):
    """After each of a run of seeded peels, some of which revisit earlier
    hyperplanes and list their points in shuffled order, the merged support
    equals a full scan of the residual, and the values are aligned with it."""
    sp = spaces(2, p, h)
    rng = np.random.default_rng(p * 10 + h)
    residual = np.zeros(sp.num_points, dtype=np.int16)
    supp, vals = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int16)
    hyps = rng.integers(0, sp.num_hyperplanes, size=12)
    for hyp in np.concatenate([hyps, hyps[::-1]]):
        alpha = int(rng.integers(1, p))
        pts = np.random.default_rng(int(hyp)).permutation(sp.hyperplane_point_indices(int(hyp)))
        residual[pts] = (residual[pts] - alpha) % p
        supp, vals = _peel(supp, vals, pts, alpha, p)
        assert np.array_equal(supp, np.nonzero(residual)[0])
        assert np.array_equal(vals, residual[supp])


def test_decompose_rejects_non_codeword(spaces):
    sp = spaces(2, 2, 5)
    vals = np.zeros(sp.num_points, dtype=np.int16)
    vals[17] = 1
    with pytest.raises(NoDecompositionError):
        decompose(Codeword(sp, vals))


def test_decompose_zero(spaces):
    sp = spaces(2, 5, 3)
    d = decompose(Codeword(sp, np.zeros(sp.num_points, dtype=np.int16)))
    assert d.m == 0 and d.terms == {}


def test_decompose_out_of_regime_is_flagged(spaces):
    """Five lines exceed W(2,32); best-effort peeling still recovers them."""
    sp = spaces(2, 2, 5)
    cw, _, info = p2_fixtures(sp, "no-hole-line")
    assert weight(cw) == 153 > 132
    d = decompose(cw)
    assert set(d.terms) == set(info["lines"])
    assert "weight-above-W" in d.flags and "best-effort" in d.flags


# ---------------------------------------------------------------------------
# adjacency and refinement
# ---------------------------------------------------------------------------

def test_adjacency_single_block_is_empty(spaces):
    sp = spaces(2, 5, 3)
    cw, d = combine(sp, [(0, 1), (1, 1)])
    fix, history = refine_to_fixpoint(d)
    graph = build_adjacency(d, fix)
    if fix.size == 1:
        assert graph.edges == ()


def test_opposite_pair_merges_to_one_block(spaces):
    """f_H1 - f_H2: every point of the intersection witnesses adjacency."""
    sp = spaces(2, 5, 3)
    cw, d = combine(sp, [(3, 1), (11, 4)])
    fix, history = refine_to_fixpoint(d)
    assert fix.size == 1
    assert fix.blocks == (frozenset({3, 11}),)
    assert len(history) == 2
    rep = verdict(cw)
    assert rep.verdict == VERDICT_MINIMAL


def test_same_sign_pair_stays_split(spaces):
    """f_H1 + f_H2 over p > 2 has no holes on the union: no edges, fixpoint of
    two singletons, empty exceptional holes, hence not minimal."""
    sp = spaces(2, 5, 3)
    cw, d = combine(sp, [(3, 1), (11, 1)])
    fix, _ = refine_to_fixpoint(d)
    assert fix.size == 2
    assert exceptional_holes(d, fix) == ()
    rep = verdict(cw, with_oracle=True)
    assert rep.verdict == VERDICT_NOT_MINIMAL
    _assert_witness_valid(rep.witness, cw)
    assert rep.oracle.minimal is False


def test_refinement_monotone(spaces):
    sp = spaces(2, 5, 3)
    cw, _, info = szonyi_example(sp)
    d = decompose(cw)
    fix, history = refine_to_fixpoint(d)
    assert history[0].generation == 0
    assert all(len(b) == 1 for b in history[0].blocks)
    for earlier, later in zip(history, history[1:]):
        for block in earlier.blocks:
            assert sum(block <= merged for merged in later.blocks) == 1
    assert len(history) - 1 <= d.m - 1


def test_adjacency_witnesses_recheck(spaces):
    """Stored witness points satisfy the three adjacency conditions."""
    sp = spaces(2, 5, 3)
    cw, _, _ = szonyi_example(sp)
    d = decompose(cw)
    part = _make_partition([{h} for h in d.terms], 0)
    graph = build_adjacency(d, part)
    vals = _dense_block_values(d, part)
    for bi, bj, pt in graph.edges:
        assert cw.values[pt] == 0
        assert vals[bi, pt] != 0 and vals[bj, pt] != 0
        others = [b for b in range(part.size) if b not in (bi, bj)]
        assert all(vals[b, pt] == 0 for b in others)


def _dense_block_values(d, partition):
    """Each block's partial combination over every point of the space."""
    return np.array([partial_combination(d, b).values for b in partition.blocks],
                    dtype=np.int64)


def _dense_adjacency(d, partition):
    p = d.space.field.p
    vals = _dense_block_values(d, partition)
    nz = vals != 0
    hole = vals.sum(axis=0) % p == 0
    edges = {}
    for pt in np.nonzero(hole & (nz.sum(axis=0) == 2))[0]:
        a, b = np.nonzero(nz[:, pt])[0]
        edges.setdefault((int(a), int(b)), int(pt))
    return tuple(sorted((a, b, pt) for (a, b), pt in edges.items()))


def _dense_witness(d, fix, holes):
    p = d.space.field.p
    vals = _dense_block_values(d, fix)
    basis = nullspace([vals[:, pt] for pt in holes], p, fix.size)
    chosen = next(v for v in basis if len(set(v)) > 1)
    return (np.asarray(chosen, dtype=np.int64) @ vals) % p


def _check_against_dense(d):
    """Adjacency at every generation, holes and witness agree with a dense
    recomputation from partial_combination; returns whether a witness ran."""
    p = d.space.field.p
    fix, history = refine_to_fixpoint(d)
    for part in history:
        assert build_adjacency(d, part).edges == _dense_adjacency(d, part)
    vals = _dense_block_values(d, fix)
    dense_holes = np.nonzero((vals.sum(axis=0) % p == 0) & (vals != 0).any(axis=0))[0]
    holes = exceptional_holes(d, fix)
    assert holes == tuple(int(i) for i in dense_holes)
    if fix.size < 2 or len(holes) > fix.size - 2:
        return False
    expected = _dense_witness(d, fix, holes)
    assert np.array_equal(build_witness(d, fix, holes).values, expected)
    if len(holes) < fix.size - 2:
        # a hole off the union of the term hyperplanes adds no equation
        on_union = np.zeros(d.space.num_points, dtype=bool)
        for h in d.terms:
            on_union[d.space.hyperplane_point_indices(h)] = True
        off = int(np.argmin(on_union))
        assert np.array_equal(build_witness(d, fix, holes + (off,)).values, expected)
    return True


def test_union_pipeline_matches_dense_recomputation(spaces):
    """Seeded differential check of the union-restricted pipeline."""
    rng = np.random.default_rng(44)
    for key, js in (((2, 2, 5), (2, 3, 5)), ((2, 5, 3), (2, 3, 4, 6, 8)),
                    ((3, 2, 6), (2, 3))):
        sp = spaces(*key)
        witnessed = 0
        for j in js:
            _, d = random_combination(sp, j, rng)
            witnessed += _check_against_dense(d)
        # three hyperplanes through a common point a (a common line in PG(3,q)).
        # p = 2: same sign, so no holes at all.  Odd p: coefficients 1, 1, p-2
        # vanish at a, and a fourth hyperplane misses a, so a is an
        # exceptional hole on three of four singleton blocks.
        a = sp.point_index([1] + [0] * sp.n)
        through = np.sort(sp.pencil_indices(a))
        if sp.n > 2:
            b = sp.point_index([0, 1] + [0] * (sp.n - 1))
            through = np.intersect1d(through, sp.pencil_indices(b))
        terms = [(int(through[0]), 1), (int(through[1]), 1)]
        if sp.field.p == 2:
            terms.append((int(through[2]), 1))
        else:
            terms += [(int(through[2]), sp.field.p - 2),
                      (sp.hyperplane_index([1] + [0] * sp.n), 1)]
        _, d = combine(sp, terms)
        witnessed += _check_against_dense(d)
        assert witnessed >= 1, key

    # 70 singleton blocks: refinement puts no cap on the block count
    sp = spaces(2, 5, 3)
    _, d = random_combination(sp, 70, np.random.default_rng(70))
    fix, history = refine_to_fixpoint(d)
    assert history[0].size == 70
    assert build_adjacency(d, history[0]).edges == _dense_adjacency(d, history[0])
    assert sorted(set().union(*fix.blocks)) == sorted(d.terms)


def _union_values(d: Decomposition, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The dense path that the hole-restricted stages replaced, kept as their
    reference: the sorted union U of the term hyperplanes' points, and one
    int16 row of F_p values on U per block of terms, its partial combination.
    With singleton blocks the rows form the m x |U| term matrix."""
    p = d.space.field.p
    union, positions = d._union_positions()[:2]
    where = dict(zip(d.terms, positions))
    vals = np.zeros((len(blocks), len(union)), dtype=np.int16)
    for row, block in zip(vals, blocks):
        for h in block:
            pos = where[h]
            row[pos] = (row[pos] + d.terms[h]) % p
    return union, vals


def _union_escape(rows, mask, c, p):
    """Values on U of the first null-space vector of rows' masked columns
    whose combination of the rows is not a multiple of c, or None."""
    for beta in nullspace(rows[:, mask].T.tolist(), p, len(rows)):
        values = np.asarray(beta, dtype=np.int64) @ rows.astype(np.int64) % p
        if not _is_scalar_multiple(values, c, p):
            return values
    return None


def _union_reference(d, oracle_cap):
    """History, exceptional holes, witness values on U and oracle
    counterexample values on U, from the dense block rows over U."""
    p = d.space.field.p
    current = _make_partition([{h} for h in d.terms], 0)
    history = [current]
    while True:
        union, vals = _union_values(d, current.blocks)
        c = vals.sum(axis=0, dtype=np.int64) % p
        nz = vals != 0
        edges = {}
        for col in np.flatnonzero((c == 0) & (nz.sum(axis=0) == 2)):
            a, b = np.flatnonzero(nz[:, col])
            edges.setdefault((int(a), int(b)), int(union[col]))
        graph = AdjacencyWitnessGraph(current.size, tuple(
            sorted((a, b, pt) for (a, b), pt in edges.items())))
        merged = _merge_components(current, graph)
        if merged.blocks == current.blocks:
            break
        current = merged
        history.append(current)
    holes = union[(c == 0) & nz.any(axis=0)]
    witness = None
    if 2 <= current.size and len(holes) <= current.size - 2:
        witness = _union_escape(vals, np.isin(union, holes), c, p)
    _, terms = _union_values(d, [{h} for h in d.terms])
    counter = _union_escape(terms != 0, c == 0, c, p) if p ** d.m <= oracle_cap else None
    return history, tuple(int(i) for i in holes), witness, counter


def test_hole_pipeline_matches_union_reference_at_large_m(spaces):
    """At PG(2,2048) with m = 100, the hole-restricted stages give the dense
    path's partition history, exceptional holes, witness and oracle
    counterexample: 100 random lines, one class, and a 100-line pencil,
    whose vertex is the one hole and whose 100 singleton blocks admit both."""
    sp = spaces(2, 2, 11)
    _, rand = random_combination(sp, 100, np.random.default_rng(100))
    _, pencil = combine(sp, [(int(h), 1) for h in np.sort(sp.pencil_indices(7))[:100]])
    witnessed = 0
    for d in (rand, pencil):
        union = d._union_positions()[0]
        history, holes, witness, counter = _union_reference(d, 2 ** 100)
        cw = partial_combination(d, d.terms)
        rep = verdict(cw, decomposition=d)
        assert list(rep.history) == history and rep.exceptional_holes == holes
        if witness is None:
            assert rep.witness is None
        else:
            assert np.array_equal(rep.witness.values[union], witness)
            assert weight(rep.witness) == np.count_nonzero(witness)
            witnessed += 1
        res = oracle_minimal(d, cap=2 ** 100)
        if counter is None:
            assert res.minimal and res.counterexample is None
        else:
            assert np.array_equal(res.counterexample.values[union], counter)
            assert weight(res.counterexample) == np.count_nonzero(counter)
    assert witnessed == 1


def test_verdict_memory_is_not_blocks_times_union(spaces):
    """A verdict on 200 random lines of PG(2,2048) starts at 200 singleton
    blocks over a union of about 3.9e5 points: dense int16 block rows over U
    peaked at 248 MB, rows over the holes alone stay below 100 MB."""
    sp = spaces(2, 2, 11)
    cw, d = random_combination(sp, 200, np.random.default_rng(200))
    tracemalloc.start()
    try:
        verdict(cw, decomposition=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


# ---------------------------------------------------------------------------
# seven-line example
# ---------------------------------------------------------------------------

def test_seven_line_structure(spaces):
    sp = spaces(2, 5, 3)
    cw, _, info = szonyi_example(sp)
    assert weight(cw) <= 7 * (sp.q + 1)
    assert weight(cw) <= 1260  # W(2,125)
    assert cw.values[info["R"]] == 0 and cw.values[info["S"]] == 0
    rep = verdict(cw, with_oracle=True)
    expected = {frozenset(info["r"] + [info["s_prime"]]),
                frozenset(info["s"] + [info["r_prime"]]),
                frozenset([info["t"]])}
    assert set(rep.fixpoint.blocks) == expected
    assert set(rep.exceptional_holes) == {info["R"], info["S"]}
    assert rep.verdict == VERDICT_UNDETERMINED
    assert rep.oracle.minimal is True
    assert rep.oracle.combinations_checked == 5 ** 7


def test_seven_line_requires_p_above_3(spaces):
    with pytest.raises(ValueError):
        szonyi_example(spaces(2, 2, 5))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_build_witness_two_blocks_no_holes(spaces):
    sp = spaces(2, 5, 3)
    cw, d = combine(sp, [(3, 1), (11, 1)])
    fix, _ = refine_to_fixpoint(d)
    w = build_witness(d, fix, [])
    _assert_witness_valid(w, cw)
    # with r = 0 the chosen solution (1, 0) picks out one block's combination
    assert w == partial_combination(d, [3]) or w == partial_combination(d, [11])


def test_verdict_without_witness_is_undetermined(spaces):
    """A decomposition whose hole count allows a witness, but whose hole
    system has only multiples of c as solutions: verdict reports
    Undetermined with "no-witness", and build_witness raises."""
    sp = spaces(4, 2, 1)
    cw, d = combine(sp, [(4, 1), (7, 1), (9, 1), (16, 1), (29, 1)])
    rep = verdict(cw, decomposition=d)
    assert len(rep.exceptional_holes) <= rep.fixpoint.size - 2
    assert rep.verdict == VERDICT_UNDETERMINED and rep.witness is None
    assert "no-witness" in rep.regime_flags
    with pytest.raises(NoWitnessError):
        build_witness(d, rep.fixpoint, rep.exceptional_holes)
    assert oracle_minimal(d).minimal is True


def test_build_witness_precondition(spaces):
    sp = spaces(2, 5, 3)
    cw, _, _ = szonyi_example(sp)
    d = decompose(cw)
    fix, _ = refine_to_fixpoint(d)
    holes = exceptional_holes(d, fix)
    assert len(holes) > fix.size - 2
    with pytest.raises(ValueError):
        build_witness(d, fix, holes)


def test_build_witness_refuses_a_support_point(spaces):
    """The hole system has one column per hole of c: a given point of U
    where c is nonzero is refused, and a point off U adds no equation."""
    sp = spaces(2, 2, 5)
    cw, _, info = p2_fixtures(sp, "pencil")
    d = decompose(cw)
    fix, _ = refine_to_fixpoint(d)
    assert fix.size == 3 and exceptional_holes(d, fix) == ()
    # a point on one line, and the vertex, on all three with value 3 = 1
    for pt in (int(cw.support[-1]), info["vertex"]):
        assert cw.values[pt] != 0
        with pytest.raises(ValueError, match=r"lies on supp\(c\)"):
            build_witness(d, fix, [pt])
    off = int(np.flatnonzero(~np.isin(np.arange(sp.num_points), d._union_positions()[0]))[0])
    assert build_witness(d, fix, [off]) == build_witness(d, fix, [])


def test_p2_pencil_witness_is_single_line(spaces):
    sp = spaces(2, 2, 5)
    cw, _, info = p2_fixtures(sp, "pencil")
    rep = verdict(cw, with_oracle=True)
    assert rep.fixpoint.size == 3
    assert rep.exceptional_holes == ()
    assert rep.verdict == VERDICT_NOT_MINIMAL
    _assert_witness_valid(rep.witness, cw)
    assert weight(rep.witness) == 33  # one line of the pencil
    assert rep.oracle.minimal is False


def test_p2_no_hole_line_corollary_case(spaces):
    """Fixpoint of exactly two blocks: the corollary applies and the witness
    verifies; exceptional holes are forced empty."""
    sp = spaces(2, 2, 5)
    cw, _, info = p2_fixtures(sp, "no-hole-line")
    rep = verdict(cw, with_oracle=True)
    assert rep.fixpoint.size == 2
    assert rep.exceptional_holes == ()
    assert rep.verdict == VERDICT_NOT_MINIMAL
    _assert_witness_valid(rep.witness, cw)
    assert rep.oracle.minimal is False
    assert "weight-above-W" in rep.regime_flags


def test_p2_triangle_observation_recorded(spaces):
    """Three general-position lines at p = 2: no assertion from theory; the
    oracle's answer is recorded (observed minimal for this fixture)."""
    sp = spaces(2, 2, 5)
    l1 = sp.hyperplane_index([1, 0, 0])
    l2 = sp.hyperplane_index([0, 1, 0])
    l3 = sp.hyperplane_index([0, 0, 1])
    cw, d = combine(sp, [(l1, 1), (l2, 1), (l3, 1)])
    res = oracle_minimal(d)
    assert isinstance(res.minimal, bool)
    assert res.combinations_checked == 8


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# The enumeration that `oracle_minimal` replaced, kept as its reference.
def _brute_force_oracle(d: Decomposition, cap: int = DEFAULT_ORACLE_CAP,
                        chunk: int = 1 << 15) -> OracleResult:
    """Brute-force minimality: enumerate every coefficient vector in F_p^m.

    A combination c' of the decomposition's hyperplanes has supp(c') inside
    supp(c) iff it vanishes on every hole of c lying on the union of the
    hyperplanes.  The verdict is exact in the guaranteed regime (support
    subsets cannot involve outside hyperplanes there); otherwise the result
    is flagged heuristic, though a found counterexample is definitive.
    """
    space = d.space
    p = space.field.p
    m = d.m
    total = p ** m
    if total > cap:
        raise OracleCapExceededError(f"p^m = {total} exceeds the oracle cap {cap}")
    wt_c = 0
    flags = []
    if m:
        union, term_matrix = _union_values(d, [{h} for h in d.terms])
        indicator = (term_matrix != 0).astype(np.int64)
        coef = np.array(list(d.terms.values()), dtype=np.int64)
        c_on_union = term_matrix.sum(axis=0) % p
        hole_cols = np.nonzero(c_on_union == 0)[0]
        wt_c = int(np.count_nonzero(c_on_union))
        scalar_rows = {tuple((lam * coef) % p) for lam in range(p)}

        checked = 0
        powers = p ** np.arange(m, dtype=np.int64)
        ind_holes = indicator[:, hole_cols]
        for start in range(0, total, chunk):
            stop = min(total, start + chunk)
            ks = np.arange(start, stop, dtype=np.int64)
            betas = (ks[:, None] // powers[None, :]) % p
            checked = stop
            if len(hole_cols):
                inside = ((betas @ ind_holes) % p == 0).all(axis=1)
            else:
                inside = np.ones(len(ks), dtype=bool)
            for row in np.nonzero(inside)[0]:
                beta = tuple(int(x) for x in betas[row])
                if beta in scalar_rows:
                    continue
                # value-level check: a coefficient mismatch could still give
                # a proportional value vector outside the unique regime
                v = (betas[row] @ indicator) % p
                if any(np.array_equal(v, (lam * c_on_union) % p) for lam in range(p)):
                    continue
                counter = _on_union(space, union, v)
                ctx = BoundContext(space.n, p, space.field.h)
                if bounds.regime_flags(ctx, weight=wt_c):
                    flags.append("heuristic-span-restricted")
                return OracleResult(False, checked, counter, tuple(flags))
    ctx = BoundContext(space.n, p, space.field.h)
    if bounds.regime_flags(ctx, weight=wt_c):
        flags.append("heuristic-span-restricted")
    return OracleResult(True, total, None, tuple(flags))


def _oracle_cases(spaces):
    """Seeded decompositions: random combinations, pencils (hyperplanes
    through a point), codim-2 stars (through a line of PG(3,q), a plane of
    PG(4,q)), both p = 2 fixtures, and the four lines of PG(2,2) that miss
    a point, whose sum is 0 at p = 2."""
    rng = np.random.default_rng(1201)
    for key in ((2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (2, 3, 2),
                (2, 2, 3), (3, 2, 1), (3, 3, 1), (4, 2, 1), (4, 3, 1)):
        sp = spaces(*key)
        p = sp.field.p
        mmax = min(sp.num_hyperplanes, 12 if p == 2 else {3: 7, 5: 5, 7: 4}[p])
        for _ in range(34):
            yield random_combination(sp, int(rng.integers(1, mmax + 1)), rng)[1]
        for k in range(6):
            # k % 3 + 1 points: a pencil, then stars through a line and a plane
            pts = rng.choice(sp.num_points, size=min(k % 3 + 1, sp.n - 1), replace=False)
            through = sp.pencil_indices(int(pts[0]))
            for pt in pts[1:]:
                through = np.intersect1d(through, sp.pencil_indices(int(pt)))
            j = int(rng.integers(2, min(mmax, len(through)) + 1))
            pick = rng.choice(through, size=j, replace=False)
            yield combine(sp, [(int(h), int(rng.integers(1, p))) for h in pick])[1]
    for kind in ("pencil", "no-hole-line"):
        yield decompose(p2_fixtures(spaces(2, 2, 5), kind)[0])
    sp = spaces(2, 2, 1)
    yield Decomposition(sp, {h: 1 for h in range(7) if h not in sp.pencil_indices(0)})


def test_oracle_matches_brute_force(spaces):
    """Differential check of the linear-algebra oracle against the
    enumeration: answer, nominal count, counterexample and flags."""
    cases = minimal = 0
    for d in _oracle_cases(spaces):
        got, want = oracle_minimal(d), _brute_force_oracle(d)
        assert (got.minimal, got.combinations_checked, got.flags) == \
            (want.minimal, want.combinations_checked, want.flags), d
        if want.counterexample is None:
            assert got.counterexample is None
        else:
            assert got.counterexample == want.counterexample, d
        cases += 1
        minimal += got.minimal
    assert cases >= 400 and 0 < minimal < cases


def test_oracle_zero_sum_decomposition(spaces):
    """Terms that sum to the zero codeword: every hole-vanishing combination
    is 0 on U, so the span holds no counterexample."""
    sp = spaces(2, 2, 1)
    d = Decomposition(sp, {h: 1 for h in range(7) if h not in sp.pencil_indices(0)})
    assert d.m == 4 and combine(sp, d.terms.items())[0].is_zero()
    res = oracle_minimal(d)
    assert res.minimal is True and res.combinations_checked == 16
    assert res == _brute_force_oracle(d)


def test_verdict_agrees_with_oracle_at_large_m(spaces):
    """In-regime PG(2,2048) codewords of 30 and 40 lines, beyond any
    enumeration of 2^m vectors: random lines (Minimal) and pencils, whose
    common point is the only hole (NotMinimal)."""
    sp = spaces(2, 2, 11)
    rng = np.random.default_rng(1240)
    seen = set()
    for m in (30, 40):
        _, rand = random_combination(sp, m, rng)
        _, pencil = combine(sp, [(int(h), 1) for h in sp.pencil_indices(7)[:m]])
        for d in (rand, pencil):
            cw = combine(sp, d.terms.items())[0]
            rep = verdict(cw, decomposition=d)
            res = oracle_minimal(d, cap=2 ** 40)
            assert rep.regime_flags == () and res.flags == ()
            assert res.minimal == (rep.verdict == VERDICT_MINIMAL)
            if not res.minimal:
                _assert_witness_valid(res.counterexample, cw)
                _assert_witness_valid(rep.witness, cw)
            seen.add(rep.verdict)
    assert seen == {VERDICT_MINIMAL, VERDICT_NOT_MINIMAL}

def test_oracle_single_term_always_minimal(spaces):
    sp = spaces(2, 5, 3)
    cw, d = combine(sp, [(7, 2)])
    res = oracle_minimal(d)
    assert res.minimal is True
    assert res.combinations_checked == 5


def test_oracle_cap(spaces):
    sp = spaces(2, 5, 3)
    rng = np.random.default_rng(30)
    cw, d = random_combination(sp, 5, rng)
    with pytest.raises(OracleCapExceededError):
        oracle_minimal(d, cap=100)


def test_oracle_counterexample_is_valid(spaces):
    sp = spaces(2, 2, 5)
    cw, _, info = p2_fixtures(sp, "pencil")
    d = decompose(cw)
    res = oracle_minimal(d)
    assert res.minimal is False
    _assert_witness_valid(res.counterexample, cw)


# ---------------------------------------------------------------------------
# verdict plumbing
# ---------------------------------------------------------------------------

def test_verdict_zero_codeword(spaces):
    sp = spaces(2, 5, 3)
    rep = verdict(Codeword(sp, np.zeros(sp.num_points, dtype=np.int16)))
    assert rep.verdict == VERDICT_MINIMAL
    assert "degenerate-zero-codeword" in rep.regime_flags


def test_verdict_single_hyperplane(spaces):
    sp = spaces(2, 5, 3)
    rep = verdict(incidence_codeword(sp, 5))
    assert rep.verdict == VERDICT_MINIMAL
    assert rep.fixpoint.size == 1


def test_verdict_out_of_regime_single_block_undetermined(spaces):
    """q = 16 <= 27: a single-block fixpoint must not claim minimality."""
    sp = spaces(2, 2, 4)
    cw, _ = combine(sp, [(3, 1), (11, 1)])
    rep = verdict(cw, with_oracle=True)
    if rep.fixpoint.size == 1:
        assert rep.verdict == VERDICT_UNDETERMINED
        assert "q<=27" in rep.regime_flags


def test_verdict_refuses_a_decomposition_of_another_codeword(spaces):
    """A decomposition passed to verdict must combine to the codeword, on
    its own space, with no support point of c off the union of its terms;
    otherwise the report would judge a different codeword."""
    sp = spaces(2, 5, 3)
    c1, d1 = combine(sp, [(0, 1), (5, 1)])
    _, d2 = random_combination(sp, 3, np.random.default_rng(14))
    with pytest.raises(ValueError, match="does not combine"):
        verdict(c1, decomposition=d2)
    _, d_far = combine(spaces(2, 2, 5), [(0, 1), (5, 1)])
    with pytest.raises(ValueError, match="another space"):
        verdict(c1, decomposition=d_far)
    union = d1._union_positions()[0]
    vals = c1.values.copy()
    vals[np.setdiff1d(np.arange(sp.num_points), union)[0]] = 1
    with pytest.raises(ValueError, match="does not combine"):
        verdict(Codeword(sp, vals), decomposition=d1)
    assert verdict(c1, decomposition=d1).to_json() == verdict(c1).to_json()


def test_verdict_reads_each_term_hyperplane_once(spaces, monkeypatch):
    """Refinement, holes, witness and an oracle counterexample share one
    union of the term hyperplanes: a verdict on a fresh decomposition asks
    the space for at most m hyperplane point lists."""
    sp = spaces(3, 5, 3)
    cw, d = random_combination(sp, 4, np.random.default_rng(103))
    rows = []
    lookup = sp._orthogonal_indices

    def spy(dim, ys):
        if dim == sp.n:
            rows.extend(int(y) for y in ys)
        return lookup(dim, ys)

    monkeypatch.setattr(sp, "_orthogonal_indices", spy)
    rep = verdict(cw, with_oracle=True, decomposition=d)
    assert rep.verdict == VERDICT_NOT_MINIMAL and rep.oracle.counterexample is not None
    assert len(rows) <= d.m


def test_verdict_sums_c_on_union_once(spaces, monkeypatch):
    """c on U comes from the one sort of the union: in a NotMinimal verdict
    with the oracle, `_union_sum` runs only for the null-space vectors that
    the witness and the oracle try, never for c itself."""
    sp = spaces(3, 5, 3)
    cw, d = random_combination(sp, 4, np.random.default_rng(103))
    sums, tried = [], []
    union_sum = Decomposition._union_sum
    monkeypatch.setattr(Decomposition, "_union_sum",
                        lambda self, coefs: sums.append(1) or union_sum(self, coefs))
    kernel = minimality.nullspace

    def spy(*args):
        for beta in kernel(*args):
            tried.append(beta)
            yield beta

    monkeypatch.setattr(minimality, "nullspace", spy)
    rep = verdict(cw, with_oracle=True, decomposition=d)
    assert rep.verdict == VERDICT_NOT_MINIMAL and rep.oracle.counterexample is not None
    assert len(sums) == len(tried) > 0


def test_report_json_shape(spaces):
    sp = spaces(2, 5, 3)
    cw, _, _ = szonyi_example(sp)
    rep = verdict(cw, with_oracle=True)
    data = rep.to_json()
    assert set(data) == {"decomposition", "partition_history", "fixpoint",
                         "exceptional_holes", "verdict", "witness", "oracle",
                         "regime_flags"}
    assert data["oracle"]["combinations_checked"] == 5 ** 7
    assert data["fixpoint"] == [sorted(b) for b in
                                sorted(rep.fixpoint.blocks, key=min)]
