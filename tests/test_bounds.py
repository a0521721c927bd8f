"""Bound functions, thin/thick classification, and secant spectra."""

import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from pgcodes import (BoundContext, Classification, Codeword, classify, combine, delta,
                     incidence_codeword, max_thin_secant, secant_spectrum,
                     theta, thick_bound_U, weight, weight_bound_W)
from pgcodes import bounds
from pgcodes.bounds import _block_ranges, context_for, regime_flags
from pgcodes.minimality import random_combination, szonyi_example, verdict


def test_theta_conventions():
    assert theta(-1, 5) == 0
    assert theta(-2, 5) == 0
    assert theta(0, 5) == 1
    assert theta(2, 5) == 31
    with pytest.raises(ValueError):
        theta(-3, 5)
    for q in (4, 5, 32):
        for n in range(1, 6):
            assert q * theta(n - 1, q) + 1 == theta(n, q)


def test_delta_values():
    assert delta(3, BoundContext(3, 2, 6)) == 4          # floor(8/2)
    assert delta(2, BoundContext(2, 11, 2)) == 2         # floor(11/4)
    assert delta(3, BoundContext(3, 2, 5)) == 2          # floor(sqrt(32)/2)
    assert delta(2, BoundContext(2, 5, 3)) == 11         # isqrt(125)
    assert delta(1, BoundContext(2, 5, 3)) == 22         # floor(2*sqrt(125))
    assert delta(0, BoundContext(2, 2, 6)) == 32         # floor(4*sqrt(64))
    with pytest.raises(ValueError):
        delta(1, BoundContext(2, 5, 1))
    with pytest.raises(ValueError):
        delta(4, BoundContext(3, 2, 6))


def test_delta_matches_float_free_floor():
    """Against a high-precision floating evaluation (sanity, not the oracle)."""
    for (n, p, h) in ((3, 2, 6), (2, 5, 3), (4, 2, 5), (3, 13, 2), (5, 3, 4)):
        ctx = BoundContext(n, p, h)
        q = ctx.q
        for i in range(0, n + 1):
            got = delta(i, ctx)
            if h == 2:
                assert got == p // 2 ** i
            else:
                exact = math.floor(math.sqrt(q) / 2 ** (i - 2) + 1e-12)
                assert got == exact, (n, p, h, i)


def test_weight_bound_values():
    assert weight_bound_W(3, BoundContext(3, 2, 6)) == 12483
    assert weight_bound_W(2, BoundContext(2, 11, 2)) == 122
    assert weight_bound_W(2, BoundContext(2, 5, 3)) == 1260
    assert weight_bound_W(2, BoundContext(2, 2, 5)) == 132
    # any context with Delta = 1 gives W = 0
    ctx = BoundContext(4, 2, 5)  # Delta_{4,32} = floor(sqrt(32)/4) = 1
    assert delta(4, ctx) == 1
    assert weight_bound_W(4, ctx) == 0


def test_thick_bound_values():
    ctx = BoundContext(3, 2, 6)
    assert thick_bound_U(1, ctx) == 64 + 2 - 4
    assert thick_bound_U(3, ctx) == 253700
    assert thick_bound_U(3, ctx) >= theta(3, 64) - 4 * 64 ** 2 + 1
    with pytest.raises(ValueError):
        thick_bound_U(0, ctx)


def test_thick_lower_bound_sweep():
    """theta_i - Delta*q^(i-1) + 1 <= U(n,i,q) with equality at i = 1, over
    every h >= 2 context with q <= 1024."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for n in range(2, 9):
        for p in primes:
            h = 2
            while p ** h <= 1024:
                ctx = BoundContext(n, p, h)
                q = ctx.q
                dn = delta(n, ctx)
                for i in range(1, n + 1):
                    lhs = theta(i, q) - dn * q ** (i - 1) + 1
                    u = thick_bound_U(i, ctx)
                    assert lhs <= u, (n, p, h, i)
                    if i == 1:
                        assert lhs == u, (n, p, h)
                h += 1


def test_floor_superadditivity_and_delta_halving():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = int(rng.integers(0, 10**6)) / int(rng.integers(1, 1000))
        b = int(rng.integers(0, 10**6)) / int(rng.integers(1, 1000))
        assert math.floor(a) + math.floor(b) <= math.floor(a + b)
    for (n, p, h) in ((3, 2, 6), (3, 5, 3), (4, 2, 8), (3, 11, 2), (4, 3, 4)):
        ctx = BoundContext(n, p, h)
        assert 2 * delta(n, ctx) <= delta(n - 1, ctx)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_points(spaces):
    sp = spaces(2, 2, 5)
    cw = incidence_codeword(sp, 0)
    on = sp.hyperplane_point_indices(0)
    off = next(i for i in range(sp.num_points) if i not in set(on.tolist()))
    hole = sp.span_points([off])
    real = sp.span_points([int(on[0])])
    assert classify(cw, hole) is Classification.THIN
    assert classify(cw, real) is Classification.THICK


def test_classify_lines(spaces):
    sp = spaces(2, 2, 6)  # q = 64
    cw = incidence_codeword(sp, 0)
    on = sp.hyperplane_point_indices(0)
    inside = sp.span_points([int(on[0]), int(on[1])])
    assert classify(cw, inside) is Classification.THICK  # (q+1)-secant
    off = next(i for i in range(sp.num_points) if i not in set(on.tolist()))
    tangent = sp.span_points([int(on[0]), off])
    assert weight_bound_W(1, BoundContext(2, 2, 6)) == 15  # Delta_{1,64} = 16
    assert classify(cw, tangent) is Classification.THIN


def test_classify_lines_between_the_bounds_as_neither(spaces):
    """In PG(2, 16) W(1) = 7 and U(1) = 14: a line with 8 to 13 support
    points is neither thin nor thick."""
    sp = spaces(2, 2, 4)
    ctx = BoundContext(2, 2, 4)
    assert (weight_bound_W(1, ctx), thick_bound_U(1, ctx)) == (7, 14)
    on = np.sort(sp.hyperplane_point_indices(0))
    line = sp.span_points([int(on[0]), int(on[1])])
    for k, want in ((7, Classification.THIN), (8, Classification.NEITHER),
                    (13, Classification.NEITHER), (14, Classification.THICK)):
        vals = np.zeros(sp.num_points, dtype=np.int16)
        vals[on[:k]] = 1
        assert classify(Codeword(sp, vals), line) is want


# ---------------------------------------------------------------------------
# secant spectra
# ---------------------------------------------------------------------------

def test_spectrum_zero_codeword(spaces):
    from pgcodes import Codeword
    sp = spaces(2, 2, 5)
    spec = secant_spectrum(Codeword(sp, np.zeros(sp.num_points, dtype=np.int16)))
    assert spec.histogram == {0: sp.line_count()}


def test_spectrum_single_line(spaces):
    sp = spaces(2, 2, 5)
    spec = secant_spectrum(incidence_codeword(sp, 0))
    assert spec.histogram == {1: 1056, 33: 1}
    assert sum(spec.histogram.values()) == spec.total_lines == 1057
    # the line cap admits exactly the space's line count
    assert secant_spectrum(incidence_codeword(sp, 0), max_lines=1057).histogram == spec.histogram
    with pytest.raises(ValueError, match="line count 1057 exceeds the cap of 1056"):
        secant_spectrum(incidence_codeword(sp, 0), max_lines=1056)


def _lines(sp):
    """Every line of sp once, as its sorted point indices.  In the plane the
    lines are the hyperplanes.  Otherwise point i is joined to each
    direction, a point of PG(n-1, q) with a 0 inserted at i's leading 1, and
    the line is kept where i is its lowest point."""
    if sp.n == 2:
        return [tuple(np.sort(sp.hyperplane_point_indices(h)).tolist())
                for h in range(sp.num_hyperplanes)]
    reps = sp._get_enum(sp.n - 1).table
    dirs = [[sp.point_index(d) for d in np.insert(reps, k, 0, axis=1)]
            for k in range(sp.n + 1)]
    lines = []
    for i in range(sp.num_points):
        for d in dirs[int(np.argmax(sp.point_table[i] != 0))]:
            pts = sp.span_points([i, d]).point_indices
            if pts[0] == i:
                lines.append(pts)
    return lines


def test_line_scan_pg32_against_pair_oracle(spaces):
    """Brute-force oracle: canonical lines from every point pair.  The plane
    PG(2,5) has its 31 lines."""
    sp = spaces(3, 2, 1)
    oracle = set()
    for a, b in combinations(range(sp.num_points), 2):
        oracle.add(sp.span_points([a, b]).point_indices)
    enumerated = _lines(sp)
    assert len(enumerated) == len(set(enumerated)) == 35
    assert set(enumerated) == oracle
    assert len(_lines(spaces(2, 5, 1))) == 31


def _line_scan(sp, cws):
    """Independent oracle: intersect every enumerated line with each support."""
    lines = [np.asarray(ln) for ln in _lines(sp)]
    return [dict(Counter(int(np.count_nonzero(cw.values[ln])) for ln in lines))
            for cw in cws]


def test_spectrum_against_line_scan_oracle(spaces):
    """Planes of order 9, 32, 25 and 27 (91, 1057, 651 and 757 lines); the
    last has odd p and h = 3.  Two threads give the same histogram."""
    for key, j in (((2, 3, 2), 3), ((2, 2, 5), 4), ((2, 5, 2), 3), ((2, 3, 3), 4)):
        sp = spaces(*key)
        rng = np.random.default_rng(9)
        cw, _ = random_combination(sp, j, rng)
        oracle, = _line_scan(sp, [cw])
        assert secant_spectrum(cw).histogram == oracle, key
        assert secant_spectrum(cw, threads=2).histogram == oracle, key


def test_spectrum_general_dimension_against_line_scan(spaces):
    """Seeded codewords in PG(3,4), PG(3,5) and PG(4,3) against a scan of
    every line, at one and two threads.  Three supports probe the split at
    the hyperplane x0 = 0 (index theta(n-1)): that hyperplane itself, wholly
    at infinity; a combination that includes it; and the difference of two
    hyperplanes that meet inside it, which has no point there."""
    for key in ((3, 2, 2), (3, 5, 1), (4, 3, 1)):
        sp = spaces(*key)
        n, p = sp.n, sp.field.p
        inf = sp.theta(n - 1)
        h1, h2, h3 = (sp.hyperplane_index(head + [0] * (n - 1))
                      for head in ([0, 1], [1, 1], [1, 0]))
        cws = [incidence_codeword(sp, inf),
               combine(sp, [(inf, 1), (h1, 1), (h3, p - 1)])[0],
               combine(sp, [(h1, 1), (h2, p - 1)])[0]]
        supp = [np.nonzero(cw.values)[0] for cw in cws]
        assert (supp[0] < inf).all() and (supp[1] < inf).any() and (supp[1] >= inf).any()
        assert len(supp[2]) and not (supp[2] < inf).any()
        rng = np.random.default_rng(10)
        cws += [random_combination(sp, j, rng)[0] for j in (1, 2, 2, 3, 4)]
        for i, (cw, oracle) in enumerate(zip(cws, _line_scan(sp, cws))):
            assert secant_spectrum(cw).histogram == oracle, (key, i)
            assert secant_spectrum(cw, threads=2).histogram == oracle, (key, i)


def test_spectrum_does_not_depend_on_block_size(spaces, monkeypatch):
    """Blocks of 1, 2 and 3 directions, which cut the runs of the last
    coordinate into pieces (equal or not), give the histogram of the default
    blocks, at one and two threads.  Each support has points at infinity."""
    for key in ((2, 3, 3), (3, 2, 2), (3, 5, 1), (4, 3, 1)):
        sp = spaces(*key)
        n, q = sp.n, sp.q
        inf = sp.theta(n - 1)
        rng = np.random.default_rng(12)
        cws = [combine(sp, [(inf, 1), (int(rng.integers(inf, sp.num_points)), 1)])[0]]
        cws += [random_combination(sp, j, rng)[0] for j in (2, 3)]
        for cw in cws:
            expected = secant_spectrum(cw).histogram
            supp = np.nonzero(cw.values)[0]
            assert (supp < inf).any()
            for size in (1, 2, 3):
                entries = size * (int((supp >= inf).sum()) + q ** (n - 1))
                monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", entries)
                for threads in (1, 2):
                    assert secant_spectrum(cw, threads=threads).histogram == expected, \
                        (key, size, threads)
            monkeypatch.undo()


def test_spectrum_threads_are_bounded(spaces, monkeypatch):
    """Fewer than one thread is an error; the pool never exceeds the CPU
    count or the number of direction blocks.  The ranges come from a pure
    helper, so no thread is started here."""
    cw = incidence_codeword(spaces(3, 2, 2), 0)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            secant_spectrum(cw, threads=bad)
    monkeypatch.setattr(bounds.os, "cpu_count", lambda: 4)
    assert _block_ranges(8192, 100000) == [(0, 2048), (2048, 4096),
                                            (4096, 6144), (6144, 8192)]
    assert _block_ranges(10, 3) == [(0, 4), (4, 8), (8, 10)]
    assert _block_ranges(2, 8) == [(0, 1), (1, 2)]
    assert _block_ranges(10, 1) == [(0, 10)]
    monkeypatch.setattr(bounds.os, "cpu_count", lambda: None)
    assert _block_ranges(10, 3) == [(0, 10)]


# ---------------------------------------------------------------------------
# secant spectra from the terms
# ---------------------------------------------------------------------------

def _dispatch(monkeypatch):
    """Tallies, as `secant_spectrum` runs, of the spectra the term path
    answered ("term") or declined ("declined"), and of the point scans."""
    ran = Counter()
    term_counts, line_counts = bounds._term_counts, bounds._line_counts

    def term(c):
        counts = term_counts(c)
        ran["term" if counts is not None else "declined"] += 1
        return counts

    def scan(sp, dim, supp, threads):
        ran["scan"] += dim == sp.n                 # not the levels at infinity
        return line_counts(sp, dim, supp, threads)

    monkeypatch.setattr(bounds, "_term_counts", term)
    monkeypatch.setattr(bounds, "_line_counts", scan)
    return ran


def _flat_pencil(sp):
    """The q + 1 hyperplanes through the codimension-2 space shared by the
    two lowest hyperplanes through point 0."""
    h1, h2 = np.sort(sp.pencil_indices(0))[:2]
    flat = np.intersect1d(sp.hyperplane_point_indices(h1), sp.hyperplane_point_indices(h2))
    through = sp.pencil_indices(int(flat[0]))
    for x in flat[1:]:
        through = np.intersect1d(through, sp.pencil_indices(int(x)))
    assert len(through) == sp.q + 1
    return through.tolist()


def _term_corpus(sp, rng):
    """Combinations with terms: m = 0 (nothing, and two terms that cancel),
    m = 1 (an indicator and a multiple), duplicates that `combine` merges or
    drops, 2, 3 and q + 1 hyperplanes on one codimension-2 flat with
    coefficients 1 and with coefficients that sum to 0 there (A = 0 on the
    lines of the flat), each with 0-2 further terms, and random combinations
    of 2-5 and of q + 3 > q + 1 terms."""
    p, q, top = sp.field.p, sp.q, sp.num_hyperplanes
    h = [int(x) for x in rng.choice(top, size=4, replace=False)]
    out = [combine(sp, [])[0], combine(sp, [(h[0], 1), (h[0], p - 1)])[0],
           incidence_codeword(sp, h[1]), combine(sp, [(h[2], p - 1)])[0],
           combine(sp, [(h[0], 1), (h[0], p - 1), (h[1], 1), (h[1], 1), (h[2], 1), (h[3], 1)])[0]]
    pencil = _flat_pencil(sp)
    for k in (2, 3, len(pencil)):
        cancelling = [[a] + [1] * (k - 2) + [-(a + k - 2) % p] for a in range(1, p)
                      if (a + k - 2) % p]
        for coefs in [[1] * k] + cancelling[:1]:
            for extra in range(3):
                more = rng.choice(top, size=extra, replace=False).tolist()
                out.append(combine(sp, list(zip(pencil[:k], coefs)) + [(x, 1) for x in more])[0])
    for m in (2, 3, 4, 5, q + 3):
        out.append(random_combination(sp, m, rng)[0])
    return out


def test_term_spectrum_matches_point_scan(spaces, monkeypatch):
    """The term path, taken for every codeword, gives the point scan's
    histogram on a copy built from the values, over the corpus of
    `_term_corpus` in the planes of order 2, 3, 4, 7 and 9, PG(3,2),
    PG(3,3), PG(3,4) and PG(4,3), and on the seven-line fixture at q = 7,
    25 and 125."""
    monkeypatch.setattr(bounds, "_TERM_COST", 0)
    ran = _dispatch(monkeypatch)
    rng = np.random.default_rng(25)
    cws = []
    for key in ((2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 7, 1), (2, 3, 2),
                (3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 3, 1)):
        cws += _term_corpus(spaces(*key), rng)
    cws += [szonyi_example(spaces(*key))[0] for key in ((2, 7, 1), (2, 5, 2), (2, 5, 3))]
    ms = Counter(cw._terms.m for cw in cws)
    assert ms[0] and ms[1] and max(ms) > 10
    for i, cw in enumerate(cws):
        sp = cw.space
        scan = secant_spectrum(Codeword(sp, cw.values)).histogram
        assert secant_spectrum(cw).histogram == scan, i
        if cw._terms.m > sp.q + 1:
            assert cw._terms.m not in scan
    assert ran == {"term": len(cws), "scan": len(cws)}


def test_spectrum_dispatch_takes_both_paths(spaces, monkeypatch):
    """At the measured cost constant, few terms against a large weight take
    the term path and many the scan, with the scan's histograms: PG(2,125)
    with 1-8 lines and the seven-line fixture, PG(3,8) with 1-4 planes."""
    ran = _dispatch(monkeypatch)
    rng = np.random.default_rng(26)
    cws = [szonyi_example(spaces(2, 5, 3))[0]]
    cws += [random_combination(spaces(2, 5, 3), m, rng)[0] for m in range(1, 9)]
    cws += [random_combination(spaces(3, 2, 3), m, rng)[0] for m in range(1, 5)]
    for i, cw in enumerate(cws):
        scan = secant_spectrum(Codeword(cw.space, cw.values)).histogram
        assert secant_spectrum(cw).histogram == scan, i
    assert ran["term"] >= 4 and ran["declined"] >= 4
    assert ran["term"] + ran["declined"] == len(cws)
    assert ran["scan"] == len(cws) + ran["declined"]


def test_sums_and_multiples_carry_no_terms(spaces, monkeypatch):
    """`+`, `-` and `scaled` build from values, so they carry no terms and
    take the point scan, which gives the term path's histogram of the same
    codeword built by `combine`."""
    monkeypatch.setattr(bounds, "_TERM_COST", 0)
    ran = _dispatch(monkeypatch)
    sp = spaces(3, 3, 1)
    h1, h2, h3 = 5, 17, 30
    a, _ = combine(sp, [(h1, 1), (h2, 2)])
    b, _ = combine(sp, [(h3, 1)])
    pairs = [(a + b, combine(sp, [(h1, 1), (h2, 2), (h3, 1)])[0]),
             (a - b, combine(sp, [(h1, 1), (h2, 2), (h3, 2)])[0]),
             (a.scaled(2), combine(sp, [(h1, 2), (h2, 1)])[0])]
    for built, combined in pairs:
        assert built._terms is None and combined._terms is not None
        assert built == combined
        assert secant_spectrum(built).histogram == secant_spectrum(combined).histogram
    assert ran == {"scan": 3, "term": 3}


def test_term_spectrum_memory_stays_in_blocks(spaces, monkeypatch):
    """Four planes of PG(3,64): about 380 points of U, nearly all walked
    alone over their 4161 lines, some 6.3e6 (line, term) entries.  Blocks of
    2^14 entries keep the traced peak below 2 MB; blocks of 2^18 reached
    10 MB, and the point scan of the same codeword 3.7 MB."""
    monkeypatch.setattr(bounds, "_TERM_COST", 0)
    ran = _dispatch(monkeypatch)
    sp = spaces(3, 2, 6)
    cw, _ = random_combination(sp, 4, np.random.default_rng(601))
    tracemalloc.start()
    try:
        secant_spectrum(cw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == {"term": 1}
    assert peak < 2e6


def test_many_terms_are_declined_before_their_rows(spaces, monkeypatch):
    """3000 lines of PG(2,256): their 771000 row entries, sorted at once to
    find U, traced a 23 MB peak before the cost check declined them.  The
    term path now declines before building them, and the spectrum stays at
    the point scan's 4.5 MB."""
    ran = _dispatch(monkeypatch)
    sp = spaces(2, 2, 8)
    cw, _ = random_combination(sp, 3000, np.random.default_rng(25))
    assert cw._terms.m * (sp.q + 1) > bounds._CHUNK_ENTRIES
    tracemalloc.start()
    try:
        secant_spectrum(cw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == {"declined": 1, "scan": 1}
    assert peak < 6e6


def test_line_cap_comes_before_the_term_path(spaces, monkeypatch):
    """PG(3,125) has 246 million lines, over the default cap: two planes
    are refused with the scan's message, and no term work is done."""
    ran = _dispatch(monkeypatch)
    sp = spaces(3, 5, 3)
    cw, _ = combine(sp, [(3, 1), (40000, 2)])
    message = f"line count {sp.line_count()} exceeds the cap of {bounds.SPECTRUM_LINE_CAP}"
    for c in (cw, Codeword(sp, cw.values)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            secant_spectrum(c)
    assert not ran


def test_secant_gap_and_dichotomy_q32(spaces):
    """No secant sizes inside [Delta+1, q-Delta+1]; every line thin or thick."""
    sp = spaces(2, 2, 5)
    ctx = BoundContext(2, 2, 5)
    dn, w1, u1 = delta(2, ctx), weight_bound_W(1, ctx), thick_bound_U(1, ctx)
    rng = np.random.default_rng(11)
    for _ in range(10):
        j = int(rng.integers(1, 5))
        cw, _ = random_combination(sp, j, rng)
        if weight(cw) > weight_bound_W(2, ctx):
            continue
        spec = secant_spectrum(cw)
        for s, k in spec.histogram.items():
            if not k:
                continue
            assert not (dn + 1 <= s <= sp.q - dn + 1), f"{s}-secant in the gap"
            assert s <= w1 or s >= u1, f"{s}-secant is neither thin nor thick"


def test_secant_gap_pg3_32_single_hyperplane(spaces):
    """In-regime fixture for n=3, q=32: W(3,32) = theta_2 admits one term."""
    sp = spaces(3, 2, 5)
    ctx = BoundContext(3, 2, 5)
    assert weight_bound_W(3, ctx) == 1057
    cw = incidence_codeword(sp, 77)
    spec = secant_spectrum(cw)
    assert set(spec.histogram) <= {0, 1, 33}
    assert spec.histogram[33] == 1057 * 1056 // (33 * 32)  # lines inside the plane
    dn = delta(3, ctx)
    for s, k in spec.histogram.items():
        if k:
            assert not (dn + 1 <= s <= sp.q - dn + 1)


def test_max_thin_secant(spaces, gf_rank):
    from pgcodes import Codeword
    sp = spaces(2, 2, 5)
    assert max_thin_secant(Codeword(sp, np.zeros(sp.num_points, dtype=np.int16))) == 0
    assert max_thin_secant(incidence_codeword(sp, 0)) == 1
    # j lines in general position: the maximum thin secant size is j
    rng = np.random.default_rng(12)
    for j in (2, 3, 4):
        while True:
            cw, d = random_combination(sp, j, rng)
            rows = sp.point_table[sorted(d.terms)]
            if gf_rank(sp.field, rows) == min(j, 3) and weight(cw) == j * 33 - 2 * (j * (j - 1) // 2):
                break
        assert max_thin_secant(cw) == j
        assert max_thin_secant(cw, spectrum=secant_spectrum(cw)) == j


def test_stale_context_arguments_are_refused(spaces):
    """The regime context comes from the codeword, and the parameters after
    it are keyword-only, so a context passed where it used to go is refused
    rather than read as `with_oracle` or as the spectrum."""
    sp = spaces(2, 2, 5)
    cw = incidence_codeword(sp, 0)
    ctx = context_for(cw)
    with pytest.raises(TypeError):
        verdict(cw, ctx)
    with pytest.raises(TypeError):
        max_thin_secant(cw, ctx)


def test_regime_flags():
    assert regime_flags(BoundContext(2, 5, 3)) == []
    assert regime_flags(BoundContext(3, 2, 6)) == []
    assert "h=1" in regime_flags(BoundContext(2, 5, 1))
    assert "q<=27" in regime_flags(BoundContext(2, 5, 2))
    # n = 5, h > 2 needs q >= 2^(2n-4) = 64
    assert "size-assumption" in regime_flags(BoundContext(5, 2, 5))
    assert regime_flags(BoundContext(4, 2, 6)) == []
    ctx = BoundContext(3, 5, 2)  # q = 25 <= 27 and below 2^(2n) = 64
    flags = regime_flags(ctx)
    assert "q<=27" in flags and "size-assumption" in flags
    assert "weight-above-W" in regime_flags(BoundContext(2, 2, 5), weight=200)
    assert regime_flags(BoundContext(2, 2, 5), weight=100) == []
