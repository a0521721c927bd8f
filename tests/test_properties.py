"""Property tests over small spaces and the guaranteed regime.

Each property is run on a fixed, derandomised set of drawn examples, so the
suite stays deterministic.
"""

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from pgcodes import bounds, combine, decompose, field_make, space_make, verdict, weight
from pgcodes.ff import MAX_Q, is_irreducible, is_prime
from pgcodes.minimality import (VERDICT_MINIMAL, VERDICT_NOT_MINIMAL, _certified_candidate,
                                _histogram, _pencil_candidate, _pencil_counts)
from test_ff import rabin_irreducible
from test_minimality import _reference_candidate, _scatter_counts

PROPERTY_SETTINGS = dict(derandomize=True, database=None, deadline=None)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]    # q <= 9
# in the regime: h >= 2, q > 27, and the size assumption at n = 3
REGIME_SPACES = [(2, 2, 5), (2, 2, 6), (2, 5, 3), (3, 2, 5)]
PRIMES = [p for p in range(2, MAX_Q + 1) if is_prime(p)]


@lru_cache(maxsize=None)
def _space(n, p, h):
    return space_make(n, field_make(p, h))


@st.composite
def combinations(draw, spaces, max_terms):
    """A space from `spaces` and distinct hyperplanes with nonzero coefficients."""
    sp = _space(*draw(st.sampled_from(spaces)))
    hyperplanes = draw(st.lists(st.integers(0, sp.num_hyperplanes - 1),
                                min_size=1, max_size=max_terms, unique=True))
    p = sp.field.p
    return sp, {h: draw(st.integers(1, p - 1)) for h in hyperplanes}


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations([(n, p, h) for n in (2, 3) for p, h in SMALL_FIELDS], 6))
def test_spectrum_counts_lines_incidences_and_pairs(drawn):
    """The secant spectrum {s: k_s} counts every line once, each support
    point on its theta(n-1) lines, and each ordered pair of support points
    on its one line."""
    sp, terms = drawn
    cw, _ = combine(sp, terms.items())
    wt = weight(cw)
    hist = bounds.secant_spectrum(cw).histogram
    assert sum(hist.values()) == sp.line_count()
    assert sum(s * k for s, k in hist.items()) == wt * sp.theta(sp.n - 1)
    assert sum(s * (s - 1) * k for s, k in hist.items()) == wt * (wt - 1)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture],
          **PROPERTY_SETTINGS)
@given(combinations([(n, p, h) for n in (2, 3) for p, h in SMALL_FIELDS]
                    + [(4, 2, 1), (4, 3, 1)], 8))
def test_term_spectrum_is_the_point_scans(monkeypatch, drawn):
    """The spectrum a combination's terms give, with no cost test, is the
    point scan's of its values, hist[0] aside, which both leave to
    subtraction.  The monkeypatch only sets the cost constant to 0, the
    same for every example."""
    monkeypatch.setattr(bounds, "_TERM_COST", 0)
    sp, terms = drawn
    cw, _ = combine(sp, terms.items())
    counts = bounds._term_counts(cw)
    scan = bounds._line_counts(sp, sp.n, cw.support, threads=1)
    assert np.array_equal(counts[1:], scan[1:])


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations(REGIME_SPACES, 6))
def test_decompose_inverts_combine_in_regime(drawn):
    """Inside the regime the decomposition of a combination is its terms."""
    sp, terms = drawn
    cw, _ = combine(sp, terms.items())
    assume(not bounds.regime_flags(bounds.context_for(cw), weight=weight(cw)))
    assert decompose(cw).terms == terms


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations([(3, p, h) for p, h in SMALL_FIELDS] + [(4, 2, 1), (4, 3, 1), (4, 2, 2)], 4),
       st.data())
def test_certified_candidate_is_the_full_pencils(drawn, data):
    """Wherever the certificate holds, at an anchor of a combination with a
    few points overwritten, it is the full pencil's (count, hyperplane,
    value), and the full path reports no tie."""
    sp, terms = drawn
    values = combine(sp, terms.items())[0].values.copy()
    points = data.draw(st.lists(st.integers(0, sp.num_points - 1), max_size=3))
    values[points] = data.draw(st.lists(st.integers(0, sp.field.p - 1),
                                        min_size=len(points), max_size=len(points)))
    supp = np.flatnonzero(values)
    assume(len(supp))
    pos = data.draw(st.integers(0, len(supp) - 1))
    args = (sp, _histogram(sp, supp, values[supp], pos), int(supp[pos]), int(values[supp[pos]]))
    got = _certified_candidate(*args)
    if got is not None:
        assert got == _pencil_candidate(*args)


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations([(2, p, h) for p, h in SMALL_FIELDS] + [(2, 2, 5), (2, 5, 3)], 4),
       st.data())
def test_plane_pencil_counts_are_the_scatters(drawn, data):
    """In the plane, at an anchor of a combination with a few points
    overwritten, the permuted histogram is the scatter reference's counts,
    and the candidate, tie-break included, the one the pencil row gives."""
    sp, terms = drawn
    values = combine(sp, terms.items())[0].values.copy()
    points = data.draw(st.lists(st.integers(0, sp.num_points - 1), max_size=3))
    values[points] = data.draw(st.lists(st.integers(0, sp.field.p - 1),
                                        min_size=len(points), max_size=len(points)))
    supp = np.flatnonzero(values)
    assume(len(supp))
    pos = data.draw(st.integers(0, len(supp) - 1))
    hist, val = _histogram(sp, supp, values[supp], pos), int(values[supp[pos]])
    assert np.array_equal(_pencil_counts(sp, hist, val), _scatter_counts(sp, hist, val))
    args = (sp, hist, int(supp[pos]), val)
    assert _pencil_candidate(*args) == _reference_candidate(*args)


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations([(2, p, h) for p, h in SMALL_FIELDS] + [(2, 2, 5), (2, 5, 3)], 6))
def test_decided_verdict_agrees_with_the_oracle(drawn):
    """On the decomposition `combine` built, a Minimal verdict has no oracle
    counterexample and a NotMinimal one has; its witness lies in supp(c)
    and is no multiple of c.  p^m stays under the oracle cap: 7^6 < 10^8."""
    sp, terms = drawn
    cw, d = combine(sp, terms.items())
    assume(weight(cw))
    report = verdict(cw, with_oracle=True, decomposition=d)
    if report.verdict == VERDICT_MINIMAL:
        assert report.oracle.minimal
    elif report.verdict == VERDICT_NOT_MINIMAL:
        assert not report.oracle.minimal
        w, c, p = report.witness.values, cw.values, sp.field.p
        assert not np.any(w[c == 0])
        assert all(np.any(w != lam * c % p) for lam in range(p))


@st.composite
def monic_polynomials(draw):
    """A monic polynomial of degree h >= 1 over F_p, p^h <= MAX_Q."""
    h = draw(st.integers(1, 12))
    p = draw(st.sampled_from([p for p in PRIMES if p ** h <= MAX_Q]))
    return p, draw(st.lists(st.integers(0, p - 1), min_size=h, max_size=h)) + [1]


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(monic_polynomials())
def test_trial_division_agrees_with_rabin(drawn):
    p, f = drawn
    assert is_irreducible(f, p) == rabin_irreducible(f, p)
