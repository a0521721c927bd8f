"""Property tests over small spaces and the guaranteed regime.

Each property is run on a fixed, derandomised set of drawn examples, so the
suite stays deterministic.
"""

from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

from pgcodes import bounds, combine, decompose, field_make, space_make, weight
from pgcodes.ff import MAX_Q, is_irreducible, is_prime
from test_ff import rabin_irreducible

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


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(combinations(REGIME_SPACES, 6))
def test_decompose_inverts_combine_in_regime(drawn):
    """Inside the regime the decomposition of a combination is its terms."""
    sp, terms = drawn
    cw, _ = combine(sp, terms.items())
    assume(not bounds.regime_flags(bounds.context_for(cw), weight=weight(cw)))
    assert decompose(cw).terms == terms


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
