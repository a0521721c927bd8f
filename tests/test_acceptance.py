"""Acceptance criteria, one test per criterion, all exact.

Each test prints a PASS line with its measured runtime; the stated budgets
are asserted with the original limits.
"""

import time

import numpy as np
import pytest

from pgcodes import (BoundContext, classify, combine, decompose, delta,
                     p2_fixtures, secant_spectrum, szonyi_example, theta,
                     thick_bound_U, verdict, weight, weight_bound_W)
from pgcodes.bounds import Classification, regime_flags
from pgcodes.minimality import (VERDICT_MINIMAL, VERDICT_NOT_MINIMAL,
                                VERDICT_UNDETERMINED, _is_scalar_multiple,
                                oracle_minimal, random_combination)

SPACE_KEYS = [(n, p, h) for n in (2, 3) for (p, h) in ((2, 5), (2, 6), (5, 3))]
# (p, h) -> q: (2,5)=32, (2,6)=64, (5,3)=125


def _report(num, label, t0):
    print(f"ACCEPTANCE {num} PASS: {label} [{time.time() - t0:.2f}s]")


def test_criterion_1_minimum_weight(spaces):
    """Scalar multiples of hyperplanes weigh exactly theta(n-1); 50 random
    hyperplanes per space, q in {32, 64, 125}, n in {2, 3}; < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for (n, p, h) in SPACE_KEYS:
        sp = spaces(n, p, h)
        expect = theta(n - 1, sp.q)
        hs = rng.choice(sp.num_hyperplanes, size=50, replace=False)
        for hidx in hs:
            alpha = int(rng.integers(1, p))
            cw, _ = combine(sp, [(int(hidx), alpha)])
            assert weight(cw) == expect, (n, sp.q, int(hidx))
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    _report(1, "minimum-weight codewords are hyperplanes (6 spaces x 50)", t0)


def test_criterion_2_two_hyperplane_difference(spaces):
    """Differences of two distinct hyperplanes weigh exactly 2 q^(n-1);
    25 random pairs per space; < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    for (n, p, h) in SPACE_KEYS:
        sp = spaces(n, p, h)
        expect = 2 * sp.q ** (n - 1)
        for _ in range(25):
            h1, h2 = (int(x) for x in rng.choice(sp.num_hyperplanes, size=2,
                                                 replace=False))
            cw, _ = combine(sp, [(h1, 1), (h2, p - 1)])
            assert weight(cw) == expect, (n, sp.q, h1, h2)
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    _report(2, "two-hyperplane differences weigh 2q^(n-1) (6 spaces x 25)", t0)


@pytest.mark.parametrize("key", [(2, 5, 3), (3, 2, 6)])
def test_criterion_3_roundtrip(spaces, key):
    """decompose recovers the exact term multiset of 100 random combinations
    of j <= Delta - 1 hyperplanes, with exactly ceil(wt/theta(n-1)) terms;
    < 5 min at (3, 64)."""
    t0 = time.time()
    n, p, h = key
    sp = spaces(n, p, h)
    ctx = BoundContext(n, p, h)
    jmax = delta(n, ctx) - 1
    theta_h = theta(n - 1, sp.q)
    rng = np.random.default_rng(103)
    for _ in range(100):
        j = int(rng.integers(1, jmax + 1))
        cw, d_true = random_combination(sp, j, rng)
        d = decompose(cw)
        assert d.terms == d_true.terms, "term multiset not recovered"
        assert d.m == -(-weight(cw) // theta_h), "term count != ceil(wt/theta)"
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 3 exceeded budget: {elapsed:.1f}s"
    _report(3, f"decompose round-trip x100 at (n={n}, q={sp.q})", t0)


@pytest.mark.parametrize("key", [(2, 2, 5), (2, 5, 3)])
def test_criterion_4_secant_gap(spaces, key):
    """Full line scans: zero mass on secant sizes in [Delta+1, q-Delta+1] and
    every line classifies Thin or Thick, never Neither; < 2 min."""
    t0 = time.time()
    n, p, h = key
    sp = spaces(n, p, h)
    ctx = BoundContext(n, p, h)
    dn = delta(n, ctx)
    w1 = weight_bound_W(1, ctx)
    u1 = thick_bound_U(1, ctx)
    rng = np.random.default_rng(104)
    for _ in range(10):
        j = int(rng.integers(1, delta(n, ctx)))
        cw, _ = random_combination(sp, j, rng)
        assert weight(cw) <= weight_bound_W(n, ctx)
        spec = secant_spectrum(cw)
        assert sum(spec.histogram.values()) == spec.total_lines
        for s, k in spec.histogram.items():
            if k == 0:
                continue
            assert not (dn + 1 <= s <= sp.q - dn + 1), f"{s}-secant in the gap"
            assert s <= w1 or s >= u1, f"{s}-secant neither thin nor thick"
        # exercise classify() itself on a sample of actual lines
        for hidx in rng.choice(sp.num_hyperplanes, size=25, replace=False):
            pts = sp.hyperplane_point_indices(int(hidx))
            line = sp.span_points([int(pts[0]), int(pts[1])])
            assert classify(cw, line) is not Classification.NEITHER
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 4 exceeded budget: {elapsed:.1f}s"
    _report(4, f"secant gap + thin/thick dichotomy at (2, {sp.q})", t0)


def test_criterion_5_thick_lower_bound():
    """theta_i - Delta q^(i-1) + 1 <= U(n,i,q) for 1 <= i <= n, with equality
    at i = 1, over all supported contexts with q <= 2^10; < 1 s."""
    t0 = time.time()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    contexts = 0
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
                contexts += 1
                h += 1
    elapsed = time.time() - t0
    assert elapsed < 1, f"criterion 5 exceeded budget: {elapsed:.2f}s"
    _report(5, f"thick-space lower bound over {contexts} contexts", t0)


def test_criterion_6_seven_line_example(spaces):
    """Graph machinery on the seven-line configuration at q = 125: the quoted
    3-block fixpoint, exceptional holes {R, S}, Undetermined by the theorems,
    Minimal by the 5^7-combination oracle; < 1 min."""
    t0 = time.time()
    sp = spaces(2, 5, 3)
    cw, _, info = szonyi_example(sp)
    rep = verdict(cw, with_oracle=True)
    expected_blocks = {frozenset(info["r"] + [info["s_prime"]]),
                       frozenset(info["s"] + [info["r_prime"]]),
                       frozenset([info["t"]])}
    assert set(rep.fixpoint.blocks) == expected_blocks
    assert set(rep.exceptional_holes) == {info["R"], info["S"]}
    assert rep.verdict == VERDICT_UNDETERMINED
    assert rep.oracle.minimal is True
    assert rep.oracle.combinations_checked == 5 ** 7
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 6 exceeded budget: {elapsed:.1f}s"
    _report(6, "seven-line fixpoint/holes/oracle at q=125", t0)


def test_criterion_7_non_minimality_constructions(spaces):
    """NotMinimal where the theorems apply; every witness re-verifies support
    containment and non-proportionality; the oracle concurs; < 1 min."""
    t0 = time.time()
    sp32 = spaces(2, 2, 5)
    sp125 = spaces(2, 5, 3)
    cases = []
    for kind in ("pencil", "no-hole-line"):
        cw, _, _ = p2_fixtures(sp32, kind)
        cases.append((kind, cw))
    # in-regime two-block instance: same-sign pair of lines at q = 125
    cw125, _ = combine(sp125, [(2, 1), (40, 1)])
    cases.append(("two-block-pair-q125", cw125))
    for label, cw in cases:
        rep = verdict(cw, with_oracle=True)
        assert rep.verdict == VERDICT_NOT_MINIMAL, label
        w = rep.witness
        assert w is not None, label
        assert not np.any((w.values != 0) & (cw.values == 0)), label
        assert not _is_scalar_multiple(w.values, cw.values, cw.space.field.p), label
        assert rep.oracle.minimal is False, label
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 7 exceeded budget: {elapsed:.1f}s"
    _report(7, "non-minimal constructions with verified witnesses (3 cases)", t0)


def test_criterion_8_oracle_soundness(spaces):
    """On 20 in-regime fixtures with p^m <= 10^6, theorem-path verdicts never
    contradict the exhaustive oracle; < 5 min."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    plan = ([(2, 5, 3, j) for j in range(1, 9)]        # 5^j <= 5^8 < 10^6
            + [(2, 2, 5, j) for j in (1, 2, 3, 4, 2, 3)]
            + [(3, 2, 6, j) for j in (1, 2, 3, 1, 2, 3)])
    assert len(plan) == 20
    agreements = 0
    for (n, p, h, j) in plan:
        sp = spaces(n, p, h)
        ctx = BoundContext(n, p, h)
        cw, _ = random_combination(sp, j, rng)
        assert regime_flags(ctx, weight=weight(cw)) == [], "fixture out of regime"
        assert p ** j <= 10 ** 6
        rep = verdict(cw, with_oracle=True)
        if rep.verdict == VERDICT_MINIMAL:
            assert rep.oracle.minimal is True, (n, p, h, j)
            agreements += 1
        elif rep.verdict == VERDICT_NOT_MINIMAL:
            assert rep.oracle.minimal is False, (n, p, h, j)
            w = rep.witness
            assert not np.any((w.values != 0) & (cw.values == 0))
            agreements += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 8 exceeded budget: {elapsed:.1f}s"
    _report(8, f"oracle never contradicted over 20 fixtures "
               f"({agreements} decided by theorems)", t0)
