"""Field arithmetic and mod-p linear algebra."""

import hashlib
import math

import numpy as np
import pytest

from pgcodes import ff, field_make, nullspace
from pgcodes.ff import is_irreducible, is_prime, lowest_irreducible

# SHA-256 of modulus, dtype, shape and bytes of the exp, add, mul, inv and neg
# tables of the fields below.  It was computed with the earlier build (a
# per-element exp loop and int64 digit sums), so it does not depend on the
# doubling and digit-wise builds it checks.
TABLES_SHA256 = "161a9c5de954e749066d0ad0aee61c032067c9d7f68e3180a681e1c6694a221d"
TABLE_FIELDS = [(2, 1), (3, 1), (2, 6), (11, 2), (5, 3), (2, 11), (3, 7), (7, 4),
                (5, 5), (4093, 1), (2, 12)]


def _psub(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ff._ptrim([(u - v) % p for u, v in zip(a, b)])


def _pgcd(a, b, p):
    while b:
        a, b = b, ff._pmod(a, b, p)
    return a


def rabin_irreducible(f, p):
    """Rabin's criterion, the reference for trial division: a monic f of
    degree h >= 1 over F_p is irreducible iff x^(p^h) = x (mod f) and
    gcd(x^(p^(h/l)) - x, f) = 1 for every prime l | h."""
    h = len(f) - 1
    x = ff._pmod([0, 1], f, p)

    def frobenius_minus_x(e):
        return _psub(ff._ppowmod([0, 1], p ** e, f, p), x, p)

    return (not frobenius_minus_x(h)
            and all(len(_pgcd(f, frobenius_minus_x(h // ell), p)) == 1
                    for ell in ff._prime_factors(h)))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2 ** 13 - 1)


def test_is_prime_miller_rabin():
    """Miller-Rabin to the bases 2 .. 41 agrees with a sieve below 20000,
    proves p = 2^61 - 1 prime and three strong pseudoprimes to the small
    bases composite, and refuses the prime 2^89 - 1, above its exact range."""
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [is_prime(n) for n in range(20000)] == sieve
    assert is_prime(2 ** 61 - 1)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(ValueError, match=str(ff._MR_BOUND)):
        is_prime(2 ** 89 - 1)


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_make(4, 2)
    with pytest.raises(ValueError):
        field_make(5, 0)
    # the modulus is fixed by (p, h); a caller cannot pass one
    with pytest.raises(TypeError):
        field_make(5, 2, modulus=[1, 0, 1])


def test_default_modulus_is_tested_for_irreducibility_once(monkeypatch):
    """The field build tests exactly the candidates of the lowest-lex search."""
    calls = []
    test = ff.is_irreducible
    monkeypatch.setattr(ff, "is_irreducible", lambda f, p: calls.append(f) or test(f, p))
    ff.lowest_irreducible(2, 6)
    searched = list(calls)
    assert field_make(2, 6).modulus == tuple(calls[-1])
    assert calls == 2 * searched


def test_trial_division_against_rabin():
    """is_irreducible agrees with Rabin's criterion on all 2052 monic
    polynomials of degree <= 8, 5, 4 and 3 over F_2, F_3, F_5 and F_7, and
    lowest_irreducible with a Rabin search on all 604 fields with q <= 4096."""
    checked = 0
    for p, top in ((2, 8), (3, 5), (5, 4), (7, 3)):
        for h in range(1, top + 1):
            for code in range(p ** h):
                f = ff._monic(code, h, p)
                assert is_irreducible(f, p) == rabin_irreducible(f, p), (f, p)
                checked += 1
    assert checked == 2052
    assert not is_irreducible([1], 5)
    fields = [(p, h) for p in range(2, ff.MAX_Q + 1) if is_prime(p)
              for h in range(1, 13) if p ** h <= ff.MAX_Q]
    assert len(fields) == 604
    for p, h in fields:
        want = next(f for f in (ff._monic(code, h, p) for code in range(p ** h))
                    if rabin_irreducible(f, p))
        assert lowest_irreducible(p, h) == want, (p, h)


@pytest.mark.parametrize("p,h", [(2, 13), (4099, 1), (2, 10 ** 9), (2 ** 61 - 1, 1)])
def test_field_above_max_q_is_refused_before_any_work(monkeypatch, p, h):
    """q > 4096 is refused before the primality test, the irreducible search
    or any table build, so even a 19-digit p or h = 10^9 fails at once."""
    def unreachable(*args):
        raise AssertionError("work done on a refused field")
    for name in ("is_prime", "lowest_irreducible", "is_irreducible"):
        monkeypatch.setattr(ff, name, unreachable)
    monkeypatch.setattr(ff.Field, "_build_tables", unreachable)
    with pytest.raises(ValueError, match="4096"):
        field_make(p, h)


def test_tables_digest():
    """The tables of q in {2, 3, 64, 121, 125, 2048, 2187, 2401, 3125, 4093,
    4096} are byte-identical to a pinned build."""
    digest = hashlib.sha256()
    for p, h in TABLE_FIELDS:
        f = field_make(p, h)
        digest.update(repr(f.modulus).encode())
        # exp over two periods and negation by -1 = p - 1, as int32
        for t in (f.exp_z[:2 * (f.q - 1)].astype(np.int32), f.add_table, f.mul_table,
                  f.inv_table, f.mul_table[f.p - 1].astype(np.int32)):
            digest.update(t.dtype.str.encode())
            digest.update(repr(t.shape).encode())
            digest.update(t.tobytes())
    assert digest.hexdigest() == TABLES_SHA256


@pytest.mark.parametrize("p,h", [(2, 11), (3, 7), (7, 3)])
def test_tables_against_polynomial_arithmetic(p, h):
    """Sampled mul_table entries equal the polynomial product mod the modulus,
    and add_table entries the digit-wise sum mod p."""
    f = field_make(p, h)
    rng = np.random.default_rng(4)
    for a, b in rng.integers(0, f.q, size=(300, 2)).tolist():
        prod = ff._pmulmod(list(f.decode(a)), list(f.decode(b)), list(f.modulus), p)
        assert int(f.mul_table[a, b]) == f.encode(prod)
        assert int(f.add_table[a, b]) == f.encode(
            [(x + y) % p for x, y in zip(f.decode(a), f.decode(b))])


def test_default_modulus_is_lowest_lex_irreducible():
    # GF(8): x^3 + x + 1 serialises below x^3 + x^2 + 1
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    # GF(125): the smallest irreducibles x^3+2, x^3+3, x^3+4 all have roots
    assert field_make(5, 3).modulus == (1, 1, 0, 1)
    assert is_irreducible(list(lowest_irreducible(3, 4)), 3)


def test_gf2_characteristic():
    f = field_make(2, 1)
    assert f.add(1, 1) == 0


def test_gf125_multiplicative_order():
    f = field_make(5, 3)
    for a in (1, 2, 17, 93, 124):
        assert f.pow_(a, 124) == 1


def test_generator_is_lowest_primitive_element():
    """For every field with q <= 256, exp[1] is the smallest element of
    multiplicative order q - 1, found by walking each element's powers."""
    for q in range(2, 257):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        h = round(math.log(q, p))
        if p ** h != q:
            continue
        f = field_make(p, h)

        def order(g):
            k, cur = 1, g
            while cur != 1:
                cur, k = f.mul(cur, g), k + 1
            return k

        assert int(f.exp_z[1]) == next(g for g in range(1, q) if order(g) == q - 1), q


def test_gf32_inverses_exhaustive_with_search_oracle():
    """Compare inv() against an independently searched inverse table."""
    f = field_make(2, 5)
    for a in range(1, 32):
        expected = next(b for b in range(1, 32) if f.mul(a, b) == 1)
        assert f.inv(a) == expected
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,h", [(2, 5), (5, 3), (3, 4), (11, 2), (3, 5)])
def test_field_axioms(p, h):
    """Associativity, distributivity, inverses: exhaustive for q <= 128,
    sampled above."""
    f = field_make(p, h)
    q = f.q
    add, mul = f.add_table, f.mul_table
    if q <= 128:
        a = np.arange(q)[:, None, None]
        b = np.arange(q)[None, :, None]
        c = np.arange(q)[None, None, :]
        assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
        nz = np.arange(1, q)
        assert np.array_equal(mul[nz, f.inv_table[nz]], np.ones(q - 1, dtype=np.int16))
    else:
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(0, q, size=3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,h", [(2, 5), (5, 3), (3, 4)])
def test_frobenius(p, h):
    f = field_make(p, h)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = (int(x) for x in rng.integers(0, f.q, size=2))
        assert f.pow_(f.add(a, b), p) == f.add(f.pow_(a, p), f.pow_(b, p))


def test_encode_decode_roundtrip():
    f = field_make(5, 3)
    for a in range(f.q):
        assert f.encode(f.decode(a)) == a
    assert f.decode(0) == (0, 0, 0)
    assert f.encode([2, 1]) == 7


def test_scalar_and_vector_ops_agree():
    f = field_make(5, 3)
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.q, size=100)
    b = rng.integers(0, f.q, size=100)
    va = f.add_table[a, b]
    vm = f.mul_table[a, b]
    for i in range(100):
        assert int(va[i]) == f.add(int(a[i]), int(b[i]))
        assert int(vm[i]) == f.mul(int(a[i]), int(b[i]))


ADD_FIELDS = [(2, 1), (2, 7), (3, 1), (3, 4), (5, 3), (7, 1), (7, 2)]


@pytest.mark.parametrize("p,h", ADD_FIELDS)
def test_array_add_against_add_table(p, h):
    """array_add equals add_table on every pair, q <= 128, p in {2, 3, 5, 7},
    as int16 for int16, int64 and mixed operands."""
    f = field_make(p, h)
    a = np.repeat(np.arange(f.q), f.q)
    b = np.tile(np.arange(f.q), f.q)
    want = f.add_table[a, b]
    for ta, tb in ((np.int16, np.int16), (np.int64, np.int64), (np.int64, np.int16)):
        got = f.array_add(a.astype(ta), b.astype(tb))
        assert got.dtype == np.int16
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,h", [(2, 11), (3, 7), (7, 4)])
def test_array_add_sampled_and_broadcast(p, h):
    """Sampled pairs at q = 2048, 2187 and 2401, and broadcast shapes
    (column against row, a 3-D slab, a 0-d operand) against add_table."""
    f = field_make(p, h)
    rng = np.random.default_rng(5)
    a = rng.integers(0, f.q, size=20_000)
    b = rng.integers(0, f.q, size=20_000).astype(np.int16)
    assert np.array_equal(f.array_add(a, b), f.add_table[a, b])
    col, row = a[:40, None], b[None, :30]
    assert np.array_equal(f.array_add(col, row), f.add_table[col, row])
    slab_a, slab_b = a[:60].reshape(3, 20, 1), b[:15].reshape(3, 1, 5)
    assert np.array_equal(f.array_add(slab_a, slab_b), f.add_table[slab_a, slab_b])
    assert np.array_equal(f.array_add(np.int16(7), b), f.add_table[7, b])


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 6), (5, 2), (7, 2), (3, 3)])
def test_log_domain_division(p, h):
    """exp_z[log a - log b + q - 1] == a / b for every a and nonzero b at
    q <= 64, including a = 0, with log 0 the sentinel 2(q - 1)."""
    f = field_make(p, h)
    q = f.q
    assert int(f.log_table[0]) == 2 * (q - 1)
    assert len(f.exp_z) == 3 * q - 2
    assert not f.log_table.flags.writeable and not f.exp_z.flags.writeable
    for a in range(q):
        for b in range(1, q):
            got = int(f.exp_z[int(f.log_table[a]) - int(f.log_table[b]) + q - 1])
            assert got == f.mul(a, f.inv(b)), (a, b)


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_single_equation():
    basis = nullspace([[1, 1]], 5, 2)
    assert basis == [(4, 1)]


def test_nullspace_no_equations_gives_standard_basis():
    basis = nullspace([], 7, 4)
    assert basis == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_nullspace_trivial_kernel():
    assert nullspace([[1, 0], [0, 1]], 3, 2) == []


def _mat_vec(rows, x, p):
    return [sum(r * v for r, v in zip(row, x)) % p for row in rows]


@pytest.mark.parametrize("p,rows", [
    (7, [[1, 2, 3, 4], [2, 4, 1, 0]]),
    (3, [[1, 1, 1, 0, 2], [0, 1, 2, 1, 1], [1, 2, 0, 1, 0]]),
    (2, [[1, 1, 0, 0], [0, 0, 1, 1]]),
])
def test_nullspace_against_exhaustive_kernel(p, rows):
    """Kernel size and membership verified by enumerating all of F_p^cols."""
    import itertools
    cols = len(rows[0])
    basis = nullspace(rows, p, cols)
    for vec in basis:
        assert _mat_vec(rows, vec, p) == [0] * len(rows)
    kernel = [x for x in itertools.product(range(p), repeat=cols)
              if _mat_vec(rows, x, p) == [0] * len(rows)]
    assert len(kernel) == p ** len(basis)
    # every kernel vector is a combination of the basis: spot-check by rank
    span = set()
    for coefs in itertools.product(range(p), repeat=len(basis)):
        v = tuple(sum(c * b[i] for c, b in zip(coefs, basis)) % p
                  for i in range(cols))
        span.add(v)
    assert span == set(kernel)


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(ValueError):
        nullspace([[1, 2], [3]], 5, 2)
