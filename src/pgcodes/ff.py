"""Finite field arithmetic for GF(p^h) and exact linear algebra mod p.

Field elements are encoded as integers in [0, q), q = p^h: the element with
coefficient vector (c0, c1, ..., c_{h-1}) in the polynomial basis is stored
as c0 + c1*p + ... + c_{h-1}*p^(h-1).  This serialisation is stable across
runs, so everything downstream (point indices, reports, fixtures) is
reproducible bit for bit.

For table-sized fields the module precomputes dense lookup tables
(exp/log, inverses, and q x q add/mul tables) so that the geometry layer
can run field arithmetic on whole numpy arrays via gathers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# Full q x q add/mul tables are built up to this size; inverse and exp/log
# tables up to _INV_TABLE_CAP.  Beyond that, scalar polynomial arithmetic
# still works but vectorised operations are refused.
_PAIR_TABLE_CAP = 4096
_INV_TABLE_CAP = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p.  Coefficient lists are little-endian
# (index i holds the coefficient of x^i) and always trimmed.
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = _ptrim(list(a))
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        shift = len(a) - 1 - df
        factor = (a[-1] * inv_lead) % p
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - factor * fi) % p
        _ptrim(a)
    return a


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base, e: int, f, p: int) -> list[int]:
    result = [1]
    acc = _pmod(list(base), f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, acc, f, p)
        acc = _pmulmod(acc, acc, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _poly_inverse(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """Inverse of a mod f via the extended Euclidean algorithm."""
    r0, r1 = _ptrim(list(f)), _pmod(a, f, p)
    if not r1:
        raise ZeroDivisionError("inverse of zero field element")
    s0, s1 = [], [1]
    while r1:
        # r0 = qt * r1 + r2 computed by long division
        qt = []
        rem = list(r0)
        inv_lead = pow(r1[-1], -1, p)
        while len(rem) >= len(r1) and rem:
            shift = len(rem) - len(r1)
            factor = (rem[-1] * inv_lead) % p
            while len(qt) <= shift:
                qt.append(0)
            qt[shift] = factor
            for i, ci in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - factor * ci) % p
            _ptrim(rem)
        r0, r1 = r1, rem
        q_s1 = _pmul(qt, s1, p)
        new_s = [0] * max(len(s0), len(q_s1))
        for i in range(len(new_s)):
            v0 = s0[i] if i < len(s0) else 0
            v1 = q_s1[i] if i < len(q_s1) else 0
            new_s[i] = (v0 - v1) % p
        s0, s1 = s1, _ptrim(new_s)
    # r0 is now gcd = nonzero constant
    c_inv = pow(r0[0], -1, p)
    return _ptrim([(c_inv * ci) % p for ci in s0])


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_p.

    Uses the classic criterion: f of degree h is irreducible iff
    x^(p^h) = x (mod f) and gcd(x^(p^(h/l)) - x, f) = 1 for every prime l | h.
    """
    f = _ptrim(list(modulus))
    h = len(f) - 1
    if h <= 0:
        return False
    if h == 1:
        return True
    x = [0, 1]
    xq = _ppowmod(x, p ** h, f, p)
    if xq != [0, 1]:  # x^(p^h) must reduce to x itself (h >= 2 here)
        return False
    for ell in _prime_factors(h):
        t = _ppowmod(x, p ** (h // ell), f, p)
        tm = list(t)
        while len(tm) < 2:
            tm.append(0)
        tm[1] = (tm[1] - 1) % p
        g = _pgcd(tm, f, p)
        if len(g) - 1 != 0:
            return False
    return True


def lowest_irreducible(p: int, h: int) -> list[int]:
    """Monic irreducible of degree h over F_p with the smallest serialisation.

    The search order is the integer encoding sum(a_i p^i) of the non-leading
    coefficients, so the choice is deterministic and matches the element
    serialisation convention.
    """
    if h == 1:
        return [0, 1]  # the polynomial x
    for code in range(p ** h):
        coeffs = []
        c = code
        for _ in range(h):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {h} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Extension field GF(p^h)
# ---------------------------------------------------------------------------

class Field:
    """GF(p^h) in the polynomial basis mod a monic irreducible.

    Elements are integers in [0, q).  Scalar arithmetic is always available;
    the vectorised entry points (`add_v`, `mul_v`, ...) require the lookup
    tables and are the workhorses of the geometry layer.
    """

    def __init__(self, p: int, h: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if h < 1:
            raise ValueError("extension degree h must be >= 1")
        self.p = p
        self.h = h
        self.q = p ** h
        if modulus is None:
            modulus = lowest_irreducible(p, h)
        modulus = [c % p for c in modulus]
        if len(modulus) != h + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree h")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1

        self._digits = None
        self._exp = None
        self._log = None
        self._inv = None
        self._neg = None
        self._add = None
        self._mul = None
        if self.q <= _INV_TABLE_CAP:
            self._build_tables()
            self._spot_check_order()
            for tbl in (self._digits, self._exp, self._log, self._inv,
                        self._neg, self._add, self._mul):
                if tbl is not None:
                    tbl.setflags(write=False)

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        """Integer code of a coefficient vector (c0 least significant)."""
        if len(coeffs) > self.h:
            raise ValueError("coefficient vector longer than h")
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    def decode(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    # -- table construction --------------------------------------------------

    def _scalar_mul_poly(self, a: int, b: int) -> int:
        prod = _pmulmod(list(self.decode(a)), list(self.decode(b)),
                        list(self.modulus), self.p)
        return self.encode(prod + [0] * (self.h - len(prod)))

    def _build_tables(self):
        p, h, q = self.p, self.h, self.q
        codes = np.arange(q, dtype=np.int64)
        digits = np.empty((q, h), dtype=np.int16)
        c = codes.copy()
        for i in range(h):
            digits[:, i] = c % p
            c //= p
        self._digits = digits
        pw = (p ** np.arange(h)).astype(np.int64)
        self._neg = (((p - digits) % p).astype(np.int64) @ pw).astype(np.int32)

        # exp/log from the lowest multiplicative generator: g generates iff
        # g^((q-1)/r) != 1 for every prime r dividing q - 1
        exp = np.zeros(2 * max(q - 1, 1), dtype=np.int32)
        log = np.zeros(q, dtype=np.int64)
        if q == 2:
            exp[:] = 1
            log[1] = 0
        else:
            f = list(self.modulus)
            gen = next((g for g in range(2, q)
                        if all(_ppowmod(list(self.decode(g)), (q - 1) // r, f, p) != [1]
                               for r in _prime_factors(q - 1))), None)
            if gen is None:
                raise RuntimeError("no generator found; modulus is not irreducible?")
            cur = 1
            for k in range(q - 1):
                exp[k] = cur
                log[cur] = k
                cur = self._scalar_mul_poly(cur, gen)
            exp[q - 1:2 * (q - 1)] = exp[:q - 1]
        self._exp = exp
        self._log = log
        inv = np.zeros(q, dtype=np.int32)
        if q == 2:
            inv[1] = 1
        else:
            nz = np.arange(1, q)
            inv[1:] = exp[(q - 1 - log[nz]) % (q - 1)]
        self._inv = inv

        if q <= _PAIR_TABLE_CAP:
            # mul via exp/log outer sum; zero row/col forced to 0
            lg = log.copy()
            mul = np.zeros((q, q), dtype=np.int16)
            if q > 2:
                mul[1:, 1:] = exp[(lg[1:, None] + lg[None, 1:]) % (q - 1)].astype(np.int16)
            else:
                mul[1, 1] = 1
            self._mul = mul
            add = np.empty((q, q), dtype=np.int16)
            chunk = max(1, (1 << 22) // (q * h + 1))
            for start in range(0, q, chunk):
                stop = min(q, start + chunk)
                s = (digits[start:stop, None, :].astype(np.int64)
                     + digits[None, :, :].astype(np.int64)) % p
                add[start:stop] = (s @ pw).astype(np.int16)
            self._add = add

    def _spot_check_order(self):
        # sampled nonzero elements must have multiplicative order dividing q-1
        rng = np.random.default_rng(0)
        samples = {1, self.q - 1}
        if self.q > 3:
            samples.update(int(x) for x in rng.integers(1, self.q, size=8))
        for a in samples:
            if self.pow_(a, self.q - 1) != 1:
                raise RuntimeError("field self-check failed: bad element order")

    # -- scalar ops ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return int(self._add[a, b])
        return self.encode([(x + y) % self.p for x, y in
                            zip(self.decode(a), self.decode(b))])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return int(self._neg[a])
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return int(self._mul[a, b])
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return int(self._exp[self._log[a] + self._log[b]])
        return self._scalar_mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._inv is not None:
            return int(self._inv[a])
        coeffs = _poly_inverse(list(self.decode(a)), list(self.modulus), self.p)
        return self.encode(coeffs + [0] * (self.h - len(coeffs)))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result, acc = 1, a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- vector ops (numpy) ---------------------------------------------------

    @property
    def has_vector_tables(self) -> bool:
        return self._add is not None and self._mul is not None

    def _require_tables(self):
        if not self.has_vector_tables:
            raise RuntimeError(
                f"q = {self.q} exceeds the dense-table cap ({_PAIR_TABLE_CAP}); "
                "vectorised field ops unavailable")

    def add_v(self, a, b):
        self._require_tables()
        return self._add[a, b]

    def mul_v(self, a, b):
        self._require_tables()
        return self._mul[a, b]

    def inv_v(self, a):
        """Vectorised inverse; maps 0 to 0 (callers guard zero rows)."""
        self._require_tables()
        return self._inv[a]

    @property
    def add_table(self):
        self._require_tables()
        return self._add

    @property
    def mul_table(self):
        self._require_tables()
        return self._mul

    @property
    def inv_table(self):
        self._require_tables()
        return self._inv

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, h={self.h}, q={self.q})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.h, self.modulus) == (other.p, other.h, other.modulus))

    def __hash__(self):
        return hash((self.p, self.h, self.modulus))


def field_make(p: int, h: int, modulus: Optional[Sequence[int]] = None) -> Field:
    """Build GF(p^h); the modulus defaults to the lowest-lex monic irreducible."""
    return Field(p, h, modulus)


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------

def _rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr][c] % p != 0:
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(inv * v) % p for v in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] % p != 0:
                f = m[rr][c]
                m[rr] = [(v - f * w) % p for v, w in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[int]], p: int, cols: int) -> list[tuple[int, ...]]:
    """Basis of the right null space {x in F_p^cols : rows x = 0}.

    Entries are reduced mod p.  One basis vector per free column: the free
    variable is set to 1, the other free variables to 0, and the pivot
    variables are read off the reduced echelon form.  Returns [] iff the null
    space is trivial.
    """
    rows = [[int(v) % p for v in r] for r in rows]
    if any(len(r) != cols for r in rows):
        raise ValueError(f"every row must have {cols} entries")
    rref, pivots = _rref_mod_p(rows, p)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for r_i, c_i in enumerate(pivots):
            v[c_i] = (-rref[r_i][f]) % p
        basis.append(tuple(v))
    return basis
