"""Finite field arithmetic for GF(p^h) and exact linear algebra mod p.

Field elements are encoded as integers in [0, q), q = p^h: the element with
coefficient vector (c0, c1, ..., c_{h-1}) in the polynomial basis is stored
as c0 + c1*p + ... + c_{h-1}*p^(h-1).  This serialisation is stable across
runs, so everything downstream (point indices, reports, fixtures) is
reproducible bit for bit.

There is one representation.  Fields are accepted up to q = MAX_Q = 4096
and refused above it when constructed.  Every accepted field carries the
same dense lookup tables (inverses, and q x q add/mul tables), so the
geometry layer runs field arithmetic on whole numpy arrays via gathers, and
each scalar op is one table read.  Two O(q) log-domain tables divide whole
arrays: `log_table` (discrete logs to the generator, with log 0 the
sentinel 2(q - 1)) and `exp_z` (the exp table over two periods followed by
zeros), so exp_z[log a - log b + q - 1] is a / b, and 0 when a = 0.
Arrays are added by `Field.array_add` alone: XOR when p = 2, where the
encoding's base-2 digits add without carry, and otherwise one flat gather
from `add_table`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

# The largest field order accepted; every field gets full q x q tables.
MAX_Q = 4096


# Miller-Rabin to the first 13 prime bases is exact below _MR_BOUND
# (Sorenson and Webster, 2015); above it, a round can only prove n composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality of n < _MR_BOUND: trial division by the bases,
    then Miller-Rabin to each.  An n >= _MR_BOUND that passes every round is
    refused with a ValueError, since no round proves it prime."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1         # n - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        # n passes round a iff a^d = 1 or a^(2^r d) = -1 for some r < s
        if x != 1 and n - 1 not in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x):
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"p = {n} passes Miller-Rabin to the bases 2 .. 41, which "
                         f"proves primality only below {_MR_BOUND}")
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


def _monic(code: int, d: int, p: int) -> list[int]:
    """The monic polynomial of degree d whose lower coefficients serialise to code."""
    return [(code // p ** i) % p for i in range(d)] + [1]


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division: a monic f of degree h over F_p is irreducible iff
    h >= 1 and no monic polynomial of degree 1 .. h // 2 divides it."""
    h = len(f) - 1
    return h >= 1 and all(_pmod(f, _monic(code, d, p), p)
                          for d in range(1, h // 2 + 1) for code in range(p ** d))


def lowest_irreducible(p: int, h: int) -> list[int]:
    """Monic irreducible of degree h over F_p with the smallest serialisation.

    The search order is the integer encoding sum(a_i p^i) of the non-leading
    coefficients, so the choice is deterministic and matches the element
    serialisation convention.
    """
    return next(f for f in (_monic(code, h, p) for code in range(p ** h))
                if is_irreducible(f, p))


# ---------------------------------------------------------------------------
# Extension field GF(p^h)
# ---------------------------------------------------------------------------

class Field:
    """GF(p^h), q = p^h <= MAX_Q, in the polynomial basis mod `modulus`.

    `modulus` is lowest_irreducible(p, h); callers cannot set it.  Elements
    are integers in [0, q).  Every field carries the same read-only lookup
    tables: `add_table` and `mul_table` (q x q int16) and `inv_table`
    (int32, 0 maps to 0) do arithmetic on whole numpy arrays by gathers, and
    each scalar op is one read of a table.  `log_table` (q entries, int16,
    log 0 = 2(q - 1)) and `exp_z` (3q - 2 entries, int16) divide in the log
    domain: exp_z[log_table[a] - log_table[b] + q - 1] == a / b for b != 0,
    and 0 for a = 0.  `array_add` adds arrays: a ^ b when p = 2, else
    add_table.ravel()[a * q + b].
    """

    def __init__(self, p: int, h: int):
        if h < 1:
            raise ValueError("extension degree h must be >= 1")
        if p < 2:
            raise ValueError(f"p = {p} is not prime")
        # constant time for any p and h: with h < 13 and p <= MAX_Q, p^h is small
        if p > MAX_Q or h >= MAX_Q.bit_length() or p ** h > MAX_Q:
            raise ValueError(f"GF({p}^{h}) is larger than the largest supported "
                             f"field, q = {MAX_Q}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.h = h
        self.q = p ** h
        self.modulus = tuple(lowest_irreducible(p, h))
        self._build_tables()
        self._spot_check_order()

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

    def _build_tables(self):
        p, h, q = self.p, self.h, self.q
        f = list(self.modulus)
        # the lowest g with g^((q-1)/r) != 1 for every prime r | q - 1 generates
        # the multiplicative group (g = 1 when q = 2)
        factors = _prime_factors(q - 1)
        gen = next(g for g in range(1, q)
                   if all(_ppowmod(list(self.decode(g)), (q - 1) // r, f, p) != [1]
                          for r in factors))

        # exp over two periods, by doubling: exp[k + 2^i] = exp[k] * g^(2^i).
        # Row j of `step` holds the digits of g^(2^i) * x^j, so a row of digits
        # times `step` is that product; squaring `step` moves to 2^(i+1).
        step = np.zeros((h, h), dtype=np.int64)
        for j in range(h):
            row = _pmulmod(list(self.decode(gen)), [0] * j + [1], f, p)
            step[j, :len(row)] = row
        digits = np.zeros((1, h), dtype=np.int64)
        digits[0, 0] = 1
        while len(digits) < 2 * (q - 1):
            digits = np.vstack([digits, digits @ step % p])
            step = step @ step % p
        exp = (digits[:2 * (q - 1)] @ p ** np.arange(h)).astype(np.int32)
        log = np.zeros(q, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1)
        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = exp[q - 1 - log[1:]]

        # log a + log b < 2(q - 1) indexes the doubled exp; int16 keeps the
        # q x q index and result at two bytes an entry
        log16 = log.astype(np.int16)
        mul = exp.astype(np.int16)[log16[:, None] + log16[None, :]]
        mul[0, :] = 0
        mul[:, 0] = 0

        # one base-p digit at a time: with a = p*a' + a0,
        # add[a, b] = p * add[a', b'] + (a0 + b0) % p
        d = np.arange(p, dtype=np.int16)
        low = (d[:, None] + d[None, :]) % p
        add = np.zeros((1, 1), dtype=np.int16)
        for _ in range(h):
            m = len(add)
            add = (p * add[:, None, :, None] + low[:, None, :]).reshape(m * p, m * p)

        # log 0 is the sentinel 2(q - 1): minus any log b <= q - 2, plus
        # q - 1, it lands in the zero tail of exp_z, whose other indices
        # 1 .. 2q - 3 read the doubled exp
        log16[0] = 2 * (q - 1)
        exp_z = np.zeros(3 * q - 2, dtype=np.int16)
        exp_z[:2 * (q - 1)] = exp

        self.add_table = add
        self.mul_table = mul
        self.inv_table = inv
        self.log_table = log16
        self.exp_z = exp_z
        for tbl in (add, mul, inv, log16, exp_z):
            tbl.setflags(write=False)

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
        return int(self.add_table[a, b])

    def array_add(self, a, b) -> np.ndarray:
        """Elementwise a + b of broadcastable arrays of elements, as int16.

        The one array add: in characteristic 2 the base-2 digits of the
        encoding add without carry, so a + b is a ^ b; otherwise it is one
        gather from the flattened add_table at a * q + b.
        """
        if self.p == 2:
            return np.bitwise_xor(a, b, dtype=np.int16)
        return self.add_table.ravel()[np.multiply(a, self.q, dtype=np.intp) + b]

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self.inv_table[a])

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

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, h={self.h}, q={self.q})"


def field_make(p: int, h: int) -> Field:
    """Build GF(p^h) modulo the lowest-lex monic irreducible of degree h."""
    return Field(p, h)


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
