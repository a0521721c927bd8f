import pytest

from pgcodes import field_make, space_make


@pytest.fixture(scope="session")
def spaces():
    """Session-wide cache of projective spaces keyed by (n, p, h)."""
    cache = {}

    def get(n, p, h):
        key = (n, p, h)
        if key not in cache:
            cache[key] = space_make(n, field_make(p, h))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fields():
    cache = {}

    def get(p, h):
        if (p, h) not in cache:
            cache[(p, h)] = field_make(p, h)
        return cache[(p, h)]

    return get


@pytest.fixture(scope="session")
def gf_rank():
    """Rank over GF(q) of coordinate rows, by Gauss-Jordan elimination."""

    def rank(field, rows):
        m = [[int(v) for v in r] for r in rows]
        r = 0
        for col in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][col]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = field.inv(m[r][col])
            m[r] = [field.mul(inv, v) for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][col]:
                    fac = field.mul(field.p - 1, m[i][col])     # -1 is encoded as p - 1
                    m[i] = [field.add(v, field.mul(fac, w)) for v, w in zip(m[i], m[r])]
            r += 1
        return r

    return rank
