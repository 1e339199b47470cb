"""Polynomials in Z[x][y] as integer coefficient rows, and the
subresultant remainder sequence on them (Collins, J. ACM 18, 1971).

A polynomial is a list of rows in y, highest power first; each row is a
polynomial in x, a dense list of ints, lowest power first, with no
trailing zeros (the zero row is []).  The pseudo-remainders of the
sequence stay in Z[x][y] and every quotient by its recurrence scalars is
exact in Z[x], so it runs on plain int arithmetic.  arith builds the
resultant and both gcds on it, and embedding's injectivity test reads
its rows straight off the curve into _resultant.
"""

from __future__ import annotations


def _zmul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[x]; the leading coefficient never cancels.  A constant
    operand, such as the y-leading coefficient of a difference quotient,
    is one scaling."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        (u,), b = (a, b) if len(a) == 1 else (b, a)
        return [u * v for v in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b, i):
                out[j] += u * v
    return out


def _zpow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _zmul(out, a)
    return out


def _zneg(a: list[int]) -> list[int]:
    return [-u for u in a]


def _zcross(a: list[int], c: list[int], b: list[int], e: list[int]) -> list[int]:
    """a*c - b*e in Z[x], with trailing zeros stripped."""
    out = _zmul(a, c)
    be = _zmul(b, e)
    if len(out) < len(be):
        out += [0] * (len(be) - len(out))
    for k, v in enumerate(be):
        out[k] -= v
    while out and not out[-1]:
        out.pop()
    return out


def _zquo(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x] for nonzero b; raises ValueError unless b divides a
    exactly, so a quotient is never truncated."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            raise ValueError("inexact polynomial division")
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ValueError("inexact polynomial division")
    return q


def _prem(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder of rows: lc(g)^(deg f - deg g + 1) * f modulo g."""
    dg = len(g) - 1
    lc_g = g[0]
    r = f
    n = len(f) - dg
    while len(r) > dg:
        lc_r = r[0]
        n -= 1
        r = [_zcross(r[k], lc_g, g[k] if k <= dg else [], lc_r) for k in range(1, len(r))]
        while r and not r[0]:
            r = r[1:]
    if n:
        scale = _zpow(lc_g, n)
        r = [_zmul(row, scale) for row in r]
    return r


def _subresultants(f: list[list[int]], g: list[list[int]]):
    """Subresultant remainder sequence of rows f and g, deg f >= deg g >= 0,
    both nonzero.

    Returns (h, s): the last nonzero remainder and its scalar
    subresultant, which is the resultant when h has degree 0.
    """
    m = len(g) - 1
    d = len(f) - 1 - m
    h = _prem(f, g)
    if d % 2 == 0:
        h = [_zneg(row) for row in h]
    lc = g[0]
    s = _zpow(lc, d)
    c = _zneg(s)
    while h:
        k = len(h) - 1
        f, g, m, d = g, h, k, m - k
        b = _zneg(_zmul(lc, _zpow(c, d)))
        h = [_zquo(row, b) for row in _prem(f, g)]
        lc = g[0]
        c = _zquo(_zpow(_zneg(lc), d), _zpow(c, d - 1)) if d > 1 else _zneg(lc)
        s = _zneg(c)
    return g, s


def _resultant(f: list[list[int]], g: list[list[int]]) -> list[int]:
    """Resultant in y of rows f and g, both of positive degree in y, with
    the sign of the Sylvester matrix with f on top; [] when it vanishes."""
    if len(f) >= len(g):
        h, s = _subresultants(f, g)
    else:
        h, s = _subresultants(g, f)
        if (len(f) - 1) * (len(g) - 1) % 2:
            s = _zneg(s)
    return [] if len(h) > 1 else s
