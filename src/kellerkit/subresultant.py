"""The subresultant remainder sequence (Collins, J. ACM 18, 1971) on
polynomials in Z[x][y] whose rows in y, highest first, are each packed
into one int at x = X = 2^(8*nb) (kronecker.py).  x -> X is a ring map
Z[x] -> Z and every division of the sequence is exact, so it runs on
CPython ints; callers pack their rows and unpack only the output.

The zero tests are preserved.  Control flow tests leading coefficients,
and remainders after their division by beta, for zero.  These and the
output are coefficients of subresultants S_j of f and g, deg_y m >= n:
minors of the Sylvester matrix on n - j rows of f and m - j of g.  By
Goldstein and Graham (SIAM Review 16, 1974) their coefficients are at
most M_j, M_j^2 = sf^(n-j) * sg^(m-j), sf and sg the sums of the squared
1-norms of f's and g's rows, and M_j <= M_0.  In cells of
cell_bytes(isqrt(M_0^2) + 1) bytes a nonzero one never packs to 0 and
unpacks exactly; a remainder before its division may exceed the bound
and is never tested.  A long first pseudo-division (m - n >= 2) runs at
the smaller cells of M_(n-1), the bound on its output, which moves with
g to M_0's cells after it.  Callers read both answers off one run: the
resultant, or the last remainder, which arith._primitive_part turns into
the gcd's primitive part.  Rows in Z[x] are {i: n} term dicts, as in
BiPoly._t; gcd_univariate's rows are constants, ints already.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .kronecker import cell_bytes, digits


def _zquo(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a / b in Z[x] for nonzero b; raises ValueError unless b divides a
    exactly, so a quotient is never truncated."""
    db = max(b)
    lb, low = b[db], [(i, n) for i, n in b.items() if i < db]
    r, q = dict(a), {}
    for k in range(max(a, default=-1) - db, -1, -1):
        c, m = divmod(r.pop(k + db, 0), lb)
        if m:
            raise ValueError("inexact polynomial division")
        if c:
            q[k] = c
            for i, n in low:
                r[k + i] = r.get(k + i, 0) - c * n
    if any(r.values()):
        raise ValueError("inexact polynomial division")
    return q


def _cells(f_norms: list[int], g_norms: list[int]) -> tuple[int, int]:
    """(first, last): nb for the sequence of f and g, in either order, from
    the 1-norms of their rows: last holds M_0 and a sign bit, first M_(n-1)
    when the first pseudo-division is long, else M_0 too."""
    if len(f_norms) < len(g_norms):
        f_norms, g_norms = g_norms, f_norms
    m, n = len(f_norms) - 1, len(g_norms) - 1
    sf, sg = sum(map(mul, f_norms, f_norms)), sum(map(mul, g_norms, g_norms))
    last = cell_bytes(isqrt(sf**n * sg**m) + 1)
    return (cell_bytes(isqrt(sf * sg ** (m - n + 1)) + 1) if m - n > 1 else last), last


def _pack(terms, nb: int) -> int:
    """The int of a row's terms (k, n) at x = 2^(8*nb), by shifts: a row
    has few cells, where shifts beat kronecker.pack's byte copy."""
    return sum(n << (8 * nb * k) for k, n in terms)


def _pack_rows(f: list[dict[int, int]], g: list[dict[int, int]]):
    """(F, G, cells): Z[x] rows f and g packed at _cells' first."""
    cells = _cells(*[[sum(map(abs, row.values())) for row in w] for w in (f, g)])
    F, G = ([_pack(row.items(), cells[0]) for row in w] for w in (f, g))
    return F, G, cells


def _prem(f: list[int], g: list[int]) -> list[int]:
    """lc(g)^(deg f - deg g + 1) * f modulo g, in deg f - deg g + 1 steps
    r <- lc(g)*r - lead(r)*g, each one pass that drops the top row, with no
    zero test; leading zeros are kept.  A one-row g, a nonzero constant,
    divides f: [] at once, not after deg f + 1 passes over f."""
    if len(g) == 1:
        return []
    lc, n = g[0], len(f) - len(g)
    tail = g[1:] + [0] * n
    r = f
    for _ in range(n + 1):
        a = r[0]
        r = [lc * u - a * v for u, v in zip(r[1:], tail)]
    return r


def _subresultants(f: list[int], g: list[int], cells: tuple[int, int]):
    """Subresultant remainder sequence of nonzero rows f and g packed at
    cells[0], in either order; rows of constants pass (0, 0).

    Returns (h, s), packed at cells[1]: the last nonzero remainder and,
    when h has degree 0, the resultant, with the sign of the Sylvester
    matrix with f on top.
    """
    sign = -1 if len(f) < len(g) and (len(f) - 1) * (len(g) - 1) % 2 else 1
    if len(f) < len(g):
        f, g = g, f
    d = len(f) - len(g)
    b, c = (-1) ** (d + 1), -1  # Collins' beta and psi
    while True:
        h = []
        for u in _prem(f, g):
            q, r = divmod(u, b)
            if r:
                raise ValueError("inexact polynomial division")
            if h or q:
                h.append(q)
        if cells[0] != cells[1]:
            g, h = ([_pack(digits(v, cells[0]).items(), cells[1]) for v in w] for w in (g, h))
            cells = (cells[1], cells[1])
        lc = g[0]
        if d:
            c, r = divmod((-lc) ** d, c ** (d - 1))
            if r:
                raise ValueError("inexact polynomial division")
        if not h:
            return g, -sign * c
        f, g, d = g, h, len(g) - len(h)
        b = -lc * c**d
