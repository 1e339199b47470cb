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
g to M_0's cells after it.  _cells reads only m, n, sf and sg, which
embedding.is_injective_param sums straight off the curve.  Callers read
both answers off one run: the resultant, or the last remainder, which
arith._primitive_part turns into the gcd's primitive part.  Rows in Z[x]
are {i: n} term dicts, as in BiPoly._t; gcd_univariate's rows are
constants, ints already.

Each pseudo-division (_prem) by a g of k rows updates only the window
of k - 1 rows under g at each of its d + 1 steps, d = m - n, and gives a
row its power of lc(g) once, as it enters the window: (d + 1)(k - 1) + d
row operations, so a short divisor costs O(d), not O(d^2).
"""

from __future__ import annotations

from math import isqrt

from .kronecker import cell_bytes, digits


def _cells(m: int, sf: int, n: int, sg: int) -> tuple[int, int]:
    """(first, last): nb for the sequence of f and g, in either order, from
    their degrees in y, m and n, and the sums sf and sg of their rows'
    squared 1-norms: last holds M_0 and a sign bit, first M_(n-1) when the
    first pseudo-division is long, else M_0 too."""
    if m < n:
        m, sf, n, sg = n, sg, m, sf
    last = cell_bytes(isqrt(sf**n * sg**m) + 1)
    return (cell_bytes(isqrt(sf * sg ** (m - n + 1)) + 1) if m - n > 1 else last), last


def _pack(terms, nb: int) -> int:
    """The int of a row's terms (k, n) at x = 2^(8*nb), by shifts: a row
    has few cells, where shifts beat kronecker.pack's byte copy."""
    return sum(n << (8 * nb * k) for k, n in terms)


def _pack_rows(f: list[dict[int, int]], g: list[dict[int, int]]):
    """(F, G, cells): Z[x] rows f and g packed at _cells' first."""
    sf, sg = (sum(sum(map(abs, row.values())) ** 2 for row in w) for w in (f, g))
    cells = _cells(len(f) - 1, sf, len(g) - 1, sg)
    F, G = ([_pack(row.items(), cells[0]) for row in w] for w in (f, g))
    return F, G, cells


def _prem(f: list[int], g: list[int]) -> list[int]:
    """lc(g)^(d + 1) * f modulo g, d = len(f) - len(g), with no zero test;
    leading zeros are kept.  Of each step r <- lc(g)*r - lead(r)*g only
    the window of k - 1 rows under g's tail, k = len(g), is computed: a
    row below it would only be multiplied by lc(g).  Row s + k - 1 enters
    the window for step s times lc(g)^s, a running power, so every value
    equals that of d + 1 full passes, in (d + 1)*(k - 1) + d row
    operations.  The window after the last step is the remainder.  A
    one-row g, a nonzero constant, divides f: [] at once."""
    k = len(g)
    if k == 1:
        return []
    lc, tail, e = g[0], g[1:], 1
    a, w = f[0], f[1:k]
    for u in f[k:]:
        e *= lc
        w = [lc * x - a * v for x, v in zip(w, tail)]
        w.append(e * u)
        a = w.pop(0)
    return [lc * x - a * v for x, v in zip(w, tail)]


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
