"""Kronecker substitution (Harvey, JSC 44, 2009): a bivariate integer
polynomial as one int, so that its products are CPython bigint products.

x^i*y^j -> 2^(B*(i + j*width)) is a ring map from Z[x, y] to Z: a sum or
product of packed polynomials is the packed sum or product, whatever the
size of the intermediates.  It is undone on a polynomial whose x-degree
is below width and whose coefficients lie in [-2^(B-1), 2^(B-1)): they
are the balanced base-2^B digits of its int.  B is a whole number of
bytes, nb, so packing and unpacking copy bytes, in time linear in the
number of cells.  arith packs every product of two BiPolys and the
Jacobian's cross product, a sum of two products, through one kernel
(_mul_packed, here), and substitutions whose result cancels to few
terms, so unpacking reads few digits; one size rule, packs, decides for
all of them.
subresultant.py packs rows in y at x = 2^B alone, so resultants and
gcds run on ints, read by digits.
"""

from __future__ import annotations


def packs(cells: int, m: int, n: int) -> bool:
    """The size rule of every packed kernel: pack when the grid's cells
    and the 2*(m + n) terms written into it are no more than the m*n term
    pairs of a product of m terms by n terms."""
    return cells + 2 * (m + n) <= m * n


def cell_bytes(bound: int) -> int:
    """nb for coefficients of magnitude at most bound: the fewest whole
    bytes that hold bound and a sign bit."""
    return (bound.bit_length() + 8) // 8


def pack(terms, nb: int, width: int) -> int:
    """The int of nonzero integer terms ((i, j), n), each written into its
    own cell of nb bytes: i < width and |n| < 2^(8*nb) make it the
    polynomial at x = 2^(8*nb), y = 2^(8*nb*width)."""
    size = nb * (max((i + j * width for (i, j), _ in terms), default=-1) + 1)
    pos, neg = bytearray(size), bytearray(size)
    for (i, j), n in terms:
        at = nb * (i + j * width)
        if n > 0:
            pos[at : at + nb] = n.to_bytes(nb, "little")
        else:
            neg[at : at + nb] = (-n).to_bytes(nb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def digits(packed: int, nb: int) -> dict[int, int]:
    """The balanced base-2^(8*nb) digits of packed by position k, free of
    zeros: the coefficients of a packed polynomial in x alone.

    Adding 2^(B-1) to each balanced digit makes it a plain base-2^B digit,
    so one addition and one byte copy expose them all.  Only the digits up
    to the top one are read: a nonzero top digit d_K gives
    2^(B*K - 1) < |packed| < 2^(B*(K + 1) - 1).
    """
    bits = 8 * nb
    ndig = abs(packed).bit_length() // bits + 1
    half = 1 << (bits - 1)
    zero = half.to_bytes(nb, "little")
    raw = (packed + int.from_bytes(zero * ndig, "little")).to_bytes(nb * ndig, "little")
    out: dict[int, int] = {}
    for k in range(ndig):
        cell = raw[nb * k : nb * (k + 1)]
        if cell != zero:
            out[k] = int.from_bytes(cell, "little") - half
    return out


def unpack(packed: int, nb: int, width: int) -> dict:
    """The terms of a packed polynomial, by key (i, j), free of zeros."""
    return {(k % width, k // width): n for k, n in digits(packed, nb).items()}


def _mul_packed(pairs, width: int) -> dict:
    """The sum of the products a*b over pairs of integer term lists,
    packed, with one unpack: the packed strategy of arith._convolve (one
    pair) and of arith.jacobian_det (f_x*g_y + g_x*(-f_y)), where width
    exceeds the x-degree of every term of the sum and of every a.  With
    |.| the sum of absolute values, the cells hold the sum of |a|*|b|,
    a bound on every coefficient of the sum, and every |a| and |b|.

    Each b goes in one row (one power of y) at a time, packed by shifts:
    a's int times the row's int, shifted up by the row's cells.  Packed
    whole, b spans all the cells between its rows, mostly empty, and
    CPython's Karatsuba product of the two ints took up to 5 times as
    long as the rows.  Shifts cost O(r^2) cells on a row of r terms,
    and win below a few thousand terms per row.  A term of b may reach x-degree width only where a
    is empty (a derivative of a map component with no x), so its
    product is zero whatever it packs to."""
    norms = [(sum(abs(n) for _, n in a), sum(abs(n) for _, n in b)) for a, b in pairs]
    cells = cell_bytes(max(sum(na * nb for na, nb in norms), *map(max, norms)))
    bits = 8 * cells
    total = 0
    for a, b in pairs:
        rows: dict[int, int] = {}
        for (i, j), n in b:
            rows[j] = rows.get(j, 0) + (n << bits * i)
        pa = pack(a, cells, width)
        total += sum(pa * row << bits * width * j for j, row in rows.items())
    return unpack(total, cells, width)
