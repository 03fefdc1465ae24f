"""Finite Heisenberg groups, their order-6 twist, and related constructions.

The upper-unitriangular element A(x, y, z) is stored with doubled third
coordinate ``z2 = 2z`` so that half-integral z stays exact: the twist h sends
integral elements to half-integral ones whenever y is odd, and the extended
group below is closed only in the half-integral ambient.  One law
(``_heis_law``) and one twist (``_twist``) serve the group over Z (modulus
None) and its reductions mod (n, n, 2n); one pair law (``_pair_law``) built
from them gives the generator rows of Gamma_n, its twisted closure and B_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .group_core import (
    GroupTable,
    Homomorphism,
    SubgroupMask,
    WordMul,
    code_digits,
    cyclic_table,
    prime_power_base,
)

CHI_MATRIX = ((0, -1), (1, 1))  # order-6 torus symmetry (x,y) -> (-y, x+y)
_H, _A, _B = (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)  # the pairs h, a and b


# ---------------------------------------------------------------------------
# the laws on coordinate triples


def _reduce(n: Optional[int], g: tuple) -> tuple:
    """Reduce a coordinate triple (x, y, z2) mod (n, n, 2n); n None leaves it in Z."""
    if n is None:
        return g
    x, y, z2 = g
    return x % n, y % n, z2 % (2 * n)


def _heis_law(n: Optional[int], a: tuple, b: tuple) -> tuple:
    """Product of coordinate triples (x, y, z2); entries are ints or int arrays."""
    x, y, z2 = a
    x2, y2, z22 = b
    return _reduce(n, (x + x2, y + y2, z2 + z22 + 2 * x * y2))


def _twist(n: Optional[int], g: tuple) -> tuple:
    """The twist on a coordinate triple (x, y, z2); entries are ints or int arrays."""
    x, y, z2 = g
    return _reduce(n, (-y, x + y, z2 - 2 * x * y - y * y))


def _pair_law(n: Optional[int], a: tuple, b: tuple) -> tuple:
    """Product of pairs (x, y, z2, k), (g, k)(g', k') = (g h^k(g'), k + k')
    with k mod 6; the left k is an int, other entries are ints or int arrays."""
    *g, k = a
    *g2, k2 = b
    for _ in range(k % 6):
        g2 = _twist(n, g2)
    return (*_heis_law(n, g, g2), (k + k2) % 6)


def _format_half(z2: int) -> str:
    return str(z2 // 2) if z2 % 2 == 0 else f"{z2}/2"


# ---------------------------------------------------------------------------
# the group Gamma_n


def gamma_n(n: int) -> GroupTable:
    """Heisenberg group mod n: order n^3, integral z; any n >= 2."""
    if n < 2:
        raise InvalidInput("modulus must be at least 2")
    # digits (x, y, z): A(x,y,z) is the word c^z b^y a^x; the k = 0 slice of the pair law
    x, y, z = code_digits((n, n, n))
    gen_rows = [np.ravel_multi_index((rx, ry, rz2 // 2), (n, n, n)) for rx, ry, rz2, _ in
                (_pair_law(n, s, (x, y, 2 * z, 0)) for s in (_A, _B, (0, 0, 2, 0)))]
    return GroupTable(WordMul(gen_rows, (n, n, n), (x, y, z)), name=f"Gamma_{n}", labels=lambda: [
        f"A({a},{b},{c})" for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())])


def gamma_elem_index(n: int, x, y, z):
    """Index of A(x, y, z) in ``gamma_n(n)``, each coordinate reduced mod n;
    entries are ints or int arrays, and so is the index, as numpy integers."""
    return np.ravel_multi_index((x, y, z), (n, n, n), mode="wrap")


# ---------------------------------------------------------------------------
# the extended group generated by Gamma_n and the twist


@dataclass
class HatGroup:
    """Closure of the translation group and the twist, with its bookkeeping."""

    n: int
    table: GroupTable
    theta: Homomorphism          # projection onto the order-6 quotient
    gamma_image: SubgroupMask    # image of the integral translation group
    theta_kernel: SubgroupMask


def hat_gamma_n(n: int) -> HatGroup:
    """Closure of {(gamma, 0)} and (identity, 1) in the twisted pair group.

    Pairs (g, k) with g half-integral mod n and k mod 6 compose as
    (g, k)(g', k') = (g * h^k(g'), k + k').  The table is composed on all
    12 n^3 pairs, and that h, a and b alone generate them is checked, not
    assumed, so the half-integral central elements appear (they do, for
    every even n, which makes the kernel of the order-6 projection twice
    the size of the translation image).  The word table proves every pair
    a word in h, a, b and c = (0, 0, 1/2), so one identity in the table,
    a (h b h^-1) b^-1 = c, puts c in <h, a, b> and makes it the whole set.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidInput("the extended group needs an even modulus >= 2")
    # generators h, a, b and the half-integral central element (0, 0, 1/2)
    radices = (6, n, n, 2 * n)
    k, x, y, z2 = code_digits(radices)
    gen_rows = [np.ravel_multi_index((rk, rx, ry, rz2), radices) for rx, ry, rz2, rk in
                (_pair_law(n, s, (x, y, z2, k)) for s in (_H, _A, _B, (0, 0, 1, 0)))]
    table = GroupTable(WordMul(gen_rows, radices, (k, x, y, z2)), name=f"HatGamma_{n}",
                       labels=lambda: [f"A({a},{b},{_format_half(c)})h^{d}" for a, b, c, d
                                       in zip(x.tolist(), y.tolist(), z2.tolist(), k.tolist())])
    h, a, b, c = (int(r[0]) for r in gen_rows)
    mul, inv = table.mul, table.inv
    if mul[mul[a, mul[mul[h, b], inv[h]]], inv[b]] != c:
        raise RuntimeError(f"h, a and b do not generate all {table.order} pairs")
    theta = Homomorphism(table, cyclic_table(6, name="C6"), k)
    gamma_image = SubgroupMask(table, (k == 0) & (z2 % 2 == 0))
    theta_kernel = SubgroupMask(table, k == 0)
    return HatGroup(n, table, theta, gamma_image, theta_kernel)


# ---------------------------------------------------------------------------
# the base group B_n on the n x n torus


@dataclass
class BnData:
    n: int
    table: GroupTable
    chi_idx: int
    ta_idx: int
    tb_idx: int
    coords: list  # the digits (k, u, v) of t(u,v) chi^k, one int array each


def chi_power(n: int, k: int) -> np.ndarray:
    """chi^k reduced mod n, a 2 x 2 int64 array."""
    return np.linalg.matrix_power(np.array(CHI_MATRIX), k % 6) % n


def b_n_components(n: int) -> BnData:
    """Pair group (Z_n)^2 x Z_6 with (v,k)(v',k') = (v + chi^k v', k+k').

    The translation part acts on the torus by addition, the order-6 part by
    the matrix chi; k is kept as data mod 6, so the extension has order
    6 n^2 for every n (for n <= 2 the matrix action alone would collapse to
    a smaller bijection group).  It is the pair law's image with z2 dropped,
    which is well defined since the (x, y, k) part never reads z2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # digits (k, u, v) of t(u,v) chi^k; generators chi, t_a and t_b
    k, u, v = coords = code_digits((6, n, n))
    gen_rows = [np.ravel_multi_index((rk, ru, rv), (6, n, n)) for ru, rv, _, rk in
                (_pair_law(n, s, (u, v, 0, k)) for s in (_H, _A, _B))]
    table = GroupTable(WordMul(gen_rows, (6, n, n), coords), name=f"B_{n}", labels=lambda: [
        f"t({p},{q})chi^{r}" for p, q, r in zip(u.tolist(), v.tolist(), k.tolist())])
    chi, ta, tb = (int(r[0]) for r in gen_rows)
    return BnData(n, table, chi, ta, tb, coords)


def fixed_points_chi_power(n: int, k: int) -> set[tuple[int, int]]:
    """Fixed points of the k-th power of chi on (Z_n)^2.

    chi^k and chi^-k fix the same points, so these are also the fixed points
    of the k-th power of the inverse map (u,v) -> (u+v, -u).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if n < 1:
        raise ValueError("n must be positive")
    pts = np.indices((n, n)).reshape(2, -1)
    fixed = (chi_power(n, k) @ pts % n == pts).all(axis=0)
    return set(zip(*pts[:, fixed].tolist()))


# ---------------------------------------------------------------------------
# doubling and SL(2,Z) lifts


def doubling_embed(p: int) -> Homomorphism:
    """A(x,y,z) -> A(2x,2y,4z) from the mod-p group into the mod-2p group."""
    if p < 3 or prime_power_base(p) != p:
        raise ValueError("doubling needs an odd prime")
    src = gamma_n(p)
    tgt = gamma_n(2 * p)
    x, y, z = code_digits((p, p, p))
    return Homomorphism(src, tgt, gamma_elem_index(2 * p, 2 * x, 2 * y, 4 * z))


def q_form_coeffs(F) -> tuple:
    """Coefficients (x^2, xy, y^2) of the doubled quadratic correction 2 q_F
    of F = [[a, b], [c, d]], a (..., 2, 2) array: a matrix or a stack of them."""
    (a, b), (c, d) = np.moveaxis(F, (-2, -1), (0, 1))
    return a * c, a * d + b * c - 1, b * d


@dataclass(frozen=True)
class SL2Lift:
    """Automorphism of the integral Heisenberg group (modulus None) over a matrix F.

    Sends A(x,y,z) to A(F(x,y), z + q_F(x,y) + lin . (x,y)), kept doubled:
    z2 gains 2 q_F(x,y) + lin2 . (x,y) with lin2 = 2 lin.  It fixes the
    center, and is a group morphism exactly because det F = 1.  F may be a
    stack of matrices whose stack axes broadcast with the coordinates; only
    ``sl2_lift`` checks its determinant, so that a grid may hold any matrix.
    """

    F: np.ndarray
    lin2: tuple = (0, 0)

    def law(self, g: tuple) -> tuple:
        """The lift on a coordinate triple (x, y, z2) over Z; entries are ints or int arrays."""
        x, y, z2 = g
        (a, b), (c, d) = np.moveaxis(self.F, (-2, -1), (0, 1))
        qxx, qxy, qyy = q_form_coeffs(self.F)
        lx, ly = self.lin2
        return (a * x + b * y, c * x + d * y,
                z2 + qxx * x * x + qxy * x * y + qyy * y * y + lx * x + ly * y)


def sl2_lift(F, lin=(0, 0)) -> SL2Lift:
    """The lift over an integer matrix F of determinant one, or a stack of
    them, with a linear correction lin of denominator 1 or 2."""
    (a, b), (c, d) = np.moveaxis(F, (-2, -1), (0, 1))
    det = np.ravel(a * d - b * c)
    if (det != 1).any():
        raise InvalidInput(f"det is {det[det != 1][0]}, not 1")
    lx, ly = Fraction(lin[0]), Fraction(lin[1])
    if lx.denominator not in (1, 2) or ly.denominator not in (1, 2):
        raise ValueError("linear corrections must have denominator 1 or 2")
    return SL2Lift(np.asarray(F), (int(2 * lx), int(2 * ly)))


def q_form_cocycle_defect(F, G) -> tuple:
    """The doubled coefficients (x^2, xy, y^2) of 2 (q_FG - q_F(G(x,y)) - q_G):
    the z2 the lift over FG adds at (x, y, 0), less what the lift over F after
    the lift over G adds, read at (1, 0), (0, 1) and (1, 1).  For matrices or
    stacks F and G, with no use of the determinant, they vanish identically:
    2 q_F(v) = (Fv)_1 (Fv)_2 - v_1 v_2, so the defect telescopes to 0."""
    def defect(x, y):
        e = (x, y, 0)
        return SL2Lift(np.matmul(F, G)).law(e)[2] - SL2Lift(F).law(SL2Lift(G).law(e))[2]

    dxx, dyy = defect(1, 0), defect(0, 1)
    return dxx, defect(1, 1) - dxx - dyy, dyy
