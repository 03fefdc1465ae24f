"""Finite Heisenberg groups, their order-6 twist, and related constructions.

The upper-unitriangular element A(x, y, z) is stored with doubled third
coordinate ``z2 = 2z`` so that half-integral z stays exact: the twist h sends
integral elements to half-integral ones whenever y is odd, and the extended
group below is closed only in the half-integral ambient.  One law
(``_heis_law``) and one twist (``_twist``) serve the group over Z (modulus
None) and its reductions mod (n, n, 2n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    CapExceeded,
    DetNotOne,
    InvalidInput,
    ModulusMismatch,
    NonIntegralInput,
    OddModulus,
)
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    Homomorphism,
    SubgroupMask,
    closure,
    code_digits,
    cyclic_table,
    is_normal,
    prime_power_base,
    word_table,
)

CHI_MATRIX = ((0, -1), (1, 1))  # order-6 torus symmetry (x,y) -> (-y, x+y)


# ---------------------------------------------------------------------------
# element domains


@dataclass(frozen=True)
class HeisElem:
    """Triple A(x, y, z) with z2 = 2z: reduced mod (n, n, 2n), or over Z when n is None."""

    n: Optional[int]
    x: int
    y: int
    z2: int

    def __post_init__(self):
        if self.n is None:
            return
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if not (0 <= self.x < self.n and 0 <= self.y < self.n):
            raise ValueError("x, y must be reduced mod n")
        if not 0 <= self.z2 < 2 * self.n:
            raise ValueError("z2 must be reduced mod 2n")

    @property
    def z(self) -> Fraction:
        return Fraction(self.z2, 2)

    def is_integral(self) -> bool:
        return self.z2 % 2 == 0

    def __str__(self) -> str:
        return f"A({self.x},{self.y},{_format_half(self.z2)})"


def heis_identity(n: Optional[int]) -> HeisElem:
    return HeisElem(n, 0, 0, 0)


def heis_elem(n: Optional[int], x: int, y: int, z) -> HeisElem:
    """Build an element from integral or half-integral z; n None means over Z."""
    zf = Fraction(z)
    if zf.denominator not in (1, 2):
        raise ValueError("z must be integral or half-integral")
    return HeisElem(n, *_reduce(n, (x, y, int(zf * 2))))


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


def heis_mul(a: HeisElem, b: HeisElem) -> HeisElem:
    """(x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y')."""
    if a.n != b.n:
        raise ModulusMismatch(f"moduli differ: {a.n} vs {b.n}")
    return HeisElem(a.n, *_heis_law(a.n, (a.x, a.y, a.z2), (b.x, b.y, b.z2)))


def heis_inv(a: HeisElem) -> HeisElem:
    return HeisElem(a.n, *_reduce(a.n, (-a.x, -a.y, -a.z2 + 2 * a.x * a.y)))


def h_auto(e: HeisElem) -> HeisElem:
    """The order-6 twist (x,y,z) -> (-y, x+y, z - xy - y^2/2); a modulus must be even."""
    if e.n is not None and e.n % 2 != 0:
        raise OddModulus("the twist is only defined for even moduli")
    return HeisElem(e.n, *_twist(e.n, (e.x, e.y, e.z2)))


def _require_integral_group(e: HeisElem, what: str) -> None:
    if e.n is not None:
        raise InvalidInput(f"{what} is defined over Z only (modulus None)")


def h_prime_auto(e: HeisElem) -> HeisElem:
    """Integral variant of the twist: z - xy - (y^2 - y)/2; preserves T(Z,Z)."""
    _require_integral_group(e, "the integral twist")
    if not e.is_integral():
        raise NonIntegralInput("the integral twist needs an integral element")
    x, y, z2 = _twist(None, (e.x, e.y, e.z2))
    return HeisElem(None, x, y, z2 + e.y)


def _format_half(z2: int) -> str:
    return str(z2 // 2) if z2 % 2 == 0 else f"{z2}/2"


def parse_heis_literal(text: str, n: int) -> HeisElem:
    """Parse "A(x,y,z)" with z an integer or a half-integer "k/2"."""
    s = text.strip()
    if not (s.startswith("A(") and s.endswith(")")):
        raise ValueError(f"not an element literal: {text!r}")
    parts = s[2:-1].split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three coordinates: {text!r}")
    x, y = int(parts[0]), int(parts[1])
    zs = parts[2].strip()
    if "/" in zs:
        num, den = zs.split("/")
        if int(den) != 2:
            raise ValueError("half-integers must be written as k/2")
        z = Fraction(int(num), 2)
    else:
        z = Fraction(int(zs))
    return heis_elem(n, x, y, z)


# ---------------------------------------------------------------------------
# the group Gamma_n


def gamma_n(n: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Heisenberg group mod n: order n^3, integral z; any n >= 2."""
    if n < 2:
        raise InvalidInput("modulus must be at least 2")
    if n**3 > cap:
        raise CapExceeded(f"order {n**3} exceeds cap {cap}")
    # digits (x, y, z): A(x,y,z) is the word c^z b^y a^x
    x, y, z = code_digits((n, n, n))
    gen_rows = []
    for s in ((1, 0, 0), (0, 1, 0), (0, 0, 2)):
        rx, ry, rz2 = _heis_law(n, s, (x, y, 2 * z))
        gen_rows.append(gamma_elem_index(n, rx, ry, rz2 // 2))
    return word_table(gen_rows, (n, n, n), name=f"Gamma_{n}", labels=lambda: [
        f"A({a},{b},{c})" for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())])


def gamma_elem_index(n: int, x, y, z):
    """Index of A(x, y, z) in ``gamma_n(n)``; entries are ints or int arrays."""
    return ((x % n) * n + (y % n)) * n + (z % n)


def gamma_center_mask(g: GroupTable, n: int) -> SubgroupMask:
    bits = np.zeros(g.order, dtype=bool)
    bits[gamma_elem_index(n, 0, 0, np.arange(n))] = True
    return SubgroupMask(g, bits)


# ---------------------------------------------------------------------------
# the extended group generated by Gamma_n and the twist


@dataclass(frozen=True)
class HatElem:
    """Pair (translation part, twist power) of the extended group."""

    g: HeisElem
    k: int

    def __post_init__(self):
        if not 0 <= self.k < 6:
            raise ValueError("twist power must be reduced mod 6")

    def __str__(self) -> str:
        return f"{self.g}h^{self.k}"


def hat_mul(a: HatElem, b: HatElem) -> HatElem:
    """(g, k)(g', k') = (g * h^k(g'), k + k')."""
    if a.g.n != b.g.n:
        raise ModulusMismatch(f"moduli differ: {a.g.n} vs {b.g.n}")
    img = b.g
    for _ in range(a.k):
        img = h_auto(img)
    return HatElem(heis_mul(a.g, img), (a.k + b.k) % 6)


@dataclass
class HatGroup:
    """Closure of the translation group and the twist, with its bookkeeping."""

    n: int
    table: GroupTable
    theta: Homomorphism          # projection onto the order-6 quotient
    gamma_image: SubgroupMask    # image of the integral translation group
    theta_kernel: SubgroupMask
    coords: np.ndarray           # (order, 4) rows (x, y, z2, k)

    @property
    def order(self) -> int:
        return self.table.order

    def index_of(self, e: HatElem) -> int:
        if e.g.n != self.n:
            raise ModulusMismatch(f"element modulus {e.g.n}, group modulus {self.n}")
        return int(_hat_code(self.n, e.g.x, e.g.y, e.g.z2, e.k))

    def element_at(self, idx: int) -> HatElem:
        x, y, z2, k = (int(v) for v in self.coords[idx])
        return HatElem(HeisElem(self.n, x, y, z2), k)

    @cached_property
    def gamma_image_normal(self) -> bool:
        return is_normal(self.table, self.gamma_image)

    @property
    def gamma_image_index(self) -> int:
        return self.table.order // self.gamma_image.size

    @property
    def theta_kernel_order(self) -> int:
        return self.theta_kernel.size

    @property
    def theta_surjective(self) -> bool:
        return self.theta.is_surjective()


def _hat_code(n: int, x, y, z2, k):
    """Code of (x, y, z2, k) in [0, 12 n^3), with digits (k, x, y, z2) of
    radices (6, n, n, 2n); entries are ints or int arrays.  It is the
    element's index in ``hat_gamma_n(n)``."""
    return ((k * n + x) * n + y) * (2 * n) + z2


def hat_gamma_n(n: int, cap: int = DEFAULT_ORDER_CAP) -> HatGroup:
    """Closure of {(gamma, 0)} and (identity, 1) in the twisted pair group.

    Pairs (g, k) with g half-integral mod n and k mod 6 compose as
    (g, k)(g', k') = (g * h^k(g'), k + k').  The table is composed on all
    12 n^3 pairs, and the order is computed, not assumed: the closure of h,
    a and b alone must be the whole set, so the half-integral central
    elements appear (they do, for every even n, which makes the kernel of
    the order-6 projection twice the size of the translation image).
    """
    if n < 2 or n % 2 != 0:
        raise OddModulus("the extended group needs an even modulus >= 2")
    ambient = 12 * n**3
    if ambient > cap:
        raise CapExceeded(f"ambient order {ambient} exceeds cap {cap}")
    # generators h, a, b and the half-integral central element (0, 0, 1/2)
    radices = (6, n, n, 2 * n)
    k, x, y, z2 = code_digits(radices)
    g = (x, y, z2)
    gen_rows = [_hat_code(n, *_twist(n, g), (k + 1) % 6)] + [
        _hat_code(n, *_heis_law(n, s, g), k) for s in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    table = word_table(gen_rows, radices, name=f"HatGamma_{n}", labels=lambda: [
        f"A({a},{b},{_format_half(c)})h^{d}"
        for a, b, c, d in zip(x.tolist(), y.tolist(), z2.tolist(), k.tolist())])
    if closure(table, [int(r[0]) for r in gen_rows[:3]]).size != ambient:
        raise RuntimeError(f"h, a and b do not generate all {ambient} pairs")
    theta = Homomorphism(table, cyclic_table(6, name="C6"), k)
    gamma_image = SubgroupMask(table, (k == 0) & (z2 % 2 == 0))
    theta_kernel = SubgroupMask(table, k == 0)
    return HatGroup(n, table, theta, gamma_image, theta_kernel, np.stack([x, y, z2, k], axis=1))


# ---------------------------------------------------------------------------
# the base group B_n on the n x n torus


@dataclass
class BnData:
    n: int
    table: GroupTable
    translations: SubgroupMask
    zeta: Homomorphism           # projection onto the order-6 point part
    chi_idx: int
    ta_idx: int
    tb_idx: int


def chi_power(n: int, k: int) -> np.ndarray:
    """chi^k reduced mod n, a 2 x 2 int64 array."""
    return np.linalg.matrix_power(np.array(CHI_MATRIX), k % 6) % n


def _bn_code(n: int, k, u, v):
    """Index of t(u, v) chi^k in ``b_n_group(n)``, digits (k, u, v) of radices
    (6, n, n); entries are ints or int arrays."""
    return (k * n + u) * n + v


def b_n_components(n: int, cap: int = DEFAULT_ORDER_CAP) -> BnData:
    """Pair group (Z_n)^2 x Z_6 with (v,k)(v',k') = (v + chi^k v', k+k').

    The translation part acts on the torus by addition, the order-6 part by
    the matrix chi; k is kept as data mod 6, so the extension has order
    6 n^2 for every n (for n <= 2 the matrix action alone would collapse to
    a smaller bijection group).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if 6 * n * n > cap:
        raise CapExceeded(f"order {6 * n * n} exceeds cap {cap}")
    # digits (k, u, v) of t(u,v) chi^k; generators chi, t_a and t_b
    k, u, v = code_digits((6, n, n))
    gen_rows = [
        _bn_code(n, (k + 1) % 6, *(chi_power(n, 1) @ [u, v] % n)),
        _bn_code(n, k, (u + 1) % n, v),
        _bn_code(n, k, u, (v + 1) % n),
    ]
    table = word_table(gen_rows, (6, n, n), name=f"B_{n}", labels=lambda: [
        f"t({p},{q})chi^{r}" for p, q, r in zip(u.tolist(), v.tolist(), k.tolist())])
    translations = SubgroupMask(table, k == 0)
    zeta = Homomorphism(table, cyclic_table(6, name="C6"), k)
    chi, ta, tb = (int(r[0]) for r in gen_rows)
    return BnData(n, table, translations, zeta, chi, ta, tb)


def b_n_group(n: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The order-6 extension of the n x n translation torus; order 6 n^2."""
    return b_n_components(n, cap).table


def fixed_points_chi_power(n: int, k: int) -> set[tuple[int, int]]:
    """Fixed points of the k-th power of chi on (Z_n)^2.

    chi^k and chi^-k fix the same points, so these are also the fixed points
    of the k-th power of the inverse map (u,v) -> (u+v, -u).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if n < 1:
        raise ValueError("n must be positive")
    pts = np.array(code_digits((n, n)))
    fixed = (chi_power(n, k) @ pts % n == pts).all(axis=0)
    return set(zip(*pts[:, fixed].tolist()))


# ---------------------------------------------------------------------------
# doubling and SL(2,Z) lifts


def doubling_embed(p: int, cap: int = DEFAULT_ORDER_CAP) -> Homomorphism:
    """A(x,y,z) -> A(2x,2y,4z) from the mod-p group into the mod-2p group."""
    if p < 3 or prime_power_base(p) != p:
        raise ValueError("doubling needs an odd prime")
    src = gamma_n(p, cap=cap)
    tgt = gamma_n(2 * p, cap=cap)
    x, y, z = code_digits((p, p, p))
    return Homomorphism(src, tgt, gamma_elem_index(2 * p, 2 * x, 2 * y, 4 * z))


@dataclass(frozen=True)
class SL2Matrix:
    """Integer matrix [[a, b], [c, d]] with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise DetNotOne(f"det is {self.a * self.d - self.b * self.c}, not 1")

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.a * x + self.b * y, self.c * x + self.d * y

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entry_bound(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


def q_form_coeffs(F: SL2Matrix) -> tuple[int, int, int]:
    """Coefficients (x^2, xy, y^2) of the doubled quadratic correction 2 q_F."""
    return F.a * F.c, F.a * F.d + F.b * F.c - 1, F.b * F.d


@dataclass(frozen=True)
class SL2Lift:
    """Automorphism of the integral Heisenberg group (modulus None) over a matrix F.

    Sends A(x,y,z) to A(F(x,y), z + q_F(x,y) + lin . (x,y)), kept doubled:
    z2 gains 2 q_F(x,y) + lin2 . (x,y) with lin2 = 2 lin.  It fixes the
    center, and is a group morphism exactly because det F = 1.
    """

    F: SL2Matrix
    lin2: tuple[int, int]

    def law(self, g: tuple) -> tuple:
        """The lift on a coordinate triple (x, y, z2) over Z; entries are ints or int arrays."""
        x, y, z2 = g
        qxx, qxy, qyy = q_form_coeffs(self.F)
        lx, ly = self.lin2
        return (*self.F.apply(x, y),
                z2 + qxx * x * x + qxy * x * y + qyy * y * y + lx * x + ly * y)

    def __call__(self, e: HeisElem) -> HeisElem:
        _require_integral_group(e, "a lift over SL(2,Z)")
        return HeisElem(None, *self.law((e.x, e.y, e.z2)))


def sl2_lift(F: SL2Matrix, lin=(0, 0)) -> SL2Lift:
    lx, ly = Fraction(lin[0]), Fraction(lin[1])
    if lx.denominator not in (1, 2) or ly.denominator not in (1, 2):
        raise ValueError("linear corrections must have denominator 1 or 2")
    return SL2Lift(F, (int(2 * lx), int(2 * ly)))


@dataclass(frozen=True)
class CocycleCheck:
    is_cocycle_mod_linear: bool
    linear_defect: tuple[int, int]
    quadratic_defect: tuple[int, int, int]


def q_form_cocycle_check(F: SL2Matrix, G: SL2Matrix) -> CocycleCheck:
    """Expand 2 (q_FG - q_F(G(x,y)) - q_G) symbolically and report its defect.

    The difference is a quadratic form in x, y; its three doubled (integer)
    coefficients are returned together with the (identically vanishing)
    linear part, so a nonzero quadratic defect would show the lift family
    failing to compose.
    """
    txx, txy, tyy = q_form_coeffs(F @ G)
    fxx, fxy, fyy = q_form_coeffs(F)
    gxx, gxy, gyy = q_form_coeffs(G)
    # substitute (x,y) -> (a x + b y, c x + d y) into 2 q_F
    a, b, c, d = G.a, G.b, G.c, G.d
    sxx = fxx * a * a + fxy * a * c + fyy * c * c
    sxy = 2 * fxx * a * b + fxy * (a * d + b * c) + 2 * fyy * c * d
    syy = fxx * b * b + fxy * b * d + fyy * d * d
    dxx, dxy, dyy = txx - sxx - gxx, txy - sxy - gxy, tyy - syy - gyy
    ok = dxx == 0 and dxy == 0 and dyy == 0
    return CocycleCheck(ok, (0, 0), (dxx, dxy, dyy))


def random_sl2(rng: random.Random, entry_bound: int = 20) -> SL2Matrix:
    """Seeded random walk on the standard generators, entries kept bounded."""
    T = SL2Matrix(1, 1, 0, 1)
    Ti = SL2Matrix(1, -1, 0, 1)
    S = SL2Matrix(0, -1, 1, 0)
    cur = SL2Matrix(1, 0, 0, 1)
    for _ in range(rng.randrange(1, 12)):
        nxt = cur @ [T, Ti, S][rng.randrange(3)]
        if nxt.entry_bound() <= entry_bound:
            cur = nxt
    return cur
