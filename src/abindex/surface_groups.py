"""Finite rotation groups of the sphere and point-group arithmetic of the torus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CapExceeded, HypothesisViolation, IndexExceedsSix
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    SubgroupMask,
    abelian_invariant_factors,
    all_element_orders,
    build_from_generators,
    closure,
    cyclic_table,
    is_cyclic,
    sigma_orbit,
    subgroup_table,
)
from .heisenberg import CHI_MATRIX


@dataclass(frozen=True)
class RotationGroupKind:
    """One of the five finite rotation-group families of the sphere."""

    tag: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.tag not in ("cyclic", "dihedral", "tetra", "octa", "icosa"):
            raise ValueError(f"unknown rotation group kind: {self.tag}")
        if self.tag == "cyclic" and (self.n is None or self.n < 1):
            raise ValueError("cyclic groups need n >= 1")
        if self.tag == "dihedral" and (self.n is None or self.n < 3):
            raise ValueError("dihedral groups need n >= 3")
        if self.tag in ("tetra", "octa", "icosa") and self.n is not None:
            raise ValueError(f"{self.tag} takes no parameter")

    def __str__(self) -> str:
        return f"{self.tag}:{self.n}" if self.n is not None else self.tag

    @staticmethod
    def parse(text: str) -> "RotationGroupKind":
        s = text.strip().lower()
        if ":" in s:
            tag, num = s.split(":", 1)
            return RotationGroupKind(tag, int(num))
        return RotationGroupKind(s)


TETRA = RotationGroupKind("tetra")
OCTA = RotationGroupKind("octa")
ICOSA = RotationGroupKind("icosa")


def cyclic_kind(n: int) -> RotationGroupKind:
    return RotationGroupKind("cyclic", n)


def dihedral_kind(n: int) -> RotationGroupKind:
    return RotationGroupKind("dihedral", n)


def _perm_mul(a: tuple, b: tuple) -> tuple:
    # right-to-left composition: (a b)(i) = a[b[i]]
    return tuple(a[b[i]] for i in range(len(b)))


def _perm_group(points: int, gens: Iterable[tuple], name: str, cap: int) -> GroupTable:
    ident = tuple(range(points))
    table, _ = build_from_generators(
        ident, list(gens), _perm_mul, cap=cap, labeler=str, name=name
    )
    return table


def rotation_group(kind: RotationGroupKind, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Concrete model of a finite rotation group, exact permutation arithmetic.

    The three exceptional groups are permutation-realized (even permutations
    of 4 points, all permutations of 4 points, even permutations of 5
    points) so no irrational rotation coordinates are needed.
    """
    if kind.tag == "cyclic":
        if kind.n > cap:
            raise CapExceeded(f"order {kind.n} exceeds cap {cap}")
        return cyclic_table(kind.n, name=f"C{kind.n}")
    if kind.tag == "dihedral":
        n = kind.n
        rot = tuple((i + 1) % n for i in range(n))
        refl = tuple((-i) % n for i in range(n))
        return _perm_group(n, [rot, refl], f"D{2 * n}", cap)
    if kind.tag == "tetra":
        return _perm_group(4, [(1, 0, 3, 2), (1, 2, 0, 3)], "G12", cap)
    if kind.tag == "octa":
        return _perm_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)], "G24", cap)
    return _perm_group(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "G60", cap)


@dataclass
class EsferaWitness:
    """Distinguished cyclic subgroup of a rotation group with its orbit data."""

    h_prime: SubgroupMask
    sigma_count: int
    inverting_element: Optional[int]

    def __post_init__(self):
        sub, _ = subgroup_table(self.h_prime.owner, self.h_prime)
        if sub.order < 2 or not is_cyclic(sub):
            raise HypothesisViolation("witness subgroup must be nontrivial cyclic")


def _find_inverting_element(g: GroupTable, mask: SubgroupMask) -> Optional[int]:
    idx = mask.indices()
    targets = g.inv[idx]
    for h in range(g.order):
        conj = g.mul[g.mul[h, idx], g.inv[h]]
        if np.array_equal(conj, targets):
            return h
    return None


def esfera_witness(g: GroupTable, kind: RotationGroupKind) -> EsferaWitness:
    """Pick the distinguished cyclic subgroup of each rotation family.

    Cyclic: the whole group.  Dihedral: the subgroup generated by all
    elements of order above 2 (the rotation subgroup, characteristic).
    Tetra / octa / icosa: a cyclic subgroup of order 2 / 4 / 5.  Reports the
    automorphism-orbit size and, when one exists, an element conjugating the
    subgroup elementwise to inverses (the group-theoretic stand-in for a
    rotation exchanging the two poles of the subgroup's axis).
    """
    if g.order < 2:
        raise HypothesisViolation("the trivial group has no nontrivial subgroup")
    orders = all_element_orders(g)
    if kind.tag == "cyclic":
        mask = SubgroupMask(g, np.ones(g.order, dtype=bool), _validated=True)
    elif kind.tag == "dihedral":
        mask = closure(g, np.flatnonzero(orders > 2))
    else:
        want = {"tetra": 2, "octa": 4, "icosa": 5}[kind.tag]
        gen = int(np.flatnonzero(orders == want)[0])
        mask = closure(g, [gen])
    count = len(sigma_orbit(g, mask))
    inverting = _find_inverting_element(g, mask)
    return EsferaWitness(mask, count, inverting)


def p_group_on_sphere_is_cyclic(p: int, g: GroupTable) -> bool:
    """Whether a p-group (p > 2) acting on the sphere is cyclic.

    The caller asserts that g embeds in a rotation group; this decides
    cyclicity, the property the odd-prime case analysis needs.
    """
    if p <= 2:
        raise ValueError("only odd primes are covered by this check")
    return is_cyclic(g)


# ---------------------------------------------------------------------------
# torus point groups


_SL2_IDENT = (1, 0, 0, 1)


def _matrix_order(a: int, b: int, c: int, d: int) -> Optional[int]:
    """Order of an SL(2,Z) matrix; None when infinite.

    Finite order happens exactly for +-identity or trace in {-1, 0, 1}.
    """
    if (a, b, c, d) == _SL2_IDENT:
        return 1
    if (a, b, c, d) == (-1, 0, 0, -1):
        return 2
    if abs(a + d) > 1:
        return None
    cur = (a, b, c, d)
    for k in range(2, 7):
        cur = (
            cur[0] * a + cur[1] * c,
            cur[0] * b + cur[1] * d,
            cur[2] * a + cur[3] * c,
            cur[2] * b + cur[3] * d,
        )
        if cur == _SL2_IDENT:
            return k
    raise RuntimeError("trace criterion violated; arithmetic bug")


def torus_point_orders(entry_bound: int) -> set[int]:
    """Orders of finite-order SL(2,Z) matrices with entries up to the bound."""
    if entry_bound < 1:
        raise ValueError("entry bound must be positive")
    span = np.arange(-entry_bound, entry_bound + 1)
    a, b, c, d = np.meshgrid(span, span, span, span, indexing="ij")
    det_one = (a * d - b * c) == 1
    mats = np.stack([a[det_one], b[det_one], c[det_one], d[det_one]], axis=1)
    found: set[int] = set()
    for row in mats:
        o = _matrix_order(int(row[0]), int(row[1]), int(row[2]), int(row[3]))
        if o is not None:
            found.add(o)
    return found


# ---------------------------------------------------------------------------
# affine actions on the n x n torus


@dataclass
class AffineTorusAction:
    """A group together with its action on (Z_n)^2 by affine maps u -> Au + b."""

    n: int
    table: GroupTable
    mats: np.ndarray  # (order, 2, 2) mod n
    offs: np.ndarray  # (order, 2) mod n

    def __post_init__(self):
        n, g = self.n, self.table
        if self.mats.shape != (g.order, 2, 2) or self.offs.shape != (g.order, 2):
            raise ValueError("action arrays do not match the group order")
        e = g.identity
        if not (
            np.array_equal(self.mats[e] % n, np.eye(2, dtype=np.int64) % n)
            and np.array_equal(self.offs[e] % n, np.zeros(2, dtype=np.int64))
        ):
            raise HypothesisViolation("identity must act trivially")
        # exact over the generators: the elements acting compatibly with
        # every x form a set closed under the product
        am, ao = self.mats[g.gens], self.offs[g.gens]
        k = g.mul[g.gens]
        prod_m = np.einsum("sij,xjk->sxik", am, self.mats) % n
        prod_o = (np.einsum("sij,xj->sxi", am, self.offs) + ao[:, None]) % n
        if not (
            np.array_equal(prod_m, self.mats[k] % n)
            and np.array_equal(prod_o, self.offs[k] % n)
        ):
            raise HypothesisViolation("action is not a homomorphism")


def affine_torus_group(
    n: int,
    gens: Iterable[tuple],
    name: str = "",
    cap: int = DEFAULT_ORDER_CAP,
) -> AffineTorusAction:
    """Closure of affine generators ((2x2 matrix), offset) acting on (Z_n)^2."""

    def norm(mat, off) -> tuple:
        (p, q), (r, s) = mat
        u, v = off
        return (p % n, q % n, r % n, s % n, u % n, v % n)

    def prod(x: tuple, y: tuple) -> tuple:
        ap, aq, ar, as_, au, av = x
        bp, bq, br, bs, bu, bv = y
        return (
            (ap * bp + aq * br) % n,
            (ap * bq + aq * bs) % n,
            (ar * bp + as_ * br) % n,
            (ar * bq + as_ * bs) % n,
            (ap * bu + aq * bv + au) % n,
            (ar * bu + as_ * bv + av) % n,
        )

    ident = (1 % n, 0, 0, 1 % n, 0, 0)
    table, index = build_from_generators(
        ident,
        [norm(m, o) for m, o in gens],
        prod,
        cap=cap,
        labeler=lambda e: f"[{e[0]},{e[1]};{e[2]},{e[3]}]+({e[4]},{e[5]})",
        name=name or f"affine({n})",
    )
    mats = np.zeros((table.order, 2, 2), dtype=np.int64)
    offs = np.zeros((table.order, 2), dtype=np.int64)
    for elem, i in index.items():
        mats[i] = [[elem[0], elem[1]], [elem[2], elem[3]]]
        offs[i] = [elem[4], elem[5]]
    return AffineTorusAction(n, table, mats, offs)


def b_n_affine(n: int, cap: int = DEFAULT_ORDER_CAP) -> AffineTorusAction:
    """Affine model of the order-6 torus extension; faithful for n >= 3."""
    ident = ((1, 0), (0, 1))
    return affine_torus_group(
        n,
        [(CHI_MATRIX, (0, 0)), (ident, (1, 0)), (ident, (0, 1))],
        name=f"B_{n}(affine)",
        cap=cap,
    )


@dataclass
class TorIndexResult:
    translation_subgroup: SubgroupMask
    index: int
    invariant_factors: list[int]


def tor_index_bound_check(action: AffineTorusAction) -> TorIndexResult:
    """Extract the translation kernel and check the order-6 index bound.

    The kernel are the elements acting by pure translations; it must be
    abelian, generated by two elements, and of index at most six.
    """
    n, g = action.n, action.table
    eye = np.eye(2, dtype=np.int64) % n
    bits = np.array([np.array_equal(action.mats[i] % n, eye) for i in range(g.order)])
    mask = SubgroupMask(g, bits)
    index = g.order // mask.size
    if index > 6:
        raise IndexExceedsSix(f"translation subgroup has index {index}")
    if not mask.is_abelian():
        raise HypothesisViolation("translation kernel is not abelian")
    sub, _ = subgroup_table(g, mask)
    factors = abelian_invariant_factors(sub)
    if len(factors) > 2:
        raise HypothesisViolation("translation kernel needs more than two generators")
    return TorIndexResult(mask, index, factors)
