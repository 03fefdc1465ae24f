"""Finite rotation groups of the sphere and point-group arithmetic of the torus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInput
from .group_core import (
    GroupTable,
    SubgroupMask,
    _index_dtype,
    abelian_invariant_factors,
    all_element_orders,
    check_table_order,
    closure,
    cyclic_table,
    is_cyclic,
    sigma_orbit,
    subgroup_table,
)
from .heisenberg import BnData, chi_power


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

    @property
    def order(self) -> int:
        """The group's order: n, 2n, 12, 24 or 60."""
        if self.tag == "cyclic":
            return self.n
        if self.tag == "dihedral":
            return 2 * self.n
        return {"tetra": 12, "octa": 24, "icosa": 60}[self.tag]


TETRA = RotationGroupKind("tetra")
OCTA = RotationGroupKind("octa")
ICOSA = RotationGroupKind("icosa")


def cyclic_kind(n: int) -> RotationGroupKind:
    return RotationGroupKind("cyclic", n)


def dihedral_kind(n: int) -> RotationGroupKind:
    return RotationGroupKind("dihedral", n)


def _perm_group(points: int, gens: Iterable[tuple], name: str) -> GroupTable:
    """The group generated by permutations of ``range(points)``, its elements
    labelled and listed in breadth-first order under left multiplication
    (identity first), its table proved by ``GroupTable``, and refused by
    ``check_table_order`` before it is filled."""
    gens = list(gens)
    elements = [tuple(range(points))]
    index = {elements[0]: 0}
    parent, via = [-1], [-1]
    rows = [[] for _ in gens]  # rows[j][i]: the index of gens[j] elements[i]
    for i, a in enumerate(elements):  # a queue: the list grows while it is read
        for j, s in enumerate(gens):
            b = tuple(s[x] for x in a)  # right-to-left: (s a)(x) = s[a[x]]
            k = index.get(b)
            if k is None:
                k = index[b] = len(elements)
                elements.append(b)
                parent.append(i)
                via.append(j)
            rows[j].append(k)
    m = len(elements)
    check_table_order(m)
    rows = np.array(rows, dtype=_index_dtype(m))
    mul = np.empty((m, m), dtype=rows.dtype)
    mul[0] = np.arange(m)
    # (s a) b = s (a b): row t is its parent's row mapped through its generator's row
    for t in range(1, m):
        mul[t] = rows[via[t]].take(mul[parent[t]])
    return GroupTable(mul, labels=[str(e) for e in elements], name=name)


def rotation_group(kind: RotationGroupKind) -> GroupTable:
    """Concrete model of a finite rotation group, exact permutation arithmetic.

    The three exceptional groups are permutation-realized (even permutations
    of 4 points, all permutations of 4 points, even permutations of 5
    points) so no irrational rotation coordinates are needed.  A kind whose
    table would not fit is refused by its order before any closure runs.
    """
    check_table_order(kind.order)
    if kind.tag == "cyclic":
        return cyclic_table(kind.n, name=f"C{kind.n}")
    if kind.tag == "dihedral":
        n = kind.n
        rot = tuple((i + 1) % n for i in range(n))
        refl = tuple((-i) % n for i in range(n))
        return _perm_group(n, [rot, refl], f"D{2 * n}")
    if kind.tag == "tetra":
        return _perm_group(4, [(1, 0, 3, 2), (1, 2, 0, 3)], "G12")
    if kind.tag == "octa":
        return _perm_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)], "G24")
    return _perm_group(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "G60")


@dataclass
class EsferaWitness:
    """Distinguished cyclic subgroup of a rotation group with its orbit data."""

    h_prime: SubgroupMask
    sigma_count: int
    inverting_element: Optional[int]

    def __post_init__(self):
        if self.h_prime.size < 2 or not is_cyclic(self.h_prime):
            raise InvalidInput("witness subgroup must be nontrivial cyclic")


def _find_inverting_element(g: GroupTable, mask: SubgroupMask) -> Optional[int]:
    idx = mask.indices()
    conj = g.mul[g.mul[:, idx], g.inv[:, None]]  # row h: h x h^-1 for each x in the mask
    hits = np.flatnonzero((conj == g.inv[idx]).all(axis=1))
    return int(hits[0]) if len(hits) else None


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
        raise InvalidInput("the trivial group has no nontrivial subgroup")
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


def p_group_on_sphere_is_cyclic(p: int, g: GroupTable | SubgroupMask) -> bool:
    """Whether a p-group (p > 2) acting on the sphere, a table or a subgroup
    mask, is cyclic.

    The caller asserts that g embeds in a rotation group; this decides
    cyclicity, the property the odd-prime case analysis needs.
    """
    if p <= 2:
        raise ValueError("only odd primes are covered by this check")
    return is_cyclic(g)


# ---------------------------------------------------------------------------
# torus point groups


def _matrix_orders(mats: np.ndarray) -> np.ndarray:
    """Orders of a stack of SL(2,Z) matrices, shape (m, 2, 2); 0 where infinite.

    Finite order happens exactly for trace in {-1, 0, 1} or +-identity, which
    with det one are the matrices whose entries are those of I up to sign.
    Only these are powered, so no entry can overflow.
    """
    eye = np.eye(2, dtype=np.int64)
    trace = mats[:, 0, 0] + mats[:, 1, 1]
    finite = (np.abs(trace) <= 1) | (np.abs(mats) == eye).all(axis=(1, 2))
    base = mats[finite]
    found = np.zeros(len(base), dtype=np.int64)
    cur = base
    for k in range(1, 7):
        found[(found == 0) & (cur == eye).all(axis=(1, 2))] = k
        cur = cur @ base
    if (found == 0).any():
        raise RuntimeError("trace criterion violated; arithmetic bug")
    orders = np.zeros(len(mats), dtype=np.int64)
    orders[finite] = found
    return orders


def det_one_matrices(entry_bound: int) -> np.ndarray:
    """The integer matrices of determinant one with entries in [-B, B], for
    B the bound, as an (m, 2, 2) stack, found in O(B^3) by solving
    a d - b c = 1 for d: when a != 0, d = (1 + b c) / a where a divides
    1 + b c and |d| <= B; when a = 0, b c = -1 and d is free."""
    span = np.arange(-entry_bound, entry_bound + 1)
    a, b, c = np.ix_(span, span, span)
    num, den = 1 + b * c, np.where(a == 0, 1, a)
    d = num // den
    ia, ib, ic = np.nonzero((a != 0) & (num % den == 0) & (np.abs(d) <= entry_bound))
    solved = np.stack([span[ia], span[ib], span[ic], d[ia, ib, ic]], axis=1)
    free = [(0, s, -s, x) for s in (1, -1) for x in span]
    return np.concatenate([solved, free]).reshape(-1, 2, 2)


def torus_point_orders(entry_bound: int) -> set[int]:
    """Orders of finite-order SL(2,Z) matrices with entries up to the bound."""
    if entry_bound < 1:
        raise ValueError("entry bound must be positive")
    orders = _matrix_orders(det_one_matrices(entry_bound))
    return set(orders[orders > 0].tolist())


# ---------------------------------------------------------------------------
# affine actions on the n x n torus


@dataclass
class AffineTorusAction:
    """A group together with its effective action on (Z_n)^2 by affine maps u -> Au + b."""

    n: int
    table: GroupTable
    mats: np.ndarray  # (order, 2, 2) mod n
    offs: np.ndarray  # (order, 2) mod n

    def __post_init__(self):
        n, g = self.n, self.table
        if self.mats.shape != (g.order, 2, 2) or self.offs.shape != (g.order, 2):
            raise ValueError("action arrays do not match the group order")
        eye = np.eye(2, dtype=np.int64) % n
        trivial = (self.mats % n == eye).all(axis=(1, 2)) & (self.offs % n == 0).all(axis=1)
        if not trivial[g.identity]:
            raise InvalidInput("identity must act trivially")
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
            raise InvalidInput("action is not a homomorphism")
        # only the identity may act trivially; exact, given the homomorphism
        if np.count_nonzero(trivial) > 1:
            raise InvalidInput("action is not effective")


def affine_torus_group(bn: BnData, step: int) -> AffineTorusAction:
    """The subgroup of B_n whose point part lies in <chi^step>, acting on (Z_n)^2.

    t(u, v) chi^k sends x to chi^k x + (u, v), read off the digits (k, u, v)
    of the B_n table; the action's own check certifies it.  Step 1 is B_n,
    kept as its own table (a subgroup table would add a lookup per product);
    step 3 the translations and the half turn (chi^3 = -I); step 6 the
    translations.
    """
    n, g = bn.n, bn.table
    k, u, v = bn.coords
    keep = k % step == 0
    if step > 1:
        g, _ = subgroup_table(g, SubgroupMask(g, keep))
    mats = np.stack([chi_power(n, j) for j in range(6)])[k[keep]]
    return AffineTorusAction(n, g, mats, np.stack([u[keep], v[keep]], axis=1))


def b_n_affine(bn: BnData) -> AffineTorusAction:
    """B_n acting on the n x n torus by its affine maps, effective for n >= 3
    as the action's check certifies; below that it raises InvalidInput,
    since chi^3 = -I is I mod 2."""
    return affine_torus_group(bn, 1)


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
    bits = (action.mats % n == eye).all(axis=(1, 2))
    mask = SubgroupMask(g, bits)
    index = g.order // mask.size
    if index > 6:
        raise InvalidInput(f"translation subgroup has index {index}")
    if not mask.is_abelian():
        raise InvalidInput("translation kernel is not abelian")
    factors = abelian_invariant_factors(mask)
    if len(factors) > 2:
        raise InvalidInput("translation kernel needs more than two generators")
    return TorIndexResult(mask, index, factors)
