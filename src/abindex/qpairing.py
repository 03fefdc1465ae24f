"""Commutator pairing on central extensions with abelian quotient.

For a group G with a central subgroup G0 and abelian quotient B, the pairing
sends a pair of quotient elements to the commutator of any lifts.  The value
is lift-independent, biadditive, and controls how far the extension is from
abelian; everything here is checked by exhaustive table arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .group_core import (
    GroupTable,
    Homomorphism,
    SubgroupMask,
    _blocks,
    abelian_invariant_factors,
    all_element_orders,
    center,
    check_fits,
    closure,
    commutator_subgroup,
    commutators,
    is_cyclic,
    prime_power_base,
    quotient_by_normal,
)
from .heisenberg import gamma_n

# bytes per |B|^2 entry verify_q_properties holds at its peak; tracemalloc reads 82-83
# on Gamma_n over its center at n = 12 to 31, 90.3 at n = 32 and 40 (int32 indices)
PAIRING_BYTES_PER_ENTRY = 91


@dataclass
class CentralData:
    """A group with a chosen central subgroup and its abelian quotient, whose
    projection ``eta`` is the one ``quotient_by_normal`` builds, lifts and all."""

    g: GroupTable
    gamma0: SubgroupMask
    eta: Homomorphism
    gammaB: GroupTable


def central_data_from(g: GroupTable, gamma0: SubgroupMask) -> CentralData:
    """Assemble the pairing habitat; rejects non-central or non-abelian data."""
    if not np.all(center(g).bits[gamma0.indices()]):
        raise InvalidInput("the chosen subgroup is not central")
    gammaB, eta = quotient_by_normal(g, gamma0)
    if not gammaB.is_abelian():
        raise InvalidInput("quotient by the chosen subgroup is not abelian")
    return CentralData(g, gamma0, eta, gammaB)


def gamma_central_data(n: int) -> CentralData:
    """The mod-n Heisenberg group over its center; quotient is (Z_n)^2."""
    g = gamma_n(n)
    return central_data_from(g, center(g))


def q_pair(data: CentralData, a: int, b: int) -> int:
    """Commutator of lifts of two quotient elements, as an element of G0.

    Tries a second lift on each side when one exists; the result must not
    depend on the choice.
    """
    emap = np.asarray(data.eta.map)
    la = np.flatnonzero(emap == a)
    lb = np.flatnonzero(emap == b)
    vals = commutators(data.g, la[[0, -1, 0]], lb[[0, 0, -1]])
    if not (vals == vals[0]).all():
        raise RuntimeError("pairing value depends on the lift; data is not central")
    out = int(vals[0])
    if not data.gamma0.contains(out):
        raise RuntimeError("pairing value escaped the central subgroup")
    return out


def q_table(data: CentralData) -> np.ndarray:
    """The full pairing as a (|B|, |B|) array of G-element indices, on the
    smallest lift of each quotient element (``eta.lifts``)."""
    lifts = data.eta.lifts
    return commutators(data.g, lifts[:, None], lifts[None, :]).astype(np.int64)


def verify_lift_independence(data: CentralData) -> bool:
    """Exhaustive: every pair of lifts gives the same commutator.  The pairs
    are compared a block of rows at a time, up to the first mismatch."""
    every = np.arange(data.g.order)
    emap = np.asarray(data.eta.map)
    q = q_table(data)
    return all(np.array_equal(commutators(data.g, every[lo:hi, None], every),
                              q[emap[lo:hi, None], emap])
               for lo, hi in _blocks(data.g.order))


@dataclass
class QProperty:
    name: str
    law: str
    passed: bool
    counterexample: Optional[tuple] = None


def _property(name: str, law: str, holds: np.ndarray) -> QProperty:
    """The law holds where ``holds`` is true; its first false index is the counterexample."""
    bad = np.argwhere(~holds)
    if len(bad) == 0:
        return QProperty(name, law, True)
    return QProperty(name, law, False, tuple(int(v) for v in bad[0]))


def _biadditivity(data: CentralData, Q: np.ndarray) -> QProperty:
    """Exact check of Q(ab,c) = Q(a,c)Q(b,c) and Q(a,bc) = Q(a,b)Q(a,c) for all
    a, b, c, with the unit laws Q(a,a) = Q(1,a) = Q(a,1) = 1.

    The additive laws are checked only with a (left) or b (right) a generator
    s of B, in O(|S| |B|^2).  That is exact: the a with Q(ab,c) = Q(a,c)Q(b,c)
    for all b, c form a set closed under the product, since for a, a' in it
    Q(aa'b,c) = Q(a,c)Q(a'b,c) = Q(a,c)Q(a',c)Q(b,c) = Q(aa',c)Q(b,c); the
    unit law Q(1,c) = 1 puts 1 in it, so once it holds every generator it is
    all of B (in a finite group the products of generators are the whole
    group).  The b with Q(a,bc) = Q(a,b)Q(a,c) for all a, c are its right-hand
    twin.  The counterexample is the first failure among (a, 1, 1) for the
    unit laws at a, (s, b, c) for the left law and (a, s, c) for the right.
    """
    mulB, mulg, e = data.gammaB.mul, data.g.mul, data.g.identity
    one, gens = data.gammaB.identity, data.gammaB.gens
    units = (np.diagonal(Q) == e) & (Q[one] == e) & (Q[:, one] == e)
    left = Q[mulB[gens]] == mulg[Q[gens][:, None, :], Q[None, :, :]]  # [i, b, c] at (s_i, b, c)
    right = Q[:, mulB[gens]] == mulg[Q[:, gens][:, :, None], Q[:, None, :]]  # [a, i, c]
    bad = ([(a, one, one) for a in np.flatnonzero(~units)[:1]]
           + [(gens[i], b, c) for i, b, c in np.argwhere(~left)[:1]]
           + [(a, gens[i], c) for a, i, c in np.argwhere(~right)[:1]])
    law = "Q(ab,c)=Q(a,c)Q(b,c), Q(a,bc)=Q(a,b)Q(a,c), Q(a,a)=Q(1,a)=Q(a,1)=1"
    if not bad:
        return QProperty("biadditive", law, True)
    return QProperty("biadditive", law, False, tuple(int(v) for v in bad[0]))


def verify_q_properties(data: CentralData) -> list[QProperty]:
    """Exact check of the four pairing laws: biadditivity on generators of
    the quotient, the other three on all pairs.  A quotient whose pairing
    arrays would not fit is refused first, before any is built."""
    nb = data.gammaB.order
    check_fits(nb * nb * PAIRING_BYTES_PER_ENTRY,
               f"the pairing arrays of a quotient of order {nb}")
    Q = q_table(data)
    e = data.g.identity
    ordB = all_element_orders(data.gammaB)
    ordQ = all_element_orders(data.g)[Q]
    base = np.array([prime_power_base(int(o)) for o in ordB])
    pa, pb = base[:, None], base[None, :]
    return [
        _biadditivity(data, Q),
        _property("order-divides-gcd", "the order of Q(a,b) divides gcd(ord(a), ord(b))",
                  np.gcd.outer(ordB, ordB) % ordQ == 0),
        _property("cross-prime-vanishing",
                  "Q(a,b)=1 when a and b are elements of coprime prime-power order",
                  ~((pa > 0) & (pb > 0) & (pa != pb)) | (Q == e)),
        _property("p-order-bound",
                  "for p-elements a, b the order of Q(a,b) is at most max(ord(a), ord(b))",
                  ~((pa > 0) & (pa == pb)) | (ordQ <= np.maximum.outer(ordB, ordB))),
    ]


def _require_dc_hypotheses(data: CentralData) -> SubgroupMask:
    if len(abelian_invariant_factors(data.gammaB)) > 2:
        raise InvalidInput("quotient is not generated by two elements")
    comm = commutator_subgroup(data.g)
    if not np.all(center(data.g).bits[comm.indices()]):
        raise InvalidInput("commutator subgroup is not central")
    if not is_cyclic(comm):
        raise InvalidInput("commutator subgroup is not cyclic")
    return comm


@dataclass
class DcBoundReport:
    d_c: int
    gamma_b_order: int
    bound_holds: bool
    generator_attains: bool


def check_dc_bound(data: CentralData) -> DcBoundReport:
    """Verify d_c^2 <= |B| and that a single pairing value generates [G,G]."""
    comm = _require_dc_hypotheses(data)
    d_c = comm.size
    nb = data.gammaB.order
    Q = q_table(data)
    ordQ = all_element_orders(data.g)[Q]
    top = int(ordQ.max()) if Q.size else 1
    return DcBoundReport(
        d_c=d_c,
        gamma_b_order=nb,
        bound_holds=d_c * d_c <= nb,
        generator_attains=top == d_c,
    )


@dataclass
class PullbackResult:
    gamma_ab: SubgroupMask
    index: int
    cyclic_generator: int  # element of the quotient spanning the chosen factor


def abelian_pullback(data: CentralData) -> PullbackResult:
    """Preimage of a maximal cyclic subgroup of the quotient; always abelian.

    The quotient splits as Z_{n1} x Z_{n2} with n2 | n1; pulling back the
    larger factor gives an abelian subgroup of index n2 = min(n1, n2),
    which is sharper than the square-root bound it certifies.
    """
    gb = data.gammaB
    factors = abelian_invariant_factors(gb)
    if len(factors) > 2:
        raise InvalidInput("quotient is not generated by two elements")
    expected_index = factors[1] if len(factors) == 2 else 1
    orders = all_element_orders(gb)
    x1 = int(np.flatnonzero(orders == orders.max())[0])
    cyc = closure(gb, [x1])
    index = gb.order // cyc.size
    if index != expected_index:
        raise RuntimeError("cyclic factor extraction disagrees with invariants")
    if index * index > gb.order:
        raise RuntimeError("cyclic subgroup misses the square-root bound")
    bits = cyc.bits[np.asarray(data.eta.map)]
    mask = SubgroupMask(data.g, bits)
    if not mask.is_abelian():
        raise RuntimeError("pullback of a cyclic subgroup must be abelian")
    return PullbackResult(mask, index, x1)
