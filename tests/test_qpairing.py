"""Tests for the commutator pairing on central extensions."""

import numpy as np
import pytest

from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import qpairing as qp
from abindex import surface_groups as sg
from abindex.errors import HypothesisViolation, NotCentral, QuotientNotAbelian
from helpers import center_projection, direct_product, traced_peak


def s3():
    return sg._perm_group(3, [(1, 0, 2), (1, 2, 0)], "S3")


def abelian_data(n=12, k=4):
    g = gc.cyclic_table(n)
    sub = gc.closure(g, [k])
    return qp.central_data_from(g, sub)


# ---------------------------------------------------------------------------
# assembling central data


def test_gamma_data_quotient_is_torus():
    for n in (2, 3, 6):
        data = qp.gamma_central_data(n)
        assert data.gammaB.order == n * n
        assert gc.abelian_invariant_factors(data.gammaB) == [n, n]
        assert data.eta.verify()


def test_abelian_group_over_trivial_center():
    g = gc.cyclic_table(10)
    data = qp.central_data_from(g, gc.closure(g, [g.identity]))
    assert data.gammaB.order == 10


def test_nonabelian_quotient_rejected():
    g2 = hb.gamma_n(2)
    with pytest.raises(QuotientNotAbelian):
        qp.central_data_from(g2, gc.closure(g2, [g2.identity]))


def test_non_central_subgroup_rejected():
    g = s3()
    rot = gc.commutator_subgroup(g)  # normal but not central
    with pytest.raises(NotCentral):
        qp.central_data_from(g, rot)


# ---------------------------------------------------------------------------
# the pairing


def test_q_pair_on_standard_generators():
    n = 4
    data = qp.gamma_central_data(n)
    emap = np.asarray(data.eta.map)
    a = int(emap[hb.gamma_elem_index(n, 1, 0, 0)])
    b = int(emap[hb.gamma_elem_index(n, 0, 1, 0)])
    assert qp.q_pair(data, a, b) == hb.gamma_elem_index(n, 0, 0, 1)


def test_q_pair_diagonal_and_unit():
    data = qp.gamma_central_data(4)
    e = data.g.identity
    for a in range(data.gammaB.order):
        assert qp.q_pair(data, a, a) == e
        assert qp.q_pair(data, a, data.gammaB.identity) == e
        assert qp.q_pair(data, data.gammaB.identity, a) == e


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_q_properties_pass_on_heisenberg(n):
    data = qp.gamma_central_data(n)
    for prop in qp.verify_q_properties(data):
        assert prop.passed, (n, prop.name, prop.counterexample)


def test_q_properties_trivial_on_abelian():
    data = abelian_data()
    table = qp.q_table(data)
    assert np.all(table == data.g.identity)
    assert all(p.passed for p in qp.verify_q_properties(data))


def test_q_mixed_primes_vanish_in_gamma_6():
    data = qp.gamma_central_data(6)
    ordB = gc.all_element_orders(data.gammaB)
    twos = np.flatnonzero(ordB == 2)
    threes = np.flatnonzero(ordB == 3)
    for a in twos:
        for b in threes:
            assert qp.q_pair(data, int(a), int(b)) == data.g.identity


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10])
def test_lift_independence_exhaustive(n):
    # exhaustive over every pair of lifts, for group orders up to 1000
    assert qp.verify_lift_independence(qp.gamma_central_data(n))


def test_lift_independence_checks_blocks_of_rows():
    # one all-pairs commutator array of Gamma_10 would trace 10.6 MB
    data = qp.gamma_central_data(10)
    ok, peak = traced_peak(lambda: qp.verify_lift_independence(data))
    assert ok and peak < 2 << 20, peak
    # a lift moved to another coset is caught in the last block of rows
    emap = np.asarray(data.eta.map).copy()
    last = data.g.order - 1
    assert emap[1] != emap[last]
    emap[last] = emap[1]
    moved = qp.CentralData(data.g, data.gamma0,
                           gc.Homomorphism(data.g, data.gammaB, emap, data.eta.lifts), data.gammaB)
    assert not qp.verify_lift_independence(moved)


def test_q_image_generates_commutator():
    for n in (2, 3, 4):
        data = qp.gamma_central_data(n)
        vals = set(int(v) for v in qp.q_table(data).ravel())
        assert gc.closure(data.g, vals) == gc.commutator_subgroup(data.g)


def test_property_report_shape():
    props = qp.verify_q_properties(qp.gamma_central_data(3))
    assert [p.name for p in props] == [
        "biadditive", "order-divides-gcd", "cross-prime-vanishing", "p-order-bound",
    ]


def test_biadditivity_counterexample_on_s3():
    # S3 over the trivial subgroup, assembled by hand (central_data_from would
    # refuse the nonabelian quotient), so the commutator pairing on S3 itself
    # is checked and must fail
    g = s3()
    trivial = gc.SubgroupMask(g, np.arange(g.order) == g.identity)
    q, eta = gc.quotient_by_normal(g, trivial)  # g itself, with the identity lift
    data = qp.CentralData(g, trivial, eta, q)
    prop = qp.verify_q_properties(data)[0]
    assert prop.name == "biadditive" and prop.passed is False
    a, b, c = prop.counterexample
    Q, m = qp.q_table(data), g.mul
    e = g.identity
    law_at = (Q[m[a, b], c] == m[Q[a, c], Q[b, c]] and Q[a, m[b, c]] == m[Q[a, b], Q[a, c]]
              and Q[a, a] == e and Q[e, a] == e and Q[a, e] == e)
    assert not law_at


def pairing_on_itself(g):
    trivial = gc.SubgroupMask(g, np.arange(g.order) == g.identity)
    q, eta = gc.quotient_by_normal(g, trivial)
    return qp.CentralData(g, trivial, eta, q)


@pytest.mark.parametrize("n", [*range(2, 9), "S3", "S3xC2"])
def test_biadditivity_on_generators_equals_all_triples(n):
    # the commutator pairings on S3 and on S3 x C2 are not biadditive; the
    # first generator of S3 x C2 is central, so the laws hold at it
    if n == "S3":
        data = pairing_on_itself(s3())
    elif n == "S3xC2":
        data = pairing_on_itself(direct_product(s3(), gc.cyclic_table(2)))
    else:
        data = qp.gamma_central_data(n)
    Q, mB, mg = qp.q_table(data), data.gammaB.mul, data.g.mul
    e, one = data.g.identity, data.gammaB.identity
    every = (np.array_equal(Q[mB], mg[Q[:, None, :], Q[None, :, :]])
             and np.array_equal(Q[:, mB], mg[Q[:, :, None], Q[:, None, :]])
             and (np.diagonal(Q) == e).all() and (Q[one] == e).all() and (Q[:, one] == e).all())
    assert qp.verify_q_properties(data)[0].passed == every


# ---------------------------------------------------------------------------
# the commutator-order bound


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_dc_bound_tight_on_heisenberg(n):
    data = qp.gamma_central_data(n)
    rep = qp.check_dc_bound(data)
    assert rep.d_c == n
    assert rep.gamma_b_order == n * n
    assert rep.bound_holds
    assert rep.d_c**2 == rep.gamma_b_order  # equality witness
    assert rep.generator_attains


def test_dc_bound_abelian_degenerate():
    data = abelian_data()
    rep = qp.check_dc_bound(data)
    assert rep.d_c == 1
    assert rep.bound_holds and rep.generator_attains


def test_dc_hypotheses_enforced():
    z2cube = direct_product(
        direct_product(gc.cyclic_table(2), gc.cyclic_table(2)), gc.cyclic_table(2)
    )
    data = qp.central_data_from(z2cube, gc.closure(z2cube, [z2cube.identity]))
    with pytest.raises(HypothesisViolation):
        qp.check_dc_bound(data)  # quotient needs three generators


# ---------------------------------------------------------------------------
# abelian pullback


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pullback_on_heisenberg(n):
    data = qp.gamma_central_data(n)
    res = qp.abelian_pullback(data)
    assert res.index == n
    assert res.gamma_ab.size == n * n
    assert res.gamma_ab.is_abelian()
    assert gc.min_abelian_index(center_projection(data.g)).index == res.index


def test_pullback_trivial_quotient():
    g = gc.cyclic_table(5)
    data = qp.central_data_from(g, gc.SubgroupMask(g, np.ones(5, dtype=bool)))
    res = qp.abelian_pullback(data)
    assert res.index == 1
    assert res.gamma_ab.size == 5


def test_pullback_cyclic_quotient():
    g = gc.cyclic_table(8)
    data = qp.central_data_from(g, gc.closure(g, [4]))
    assert data.gammaB.order == 4
    res = qp.abelian_pullback(data)
    assert res.index == 1
    assert res.gamma_ab.size == 8
