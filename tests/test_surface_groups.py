"""Tests for rotation groups of the sphere and torus point arithmetic."""

import numpy as np
import pytest

from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import surface_groups as sg
from abindex.errors import InvalidInput
from helpers import direct_product, traced_peak


def perm_parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


# ---------------------------------------------------------------------------
# rotation groups


def test_kind_parsing_and_validation():
    assert str(sg.cyclic_kind(5)) == "cyclic:5"
    with pytest.raises(ValueError):
        sg.RotationGroupKind("dihedral", 2)
    with pytest.raises(ValueError):
        sg.RotationGroupKind("cube")


def test_rotation_group_orders():
    assert sg.rotation_group(sg.TETRA).order == 12
    assert sg.rotation_group(sg.OCTA).order == 24
    assert sg.rotation_group(sg.ICOSA).order == 60
    assert sg.rotation_group(sg.cyclic_kind(7)).order == 7
    d3 = sg.rotation_group(sg.dihedral_kind(3))
    assert d3.order == 6
    assert not d3.is_abelian()


def test_automorphisms_of_the_esfera_groups():
    # |Aut| is phi(n) for C_n, n phi(n) for D_n (n >= 3), 24 for A4 and S4, 120 for A5
    expected = {
        sg.cyclic_kind(2): 1, sg.cyclic_kind(3): 2, sg.cyclic_kind(5): 4,
        sg.cyclic_kind(6): 2, sg.dihedral_kind(3): 6, sg.dihedral_kind(4): 8,
        sg.dihedral_kind(5): 20, sg.dihedral_kind(6): 12,
        sg.TETRA: 24, sg.OCTA: 24, sg.ICOSA: 120,
    }
    for kind, count in expected.items():
        g = sg.rotation_group(kind)
        auts = gc.automorphisms(g)
        assert len(auts) == count, kind
        assert len({perm.tobytes() for perm in auts}) == count
        assert all(gc.Homomorphism(g, g, perm).verify() for perm in auts)


def test_tetra_icosa_are_even_permutations():
    for kind in (sg.TETRA, sg.ICOSA):
        g = sg.rotation_group(kind)
        for lab in g.labels:
            assert perm_parity(eval(lab)) == 0


def test_octa_is_full_symmetric():
    g = sg.rotation_group(sg.OCTA)
    parities = {perm_parity(eval(lab)) for lab in g.labels}
    assert parities == {0, 1}


# ---------------------------------------------------------------------------
# distinguished subgroups


def test_witness_cyclic_is_whole_group():
    g = sg.rotation_group(sg.cyclic_kind(6))
    wit = sg.esfera_witness(g, sg.cyclic_kind(6))
    assert wit.h_prime.size == 6
    assert wit.sigma_count == 1


def test_witness_dihedral_rotation_subgroup():
    for n in (3, 4, 5, 6):
        kind = sg.dihedral_kind(n)
        g = sg.rotation_group(kind)
        wit = sg.esfera_witness(g, kind)
        assert wit.h_prime.size == n
        assert wit.sigma_count == 1
        assert wit.inverting_element is not None  # a reflection inverts rotations


def test_witness_tetra():
    g = sg.rotation_group(sg.TETRA)
    wit = sg.esfera_witness(g, sg.TETRA)
    assert wit.h_prime.size == 2
    assert wit.sigma_count == 3
    assert wit.inverting_element is not None


def test_witness_octa():
    g = sg.rotation_group(sg.OCTA)
    wit = sg.esfera_witness(g, sg.OCTA)
    assert wit.h_prime.size == 4
    assert wit.sigma_count == 3
    assert wit.inverting_element is not None


def test_witness_icosa_orbit_is_sylow_count():
    g = sg.rotation_group(sg.ICOSA)
    wit = sg.esfera_witness(g, sg.ICOSA)
    assert wit.h_prime.size == 5
    orders = gc.all_element_orders(g)
    assert wit.sigma_count == int(np.count_nonzero(orders == 5)) // 4 == 6
    assert wit.sigma_count <= 12
    assert wit.inverting_element is not None


def test_witness_orbits_within_bound_everywhere():
    kinds = [sg.cyclic_kind(4), sg.dihedral_kind(3), sg.dihedral_kind(6),
             sg.TETRA, sg.OCTA, sg.ICOSA]
    for kind in kinds:
        g = sg.rotation_group(kind)
        assert sg.esfera_witness(g, kind).sigma_count <= 12


def test_inverting_element_actually_inverts():
    g = sg.rotation_group(sg.OCTA)
    wit = sg.esfera_witness(g, sg.OCTA)
    h = wit.inverting_element
    for x in wit.h_prime.indices():
        assert g.mul[g.mul[h, x], g.inv[h]] == g.inv[x]


def test_witness_rejects_trivial_group():
    g = sg.rotation_group(sg.cyclic_kind(1))
    with pytest.raises(InvalidInput, match="no nontrivial subgroup"):
        sg.esfera_witness(g, sg.cyclic_kind(1))


def test_odd_p_subgroups_cyclic_across_families():
    kinds = [sg.cyclic_kind(9), sg.cyclic_kind(15), sg.dihedral_kind(5),
             sg.dihedral_kind(9), sg.TETRA, sg.OCTA, sg.ICOSA]
    for kind in kinds:
        g = sg.rotation_group(kind)
        for p in (3, 5, 7, 11):
            if g.order % p == 0:
                sub, _ = gc.subgroup_table(g, gc.sylow(g, p))
                assert sg.p_group_on_sphere_is_cyclic(p, sub)


def test_p_group_check_signature():
    c9 = gc.cyclic_table(9)
    assert sg.p_group_on_sphere_is_cyclic(3, c9)
    v4 = direct_product(gc.cyclic_table(2), gc.cyclic_table(2))
    with pytest.raises(ValueError):
        sg.p_group_on_sphere_is_cyclic(2, v4)


# ---------------------------------------------------------------------------
# torus point groups


def test_point_orders_realized_at_bound_one():
    assert sg.torus_point_orders(1) == {1, 2, 3, 4, 6}


@pytest.mark.parametrize("bound", [2, 3, 5, 10])
def test_point_orders_exact(bound):
    assert sg.torus_point_orders(bound) == {1, 2, 3, 4, 6}


@pytest.mark.parametrize("bound", range(1, 7))
def test_det_one_matrices_match_the_four_loop(bound):
    span = range(-bound, bound + 1)
    loop = sorted((a, b, c, d) for a in span for b in span for c in span for d in span
                  if a * d - b * c == 1)
    mats = sg.det_one_matrices(bound)
    assert mats.shape[1:] == (2, 2)
    got = mats.reshape(-1, 4).tolist()
    assert len(got) == len(loop) and sorted(map(tuple, got)) == loop


def test_point_orders_stay_below_one_megabyte():
    # the (2B+1)^4 grid of all quadruples would take 8.9 MB at B = 10
    orders, peak = traced_peak(lambda: sg.torus_point_orders(10))
    assert orders == {1, 2, 3, 4, 6}
    assert peak < 1 << 20, peak


def test_specific_matrix_orders():
    mats = [[[0, -1], [1, 0]], [[0, -1], [1, 1]], [[-1, 1], [-1, 0]],
            [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[1, 1], [0, 1]]]
    # the shear has infinite order, reported as 0
    assert sg._matrix_orders(np.array(mats)).tolist() == [4, 6, 3, 1, 2, 0]


def test_matrix_orders_match_a_scalar_power_loop():
    # every det-one matrix with entries in [-3, 3], against exact powers up to 12
    def order(a, b, c, d):
        cur = (a, b, c, d)
        for k in range(1, 13):
            if cur == (1, 0, 0, 1):
                return k
            p, q, r, s = cur
            cur = (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
        return 0

    span = range(-3, 4)
    mats = [(a, b, c, d) for a in span for b in span for c in span for d in span
            if a * d - b * c == 1]
    got = sg._matrix_orders(np.array(mats).reshape(-1, 2, 2)).tolist()
    assert got == [order(*m) for m in mats]
    assert set(got) == {0, 1, 2, 3, 4, 6}


# ---------------------------------------------------------------------------
# affine torus actions


def test_affine_group_of_pure_translations():
    act = sg.affine_torus_group(hb.b_n_components(4), 6)
    assert act.table.order == 16
    res = sg.tor_index_bound_check(act)
    assert res.index == 1
    assert res.invariant_factors == [4, 4]


def test_affine_bn_model_has_index_six():
    for n in (3, 4, 5, 8):
        act = sg.b_n_affine(hb.b_n_components(n))
        assert act.table.order == 6 * n * n
        res = sg.tor_index_bound_check(act)
        assert res.index == 6
        assert res.translation_subgroup.size == n * n


def test_affine_half_turn_extension_has_index_two():
    act = sg.affine_torus_group(hb.b_n_components(5), 3)
    assert act.table.order == 50
    res = sg.tor_index_bound_check(act)
    assert res.index == 2


def test_affine_action_with_large_point_group_rejected():
    # a cyclic point group of order 8 on the 5x5 torus, no translations:
    # M^2 = 2I, and 2 has order 4 mod 5
    m = np.array([[0, 2], [1, 0]])
    mats = np.stack([np.linalg.matrix_power(m, k) % 5 for k in range(8)])
    act = sg.AffineTorusAction(5, gc.cyclic_table(8), mats, np.zeros((8, 2), dtype=np.int64))
    with pytest.raises(InvalidInput, match="translation subgroup has index 8"):
        sg.tor_index_bound_check(act)


def test_bn_affine_degenerates_below_three():
    # mod 2 the half turn chi^3 = -I acts as the identity, and mod 1 every
    # element does, so the action is not effective
    for n in (1, 2):
        with pytest.raises(InvalidInput, match="not effective"):
            sg.b_n_affine(hb.b_n_components(n))
