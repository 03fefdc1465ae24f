"""Tests for the generic finite-group engine."""

import ast
import gc as garbage
import itertools
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import qpairing as qp
from abindex import surface_groups as sg
from abindex.errors import CapExceeded, InvalidInput, SearchTimeout
from helpers import (assert_key_forms_read_as, automorphisms_by_recursion, center_projection,
                     centralizer, dense, digit_places, digit_tree, direct_product, exponent,
                     invariant_factors_by_quotients, kernel_mask, table_from_json, traced_peak)


def perm_group(points, gens, name=""):
    return sg._perm_group(points, [tuple(p) for p in gens], name)


def perm_index(g):
    """Each permutation of ``g`` to its index, read back from the labels."""
    return {ast.literal_eval(lab): i for i, lab in enumerate(g.labels)}


def s3():
    g = perm_group(3, [(1, 0, 2), (1, 2, 0)], "S3")
    return g, perm_index(g)


def a4():
    return perm_group(4, [(1, 0, 3, 2), (1, 2, 0, 3)], "A4")


def a5():
    return perm_group(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "A5")


def s4():
    return perm_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)], "S4")


def dihedral(n):
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return perm_group(n, [rot, refl])


def brute_force_max_abelian(g):
    """Oracle: max |closure(S)| over commuting generator sets of size <= 3.

    Exact whenever every abelian subgroup is 3-generated, which holds for
    all groups this oracle is used on.
    """
    best = 1
    n = g.order
    mul = dense(g)
    commutes = mul == mul.T
    for i in range(n):
        best = max(best, gc.closure(g, [i]).size)
        for j in range(i + 1, n):
            if not commutes[i, j]:
                continue
            cl = gc.closure(g, [i, j])
            if cl.is_abelian():
                best = max(best, cl.size)
            for k in range(j + 1, n):
                if commutes[i, k] and commutes[j, k]:
                    cl = gc.closure(g, [i, j, k])
                    if cl.is_abelian():
                        best = max(best, cl.size)
    return best


def quaternion_group():
    units = {}
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a, b):
        sign = -1 if a.startswith("-") != b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        if ua == "1":
            out = ub
        elif ub == "1":
            out = ua
        elif ua == ub:
            out, sign = "1", -sign
        else:
            r = base[(ua, ub)]
            if r.startswith("-"):
                sign, r = -sign, r[1:]
            out = r
        return out if sign > 0 else f"-{out}"

    table = np.zeros((8, 8), dtype=np.int64)
    pos = {nm: i for i, nm in enumerate(names)}
    for a in names:
        for b in names:
            table[pos[a], pos[b]] = pos[mul(a, b)]
    return gc.GroupTable(table, labels=names, name="Q8")


def all_subgroup_masks(g):
    """Oracle: the full subgroup lattice, by closing every one-step extension.

    <M, x> = <M, m x> for m in M, so one x per right coset M x is closed.
    """
    triv = gc.closure(g, [g.identity])
    seen = {triv.bits.tobytes(): triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for mask in frontier:
            done = mask.bits.copy()
            for x in range(g.order):
                if done[x]:
                    continue
                done[g.mul[mask.indices(), x]] = True
                bigger = gc.closure(g, list(mask.indices()) + [x])
                key = bigger.bits.tobytes()
                if key not in seen:
                    seen[key] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return list(seen.values())


def brute_force_automorphism_count(g):
    """Oracle: scan all permutations fixing the identity; only for tiny groups."""
    n = g.order
    count = 0
    others = [i for i in range(n) if i != g.identity]
    for perm_rest in itertools.permutations(others):
        p = np.empty(n, dtype=np.int64)
        p[g.identity] = g.identity
        for spot, val in zip(others, perm_rest):
            p[spot] = val
        if np.array_equal(p[dense(g)], g.mul[np.ix_(p, p)]):
            count += 1
    return count


# ---------------------------------------------------------------------------
# construction


def test_build_identity_only():
    assert perm_group(1, [(0,)]).order == 1


def test_build_s3_from_transposition_and_cycle():
    g, idx = s3()
    assert g.order == 6
    assert g.identity == 0
    assert idx[(0, 1, 2)] == 0


def test_build_cyclic_closure():
    for n in (2, 5, 12):
        g = perm_group(n, [tuple((i + 1) % n for i in range(n))])
        assert g.order == n


def test_table_order_guard(monkeypatch):
    # with no address-space limit the bound is MAX_TABLE_BYTES, whatever limit the run has
    monkeypatch.setattr(gc.resource, "getrlimit",
                        lambda which: (gc.resource.RLIM_INFINITY, gc.resource.RLIM_INFINITY))
    # 2 bytes x 32,767^2 fits in 2 GiB; order 32,768 needs int32 entries and does not
    gc.check_table_order(32_767)
    with pytest.raises(CapExceeded, match="would exceed"):
        gc.check_table_order(32_768)
    # the permutation closure checks its order before it fills the table
    monkeypatch.setattr(gc, "MAX_TABLE_BYTES", 8 * 8 * 2 - 1)
    with pytest.raises(CapExceeded, match="would exceed"):
        perm_group(8, [(1, 2, 3, 4, 5, 6, 7, 0)])

    # a rotation group is refused by its known order before any closure runs
    def unreachable(*args, **kwargs):
        raise AssertionError("the closure ran before the order was checked")

    monkeypatch.setattr(sg, "_perm_group", unreachable)
    monkeypatch.setattr(gc, "MAX_TABLE_BYTES", 60 * 60 * 2 - 1)
    for kind in (sg.ICOSA, sg.dihedral_kind(30), sg.cyclic_kind(60)):
        with pytest.raises(CapExceeded, match="a table of order 60 would exceed"):
            sg.rotation_group(kind)


def test_table_guards_respect_the_address_space_limit(monkeypatch):
    # order 96 takes 96^2 x 2 = 18,432 bytes dense, and its word table over radices
    # (6, 2, 2, 4) holds (4 x 8 digits + 4 x 8 rows + 14 x 2 columns + 4 x 8 offsets
    # + 8 codes + the commutator pass's 9 + 4 x (4 x 2 + 16 + 4 x 8)) x 96 = 35,040 at
    # its peak; a soft RLIMIT_AS that leaves less than that beside the 1,000 bytes
    # already mapped is refused
    monkeypatch.setattr(gc, "_mapped_bytes", lambda: 1_000)

    def limit(soft):
        monkeypatch.setattr(gc.resource, "getrlimit",
                            lambda which: (soft, gc.resource.RLIM_INFINITY))

    limit(19_432)
    gc.check_table_order(96)
    limit(19_431)
    with pytest.raises(CapExceeded, match=r"limit \(RLIMIT_AS\) of 19431 bytes, "
                                          r"less 1000 bytes already mapped"):
        gc.check_table_order(96)
    assert gc._word_build_bytes((6, 2, 2, 4)) == 35_040
    limit(36_040)
    gc.code_digits((6, 2, 2, 4))
    limit(36_039)
    with pytest.raises(CapExceeded, match=r"limit \(RLIMIT_AS\) of 36039 bytes"):
        gc.code_digits((6, 2, 2, 4))
    limit(4 << 30)  # with MAX_TABLE_BYTES left beside the mapped bytes, the guard is as it was
    with pytest.raises(CapExceeded, match=f"would exceed {gc.MAX_TABLE_BYTES} bytes"):
        gc.check_table_order(32_768)


def test_mapped_bytes_reads_the_process_size():
    # the address space mapped now, at least the interpreter's; 0 where /proc is missing
    if os.path.exists("/proc/self/statm"):
        assert gc._mapped_bytes() > 1 << 20
    else:
        assert gc._mapped_bytes() == 0


def test_table_rejects_broken_associativity():
    mul = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        gc.GroupTable(mul)


def test_table_rejects_nonassociative_loop():
    # identity and two-sided inverses, so only the associativity check rejects it
    mul = np.array(
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    )
    with pytest.raises(ValueError, match="not associative"):
        gc.GroupTable(mul)


def _corrupted_gamma_9():
    # an order-729 table with identity and inverses intact, but row 1 has
    # columns 3 and 4 swapped; a sample of 100,000 triples misses the fault
    mul = dense(hb.gamma_n(9))
    mul[1, [3, 4]] = mul[1, [4, 3]]
    return mul


def test_table_rejects_a_corrupted_table_above_order_512():
    with pytest.raises(ValueError, match="not associative"):
        gc.GroupTable(_corrupted_gamma_9())
    doc = gc.table_to_json(hb.gamma_n(9))
    doc["mul"] = _corrupted_gamma_9().tolist()
    with pytest.raises(ValueError, match="not associative"):
        table_from_json(doc)


def _small_tables():
    """Tables with identity 0 of order <= 8: a group relabelled, then up to
    three entries off the identity's row and column overwritten."""
    bases = [gc.cyclic_table(d) for d in range(1, 9)]
    bases += [s3()[0], dihedral(4), quaternion_group()]
    bases += [direct_product(gc.cyclic_table(2), gc.cyclic_table(d)) for d in (2, 4)]

    def edit(base, perm, edits):
        d = base.order
        p = np.array([0, *perm])
        mul = np.empty((d, d), dtype=np.int64)
        mul[np.ix_(p, p)] = p[dense(base)]
        for i, j, v in edits:
            if d > 1:
                mul[1 + i % (d - 1), 1 + j % (d - 1)] = v % d
        return mul

    return st.sampled_from(bases).flatmap(
        lambda b: st.builds(
            edit,
            st.just(b),
            st.permutations(range(1, b.order)),
            st.lists(st.tuples(*[st.integers(0, 7)] * 3), max_size=3),
        )
    )


def _is_group(mul):
    m = len(mul)
    rng = np.arange(m)
    associative = np.array_equal(mul[mul], mul[rng[:, None, None], mul[None]])
    identity = np.array_equal(mul[0], rng) and np.array_equal(mul[:, 0], rng)
    return associative and identity and bool((mul == 0).any(axis=1).all())


def _factorizations(m):
    """Ordered factorizations of m into factors >= 2; (1,) for m = 1."""
    if m == 1:
        return [(1,)]
    out = [(m,)]
    for d in range(2, m):
        if m % d == 0:
            out += [(d, *rest) for rest in _factorizations(m // d)]
    return out


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_small_tables(), st.data())
def test_word_table_accepts_exactly_the_groups(mul, data):
    """The word certificate against brute force: with the rows of the table's
    elements at the digit places as generator rows, the word table is
    accepted exactly when the table composed along the digit tree is a
    group, and then it reads as that table."""
    radices = data.draw(st.sampled_from(_factorizations(len(mul))))
    rows = mul[digit_places(radices)]
    parent, via = digit_tree(radices)
    composed = np.empty_like(mul)
    composed[0] = np.arange(len(mul))
    for t in range(1, len(mul)):
        composed[t] = rows[via[t]][composed[parent[t]]]
    try:
        g = gc.GroupTable(gc.WordMul(rows, radices, gc.code_digits(radices)))
    except ValueError:
        g = None
    assert (g is not None) == _is_group(composed)
    if g is not None:
        assert np.array_equal(dense(g), composed)


def test_compose_rows_refuses_a_tree_whose_words_miss_their_codes():
    # Gamma_3's generator rows make its word table; with the a and b rows
    # swapped the words are c^z a^y b^x, and the word of code t no longer
    # sends 0 to t
    x, y, z = gc.code_digits((3, 3, 3))
    rows = [(x + 1) % 3 * 9 + y * 3 + (z + y) % 3, x * 9 + (y + 1) % 3 * 3 + z,
            x * 9 + y * 3 + (z + 1) % 3]
    assert np.array_equal(dense(gc.GroupTable(gc.WordMul(rows, (3, 3, 3), (x, y, z)))),
                          dense(hb.gamma_n(3)))
    with pytest.raises(ValueError, match="column 0"):
        gc.WordMul([rows[1], rows[0], rows[2]], (3, 3, 3), (x, y, z))


def test_word_table_refuses_digits_that_are_not_the_codes():
    # the products are read through the caller's digits, so digits of the
    # wrong count, shape or range, or of other codes, are refused
    x, y, z = gc.code_digits((3, 3, 3))
    rows = [(x + 1) % 3 * 9 + y * 3 + (z + y) % 3, x * 9 + (y + 1) % 3 * 3 + z,
            x * 9 + y * 3 + (z + 1) % 3]
    swapped = z.copy()
    swapped[[4, 5]] = swapped[[5, 4]]
    for digits in [(x, y), (x, y, z, z), (x, y, z[:26]), (x, y, z + 1), (x, y - 1, z),
                   (y, x, z), (x, y, swapped)]:
        with pytest.raises(ValueError, match="digit"):
            gc.WordMul(rows, (3, 3, 3), digits)


def test_rotation_tables_compose_their_labelled_permutations():
    """Every entry of each permutation-built rotation table, on all pairs, is
    the composition (a b)(x) = a[b[x]] of the permutations its labels name,
    and the labels are distinct."""
    kinds = [sg.dihedral_kind(k) for k in (3, 4, 5, 6, 9)] + [sg.TETRA, sg.OCTA, sg.ICOSA]
    for kind in kinds:
        g = sg.rotation_group(kind)
        perms = np.array([ast.literal_eval(lab) for lab in g.labels])
        assert len(set(g.labels)) == g.order, kind
        composed = perms[np.arange(g.order)[:, None, None], perms[None, :, :]]
        assert np.array_equal(perms[dense(g)], composed), kind


def test_table_refuses_identity_off_zero():
    # Z2 with the identity stored at index 1
    with pytest.raises(ValueError, match="index 0 is not the identity"):
        gc.GroupTable(np.array([[1, 0], [0, 1]]))


def test_table_rejects_missing_identity():
    mul = np.zeros((2, 2), dtype=int)  # constant product, no unit
    with pytest.raises(ValueError):
        gc.GroupTable(mul)


def test_json_round_trip():
    g, _ = s3()
    doc = gc.table_to_json(g)
    g2 = table_from_json(doc)
    assert g2.order == g.order
    assert np.array_equal(dense(g2), dense(g))
    assert g2.labels == g.labels


@pytest.mark.parametrize("make", [lambda: hb.gamma_n(4), lambda: hb.hat_gamma_n(2).table],
                         ids=["Gamma4", "HatGamma2"])
def test_word_table_json_round_trip(monkeypatch, make):
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)  # every family table a word table
    g = make()
    assert isinstance(g.mul, gc.WordMul)
    g2 = table_from_json(gc.table_to_json(g))
    assert isinstance(g2.mul, np.ndarray)
    assert np.array_equal(g2.mul, dense(g))
    assert g2.labels == g.labels and np.array_equal(g2.inv, g.inv)


def test_json_rejects_identity_off_zero():
    c3 = gc.cyclic_table(3)
    doc = gc.table_to_json(c3)
    # relabel so the identity sits at index 1
    perm = np.array([1, 0, 2])
    inv_perm = np.argsort(perm)
    shuffled = perm[np.asarray(doc["mul"])[np.ix_(inv_perm, inv_perm)]]
    with pytest.raises(ValueError):
        table_from_json({"order": 3, "mul": shuffled.tolist()})


def test_json_rejects_wrong_order():
    doc = gc.table_to_json(gc.cyclic_table(3))
    doc["order"] = 4
    with pytest.raises(ValueError):
        table_from_json(doc)


# ---------------------------------------------------------------------------
# subgroup machinery


def test_closure_trivial_and_cyclic():
    g, idx = s3()
    assert gc.closure(g, [g.identity]).size == 1
    three_cycle = idx[(1, 2, 0)]
    assert gc.closure(g, [three_cycle]).size == 3


def test_closure_two_transpositions_generate_s3():
    g, idx = s3()
    assert gc.closure(g, [idx[(1, 0, 2)], idx[(0, 2, 1)]]).size == 6


def test_center_abelian_is_everything():
    c12 = gc.cyclic_table(12)
    assert gc.center(c12).size == 12


def test_center_s3_trivial():
    g, _ = s3()
    assert gc.center(g).size == 1


def test_classes_are_computed_once_read_only_and_read_by_center():
    g = dihedral(6)
    assert gc.center(g).size == 2 and not g.is_abelian()
    first = gc.conjugacy_class_labels(g)
    assert vars(g)["_classes"] is first
    assert gc.conjugacy_class_labels(g) is first
    with pytest.raises(ValueError):
        first[0] = 1
    # center and is_abelian read the memo: with every class a singleton the table reads abelian
    vars(g)["_classes"] = np.arange(g.order)
    assert gc.center(g).size == g.order and g.is_abelian()


def test_commutator_abelian_trivial():
    assert gc.commutator_subgroup(gc.cyclic_table(9)).size == 1


def test_commutator_s3_is_rotations():
    g, idx = s3()
    comm = gc.commutator_subgroup(g)
    assert comm.size == 3
    assert comm.contains(idx[(1, 2, 0)])


def test_centralizer_identity_and_full():
    g, _ = s3()
    assert centralizer(g, [g.identity]).size == 6
    full = gc.SubgroupMask(g, np.ones(6, dtype=bool))
    assert centralizer(g, full) == gc.center(g)


def test_closure_and_centralizer_reject_an_index_outside_the_group():
    g = sg.rotation_group(sg.OCTA)
    for bad in (-1, g.order):
        for op in (gc.closure, centralizer):
            with pytest.raises(ValueError, match="out of range"):
                op(g, [0, bad])


def test_quotient_s3_by_rotations():
    g, _ = s3()
    comm = gc.commutator_subgroup(g)
    q, hom = gc.quotient_by_normal(g, comm)
    assert q.order == 2
    assert hom.verify()
    assert kernel_mask(hom) == comm
    assert hom.is_surjective()


def test_quotient_by_trivial_and_full():
    g, _ = s3()
    triv = gc.closure(g, [g.identity])
    q, hom = gc.quotient_by_normal(g, triv)
    assert q.order == 6 and hom.is_injective()
    full = gc.SubgroupMask(g, np.ones(6, dtype=bool))
    q, _ = gc.quotient_by_normal(g, full)
    assert q.order == 1


def test_quotient_rejects_non_normal():
    g, idx = s3()
    sub = gc.closure(g, [idx[(1, 0, 2)]])
    assert not gc.is_normal(g, sub)
    with pytest.raises(InvalidInput, match="not normal"):
        gc.quotient_by_normal(g, sub)


def _central_quotients():
    """Central quotients of dense tables and of word tables."""
    return [
        pytest.param(lambda: hb.gamma_n(5), id="Gamma5"),
        pytest.param(lambda: hb.gamma_n(11), id="Gamma11-word"),
        pytest.param(lambda: hb.hat_gamma_n(4).table, id="HatGamma4"),
        pytest.param(lambda: hb.hat_gamma_n(6).table, id="HatGamma6-word"),
        pytest.param(lambda: hb.b_n_components(2).table, id="B2"),
    ]


def _coset_oracle(g, s):
    """Oracle: each element's coset minimum, read off all of x N at once."""
    return dense(g)[:, s.indices()].min(axis=1)


@pytest.mark.parametrize("make", _central_quotients())
def test_quotient_reads_as_the_coset_table(monkeypatch, make):
    """Q's product is the coset of the lifts' product, on all pairs, whether it
    is read out dense (from a dense G or a word table G) or, with the dense
    order set to 0, evaluated on demand; the lifts are the coset minima,
    numbered in ascending order."""
    g = make()
    z = gc.center(g)
    coset_min = _coset_oracle(g, z)
    reps = np.flatnonzero(coset_min == np.arange(g.order))
    for dense_order in (gc._DENSE_WORD_ORDER, 0):
        monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", dense_order)
        q, hom = gc.quotient_by_normal(g, z)
        assert isinstance(q.mul, gc.InducedMul) == (dense_order == 0 or q.order > 1024)
        assert np.array_equal(hom.lifts, reps) and np.array_equal(hom.lifts[hom.map], coset_min)
        lifts = hom.lifts
        assert np.array_equal(dense(q), hom.map[dense(g)[np.ix_(lifts, lifts)]])
        assert hom.verify() and np.array_equal(q.inv, hom.map[g.inv[lifts]])


def test_quotient_product_key_forms_match_the_dense_read_out(monkeypatch):
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    g = hb.hat_gamma_n(4).table
    q, _ = gc.quotient_by_normal(g, gc.center(g))
    assert isinstance(q.mul, gc.InducedMul)
    assert_key_forms_read_as(q.mul, dense(q))


def _half_turn(n):
    """B_n and its subgroup of the translations and the half turn, chi^3 = -I."""
    bn = hb.b_n_components(n)
    return bn.table, gc.SubgroupMask(bn.table, bn.coords[0] % 3 == 0)


def _theta_kernel(n):
    hat = hb.hat_gamma_n(n)
    return hat.table, hat.theta_kernel


def _subgroups():
    """Subgroups of dense tables and of word tables, and one above the dense order."""
    return [
        pytest.param(lambda: _half_turn(4), id="B4-halfturn"),
        pytest.param(lambda: _half_turn(24), id="B24-halfturn-word"),
        pytest.param(lambda: _theta_kernel(4), id="HatGamma4-kernel"),
        pytest.param(lambda: _theta_kernel(6), id="HatGamma6-kernel-word"),
    ]


def _induced_oracle(g, idx):
    """Oracle: G's dense product on ``idx``, read back through positions in it."""
    lookup = np.full(g.order, -1, dtype=np.int64)
    lookup[idx] = np.arange(len(idx))
    return lookup[dense(g)[np.ix_(idx, idx)]]


@pytest.mark.parametrize("make", _subgroups())
def test_subgroup_table_reads_as_the_induced_table(monkeypatch, make):
    """H's product is G's product on H's elements, read back through their
    positions, on all pairs, whether it is read out dense or, with the dense
    order set to 0, evaluated on demand; the identity comes first, then the
    other elements ascending."""
    g, s = make()
    want = np.concatenate([[g.identity], s.indices()[s.indices() != g.identity]])
    full = _induced_oracle(g, want)
    for dense_order in (gc._DENSE_WORD_ORDER, 0):
        monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", dense_order)
        sub, idx = gc.subgroup_table(g, s)
        assert isinstance(sub.mul, gc.InducedMul) == (dense_order == 0 or sub.order > 1024)
        assert np.array_equal(idx, want) and np.array_equal(dense(sub), full)
        assert np.array_equal(idx[sub.inv], g.inv[idx]) and sub.labels == [g.labels[i] for i in idx]
        assert gc.Homomorphism(sub, g, idx).verify()


@pytest.mark.parametrize("make", [p for p in _subgroups() if "B24" not in p.id])
def test_subgroup_table_key_forms_match_the_dense_read_out(monkeypatch, make):
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    g, s = make()
    sub, idx = gc.subgroup_table(g, s)
    assert isinstance(sub.mul, gc.InducedMul)
    assert_key_forms_read_as(sub.mul, _induced_oracle(g, idx))


def test_quotient_certificate_rejects_wrong_cosets(monkeypatch):
    """The certificate trusts neither the labels nor the lifts: two cosets of
    the center merged into one, or one coset split in two, are refused."""
    g = hb.gamma_n(4)
    z = gc.center(g)
    right = gc._orbit_minima

    def merged(maps, size):
        labels = right(maps, size).copy()
        labels[labels == hb.gamma_elem_index(4, 0, 1, 0)] = 0  # A(0,1,0)'s coset joins the center
        return labels

    def split(maps, size):
        labels = right(maps, size).copy()
        labels[1] = 1  # A(0,0,1) leaves the center's coset
        return labels

    for wrong in (merged, split):
        monkeypatch.setattr(gc, "_orbit_minima", wrong)
        with pytest.raises(ValueError):
            gc.quotient_by_normal(g, z)


def test_subgroup_mask_validation():
    g, idx = s3()
    bits = np.zeros(6, dtype=bool)
    bits[g.identity] = True
    bits[idx[(1, 2, 0)]] = True  # misses its inverse's closure partner
    with pytest.raises(ValueError):
        gc.SubgroupMask(g, bits)


@pytest.mark.parametrize("make", [lambda: s3()[0], quaternion_group, lambda: dihedral(4), a4],
                         ids=["S3", "Q8", "D4", "A4"])
def test_subgroup_mask_accepts_exactly_the_subgroups(make):
    g = make()
    subgroups = {m.bits.tobytes() for m in all_subgroup_masks(g)}
    others = [x for x in range(g.order) if x != g.identity]
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            bits = np.zeros(g.order, dtype=bool)
            bits[[g.identity, *subset]] = True
            if bits.tobytes() in subgroups:
                gc.SubgroupMask(g, bits)
            else:
                with pytest.raises(ValueError):
                    gc.SubgroupMask(g, bits)


def test_subgroup_mask_rejects_a_kernel_missing_one_element():
    hat = hb.hat_gamma_n(4)
    kernel = hat.theta_kernel.bits
    assert gc.SubgroupMask(hat.table, kernel).size == hat.theta_kernel.size
    for x in np.flatnonzero(kernel)[1::37]:
        bits = kernel.copy()
        bits[x] = False
        with pytest.raises(ValueError):
            gc.SubgroupMask(hat.table, bits)


def test_lagrange_on_produced_subgroups():
    for g in (s3()[0], a4(), dihedral(6)):
        for x in range(g.order):
            assert g.order % gc.closure(g, [x]).size == 0
        assert g.order % gc.center(g).size == 0
        assert g.order % gc.commutator_subgroup(g).size == 0


def test_element_orders_and_exponent():
    g, idx = s3()
    orders = gc.all_element_orders(g)
    assert orders[g.identity] == 1
    assert orders[idx[(1, 0, 2)]] == 2
    assert orders[idx[(1, 2, 0)]] == 3
    assert exponent(g) == 6
    assert exponent(gc.cyclic_table(8)) == 8


def test_element_orders_are_computed_once_and_read_only():
    g, _ = s3()
    first = gc.all_element_orders(g)
    assert gc.all_element_orders(g) is first
    with pytest.raises(ValueError):
        first[0] = 2


def test_abelian_invariant_factors():
    assert gc.abelian_invariant_factors(gc.cyclic_table(12)) == [12]
    z6xz2 = direct_product(gc.cyclic_table(6), gc.cyclic_table(2))
    assert gc.abelian_invariant_factors(z6xz2) == [6, 2]
    z2cube = direct_product(
        direct_product(gc.cyclic_table(2), gc.cyclic_table(2)), gc.cyclic_table(2)
    )
    assert gc.abelian_invariant_factors(z2cube) == [2, 2, 2]
    for moduli, factors in [([], []), ([12], [12]), ([6, 2], [6, 2]), ([4, 6], [12, 2]),
                            ([2, 3, 4, 5], [60, 2]), ([8, 4, 2], [8, 4, 2]),
                            ([9, 3, 3], [9, 3, 3]), ([5, 25], [25, 5]), ([1, 7], [7])]:
        g = cyclic_product(moduli)
        assert gc.abelian_invariant_factors(g) == factors, moduli
        assert invariant_factors_by_quotients(g) == invariant_factors_of_moduli(moduli) == factors
    with pytest.raises(ValueError):
        gc.abelian_invariant_factors(s3()[0])


def cyclic_product(moduli):
    """The dense table of Z/m_1 x ... x Z/m_k on the mixed-radix codes."""
    order = math.prod(moduli)
    codes = np.arange(order)
    mul = np.zeros((order, order), dtype=np.int64)
    place = 1
    for m in reversed(moduli):
        d = codes // place % m
        mul += (d[:, None] + d[None, :]) % m * place
        place *= m
    return gc.GroupTable(mul, name="x".join(f"C{m}" for m in moduli))


def invariant_factors_of_moduli(moduli):
    """The invariant factors of Z/m_1 x ... x Z/m_k from the prime powers of the m_i."""
    factors = []
    for p in range(2, max(moduli, default=1) + 1):
        if gc.prime_power_base(p) != p:
            continue
        powers = sorted((math.gcd(m, p ** 20) for m in moduli), reverse=True)
        factors += [1] * (len(powers) - len(factors))
        factors = [f * q for f, q in zip(factors, powers)]
    return [f for f in factors if f > 1]


@st.composite
def _moduli(draw):
    """Cyclic orders whose product is at most 200."""
    out, room = [], 200
    while room >= 2 and draw(st.booleans()):
        out.append(draw(st.integers(2, room)))
        room //= out[-1]
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_moduli())
def test_invariant_factors_property_on_cyclic_products(moduli):
    g = cyclic_product(moduli)
    assert (gc.abelian_invariant_factors(g) == invariant_factors_by_quotients(g)
            == invariant_factors_of_moduli(moduli))
    everything = gc.SubgroupMask(g, np.ones(g.order, dtype=bool))
    assert gc.abelian_invariant_factors(everything) == invariant_factors_by_quotients(g)


@pytest.mark.parametrize("n", range(2, 13))
def test_invariant_factors_of_the_heisenberg_central_quotients(n):
    gammaB = qp.gamma_central_data(n).gammaB
    assert gc.abelian_invariant_factors(gammaB) == invariant_factors_by_quotients(gammaB) == [n, n]


@pytest.mark.parametrize("n", range(1, 11))
def test_invariant_factors_of_the_translation_kernels_read_on_the_mask(n):
    bn = hb.b_n_components(n)
    g, k = bn.table, bn.coords[0]
    kernel = gc.SubgroupMask(g, k == 0)
    sub, _ = gc.subgroup_table(g, kernel)
    assert gc.abelian_invariant_factors(kernel) == invariant_factors_by_quotients(sub)
    assert gc.abelian_invariant_factors(kernel) == ([n, n] if n > 1 else [])


@pytest.mark.parametrize("make", [lambda: s3()[0], a4, s4, lambda: dihedral(6), quaternion_group,
                                  lambda: hb.gamma_n(2), lambda: hb.b_n_components(2).table,
                                  lambda: sg.rotation_group(sg.dihedral_kind(5))],
                         ids=["S3", "A4", "S4", "D6", "Q8", "Gamma2", "B2", "D10"])
def test_mask_cyclicity_and_invariants_equal_the_subgroup_tables(make):
    g = make()
    seen = set()
    for mask in all_subgroup_masks(g):
        sub, _ = gc.subgroup_table(g, mask)
        assert gc.is_cyclic(mask) == gc.is_cyclic(sub)
        seen.add(gc.is_cyclic(mask))
        if mask.is_abelian():
            assert gc.abelian_invariant_factors(mask) == invariant_factors_by_quotients(sub)
    assert seen == {True, False}


def test_a_mask_keeps_the_generators_its_validation_grew(monkeypatch):
    g = hb.gamma_n(6)
    grown = []
    greedy = gc._greedy_generators
    monkeypatch.setattr(gc, "_greedy_generators",
                        lambda h, bits: grown.append(h) or greedy(h, bits))
    z = gc.SubgroupMask(g, gc.center(g).bits.copy())
    assert grown == [g]
    assert z.gens == tuple(greedy(g, z.bits)[0])
    assert z.is_abelian() and centralizer(g, z).size == g.order
    gc.quotient_by_normal(g, z)
    assert grown.count(g) == 1  # the quotient's own table grows only its generators
    center = gc.center(g)  # given validated: the generators are grown on first read, once
    assert center.gens == z.gens and center.is_abelian()
    assert grown.count(g) == 2


# ---------------------------------------------------------------------------
# minimal abelian index


def test_min_abelian_index_abelian_groups():
    """The root records Z(G) = G and has nothing to branch on."""
    c2 = gc.cyclic_table(2)
    for g in (gc.cyclic_table(1), gc.cyclic_table(7), gc.cyclic_table(12),
              direct_product(gc.cyclic_table(4), gc.cyclic_table(6)),
              direct_product(direct_product(c2, c2), c2)):
        res = gc.min_abelian_index(center_projection(g))
        assert res.index == 1
        assert res.witness.bits.all()
        assert res.nodes_explored == 1


def test_min_abelian_index_s3():
    g, _ = s3()
    res = gc.min_abelian_index(center_projection(g))
    assert res.index == 2
    assert res.witness.size == 3
    assert res.witness.is_abelian()


@pytest.mark.parametrize("make,expected", [(a4, 3), (a5, 12), (lambda: dihedral(4), 2),
                                           (lambda: dihedral(7), 2)])
def test_min_abelian_index_matches_brute_force(make, expected):
    g = make()
    res = gc.min_abelian_index(center_projection(g))
    oracle = brute_force_max_abelian(g)
    assert res.witness.size == oracle
    assert res.index == g.order // oracle
    assert res.index == expected


def test_min_abelian_index_cross_checked_on_diverse_groups():
    # every abelian subgroup of these groups is 3-generated, so the
    # commuting-triples oracle is exact
    from abindex import heisenberg as hb

    groups = [
        dihedral(6),
        a4(),
        hb.gamma_n(2),
        hb.gamma_n(3),
        hb.b_n_components(2).table,
        hb.b_n_components(3).table,
        hb.hat_gamma_n(2).table,
        direct_product(s3()[0], gc.cyclic_table(4)),
    ]
    for g in groups:
        res = gc.min_abelian_index(center_projection(g))
        assert res.witness.size == brute_force_max_abelian(g), g.name
        assert g.order % res.witness.size == 0


def test_min_abelian_index_against_full_subgroup_lattice():
    # the lattice oracle is exhaustive, no generation-size assumption at all
    from abindex import heisenberg as hb

    # the root branches on one element per noncentral conjugacy class
    rotations = [sg.rotation_group(k) for k in
                 (sg.dihedral_kind(5), sg.TETRA, sg.OCTA, sg.ICOSA)]
    for g in (s3()[0], a4(), s4(), dihedral(6), quaternion_group(),
              hb.gamma_n(2), hb.b_n_components(2).table, hb.hat_gamma_n(2).table,
              hb.b_n_components(3).table, *rotations):
        subgroups = all_subgroup_masks(g)
        best = max(m.size for m in subgroups if m.is_abelian())
        res = gc.min_abelian_index(center_projection(g))
        assert res.witness.size == best, g.name
        assert res.index == g.order // best
        classes = len(np.unique(gc.conjugacy_class_labels(g)))
        assert 1 <= res.root_classes <= classes - gc.center(g).size


def test_quaternion_group_structure():
    q8 = quaternion_group()
    assert gc.center(q8).size == 2
    assert gc.min_abelian_index(center_projection(q8)).index == 2
    assert len(gc.automorphisms(q8)) == 24
    orders = gc.all_element_orders(q8)
    profile = {int(o): int(np.count_nonzero(orders == o)) for o in np.unique(orders)}
    assert profile == {1: 1, 2: 1, 4: 6}


def test_min_abelian_index_monotone_on_witness():
    g = a5()
    res = gc.min_abelian_index(center_projection(g))
    sub, _ = gc.subgroup_table(g, res.witness)
    assert gc.min_abelian_index(center_projection(sub)).index == 1


def test_min_abelian_index_timeout_is_distinct():
    g = a5()
    eta = center_projection(g)
    gc.min_abelian_index(eta)  # a second search runs afresh under its own budget
    with pytest.raises(SearchTimeout):
        gc.min_abelian_index(eta, budget_s=-1.0)


def test_min_abelian_index_refuses_what_it_cannot_trust():
    g, _ = s3()
    a3 = gc.closure(g, [int(np.flatnonzero(gc.all_element_orders(g) == 3)[0])])
    eta = gc.quotient_by_normal(g, a3)[1]  # A3 is normal, not central
    with pytest.raises(InvalidInput, match="kernel is not central"):
        gc.min_abelian_index(eta)
    eta = center_projection(g)  # onto S3 itself: the center is trivial
    with pytest.raises(InvalidInput, match="lift over each element"):
        gc.min_abelian_index(gc.Homomorphism(g, eta.target, eta.map))  # no lifts
    with pytest.raises(InvalidInput, match="lift over each element"):  # lifts over others
        gc.min_abelian_index(gc.Homomorphism(g, eta.target, eta.map, eta.lifts[::-1]))


def test_searched_table_is_freed_without_cyclic_gc():
    # the search leaves nothing on the table that refers back to it
    g = hb.b_n_components(3).table
    res = gc.min_abelian_index(center_projection(g))
    ref = weakref.ref(g)
    garbage.disable()
    try:
        del g, res
        assert ref() is None
    finally:
        garbage.enable()


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_cyclic_prime():
    for p in (3, 5, 7, 11):
        assert len(gc.automorphisms(gc.cyclic_table(p))) == p - 1


def test_automorphisms_s3_matches_brute_force():
    g, _ = s3()
    auts = gc.automorphisms(g)
    assert len(auts) == 6
    assert len(auts) == brute_force_automorphism_count(g)
    for perm in auts:
        assert gc.Homomorphism(g, g, perm).verify()


def test_automorphisms_klein_four():
    v4 = direct_product(gc.cyclic_table(2), gc.cyclic_table(2))
    auts = gc.automorphisms(v4)
    assert len(auts) == 6
    assert len(auts) == brute_force_automorphism_count(v4)


def _automorphism_groups():
    kinds = [sg.cyclic_kind(2), sg.cyclic_kind(3), sg.cyclic_kind(5), sg.cyclic_kind(6),
             sg.dihedral_kind(3), sg.dihedral_kind(4), sg.dihedral_kind(5), sg.dihedral_kind(6),
             sg.TETRA, sg.OCTA, sg.ICOSA]
    out = [pytest.param(lambda k=k: sg.rotation_group(k), id=str(k)) for k in kinds]
    out.append(pytest.param(lambda: gc.cyclic_table(1), id="C1"))
    out += [pytest.param(lambda n=n: hb.b_n_components(n).table, id=f"B{n}") for n in range(1, 5)]
    out += [pytest.param(lambda n=n: hb.gamma_n(n), id=f"Gamma{n}") for n in range(2, 5)]
    out.append(pytest.param(lambda: hb.hat_gamma_n(2).table, id="HatGamma2"))
    # here some candidate tuples extend to bijections that are not homomorphisms
    out.append(pytest.param(lambda: direct_product(s3()[0], gc.cyclic_table(3)), id="S3xC3"))
    return out + [pytest.param(lambda: direct_product(a4(), gc.cyclic_table(2)), id="A4xC2")]


@pytest.mark.parametrize("make", _automorphism_groups())
def test_automorphisms_equal_the_recursive_enumeration(make):
    """Byte for byte, in order: the same maps, sorted, as read-only int64 arrays."""
    g = make()
    auts = gc.automorphisms(g)
    assert [p.tobytes() for p in auts] == [p.tobytes() for p in automorphisms_by_recursion(g)]
    assert all(p.dtype == np.int64 and not p.flags.writeable for p in auts)


def test_automorphisms_of_c2_to_the_fourth_extend_blocks_not_every_candidate():
    """Aut(C2^4) is GL(4, 2), of order 20,160, found among the 15^4 = 50,625
    tuples of images of the four generators.  The maps are extended and
    checked a block of 4,096 at a time, so what the enumeration holds beside
    its result (the sorted maps and their row views, 5.0 MB) is a fraction of
    one int64 array of every candidate's images."""
    c2 = gc.cyclic_table(2)
    v = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    assert len(v.gens) == 4
    auts, peak = traced_peak(lambda: gc.automorphisms(v))
    assert len(auts) == 20160 and len({p.tobytes() for p in auts}) == 20160
    assert all(gc.Homomorphism(v, v, p).verify() for p in auts[::997])
    every_candidate = 50625 * v.order * 8
    _, held = traced_peak(lambda: list(np.array(auts)))
    assert peak < every_candidate and peak - held < every_candidate // 4


def test_automorphisms_cap():
    with pytest.raises(CapExceeded):
        gc.automorphisms(gc.cyclic_table(121))


def test_sigma_orbit_characteristic_center():
    g = dihedral(6)  # center of D6 has order 2
    z = gc.center(g)
    assert z.size == 2
    assert len(gc.sigma_orbit(g, z)) == 1


def test_sigma_orbit_a4_order_two():
    g = a4()
    orders = gc.all_element_orders(g)
    twos = np.flatnonzero(orders == 2)
    orb = gc.sigma_orbit(g, gc.closure(g, [int(twos[0])]))
    assert len(orb) == 3


def test_sigma_orbit_a5_order_five_is_sylow_count():
    g = a5()
    orders = gc.all_element_orders(g)
    count_order5 = int(np.count_nonzero(orders == 5))
    sylow_count = count_order5 // 4  # each order-5 subgroup holds 4 of them
    five = int(np.flatnonzero(orders == 5)[0])
    orb = gc.sigma_orbit(g, gc.closure(g, [five]))
    assert len(orb) == sylow_count == 6
    assert len(orb) <= 12


# ---------------------------------------------------------------------------
# Sylow


def test_sylow_whole_group():
    g = gc.cyclic_table(5)
    assert gc.sylow(g, 5).size == 5


def test_sylow_s3():
    g, idx = s3()
    syl3 = gc.sylow(g, 3)
    assert syl3.size == 3
    assert syl3.contains(idx[(1, 2, 0)])
    assert gc.sylow(g, 2).size == 2


def test_sylow_a5():
    g = a5()
    assert gc.sylow(g, 2).size == 4
    assert gc.sylow(g, 3).size == 3
    assert gc.sylow(g, 5).size == 5


def test_sylow_rejects_non_divisor():
    g, _ = s3()
    with pytest.raises(InvalidInput, match="does not divide the group order"):
        gc.sylow(g, 5)


@pytest.mark.parametrize("p", [4, 6, 8, 1, 0, -2])
def test_sylow_rejects_a_p_that_is_not_prime(p):
    # 4, 6 and 8 divide 48 but are not prime; they are refused before any growth
    with pytest.raises(InvalidInput, match="not a prime"):
        gc.sylow(gc.cyclic_table(48), p)


# ---------------------------------------------------------------------------
# random structural invariants


def test_random_tables_pass_group_laws():
    rng = np.random.default_rng(1)
    for g in (s3()[0], a4(), dihedral(5)):
        n = g.order
        a = rng.integers(0, n, 200)
        b = rng.integers(0, n, 200)
        c = rng.integers(0, n, 200)
        assert np.array_equal(g.mul[g.mul[a, b], c], g.mul[a, g.mul[b, c]])
        assert np.all(g.mul[a, g.inv[a]] == g.identity)
        assert np.all(g.mul[g.identity, a] == a)


def _all_pairs_closure(g, bits):
    """Oracle: grow a set by all products of its members until it is closed."""
    bits = bits.copy()
    bits[g.identity] = True
    while True:
        idx = np.flatnonzero(bits)
        grown = bits.copy()
        grown[g.mul[np.ix_(idx, idx)]] = True
        if np.array_equal(grown, bits):
            return bits
        bits = grown


def _all_pairs_hom(m, source, target):
    m = np.asarray(m)
    return bool(np.array_equal(m[dense(source)], target.mul[np.ix_(m, m)]))


def _differential_groups():
    kinds = [sg.cyclic_kind(k) for k in (2, 3, 5, 6)]
    kinds += [sg.dihedral_kind(k) for k in (3, 4, 5, 6)] + [sg.TETRA, sg.OCTA, sg.ICOSA]
    out = [pytest.param(sg.rotation_group(k), [], id=str(k)) for k in kinds]
    for n in range(1, 6):
        bn = hb.b_n_components(n)
        out.append(pytest.param(bn.table, [], id=f"B{n}"))
    for n in range(2, 7):
        data = qp.gamma_central_data(n)
        out.append(pytest.param(data.g, [data.eta], id=f"Gamma{n}"))
    for n in (2, 4):
        hat = hb.hat_gamma_n(n)
        out.append(pytest.param(hat.table, [hat.theta], id=f"HatGamma{n}"))
    s3 = sg.rotation_group(sg.dihedral_kind(3))
    out.append(pytest.param(direct_product(s3, gc.cyclic_table(3)), [], id="D6xC3"))
    return out


@pytest.mark.parametrize("g,homs", _differential_groups())
def test_generator_checks_match_all_pairs_definitions(g, homs):
    """Center, [G,G], normality of every <x> and morphisms, against all-pairs definitions."""
    mul, inv = g.mul, g.inv
    table = dense(g)
    assert np.array_equal(gc.center(g).bits, (table == table.T).all(axis=1))
    every = np.arange(g.order)
    comm = np.zeros(g.order, dtype=bool)
    comm[gc.commutators(g, every[:, None], every[None, :])] = True
    assert np.array_equal(gc.commutator_subgroup(g).bits, _all_pairs_closure(g, comm))
    # conj[h, x] = h x h^-1, so the class of x is column x
    conj = mul[mul[every[:, None], every[None, :]], inv[:, None]]
    assert np.array_equal(gc.conjugacy_class_labels(g), conj.min(axis=0))
    seen = set()
    for x in range(g.order):
        cyc = gc.closure(g, [x])
        assert np.array_equal(cyc.bits, _all_pairs_closure(g, cyc.bits))
        if cyc.bits.tobytes() in seen:
            continue
        seen.add(cyc.bits.tobytes())
        conj = mul[mul[np.ix_(every, cyc.indices())], inv[:, None]]
        assert gc.is_normal(g, cyc) == bool(cyc.bits[conj].all()), x
    for hom in homs:
        assert hom.verify() and _all_pairs_hom(hom.map, g, hom.target)
        broken = np.array(hom.map, copy=True)
        broken[-1] = (broken[-1] + 1) % hom.target.order
        constant = np.full(g.order, 1)
        for m in (broken, constant):
            bad = gc.Homomorphism(g, hom.target, m)
            assert not bad.verify() and not _all_pairs_hom(m, g, hom.target)


def test_morphism_check_covers_every_generator():
    # (a, b) -> (f(a), b) respects left multiplication by C3 but not by S3,
    # since f swaps a transposition and a 3-cycle of S3
    s3 = sg.rotation_group(sg.dihedral_kind(3))
    g = direct_product(s3, gc.cyclic_table(3))
    orders = gc.all_element_orders(s3)
    f = np.arange(6)
    two, three = np.flatnonzero(orders == 2)[0], np.flatnonzero(orders == 3)[0]
    f[[two, three]] = f[[three, two]]
    a, b = np.divmod(np.arange(g.order), 3)
    m = f[a] * 3 + b
    assert not gc.Homomorphism(g, g, m).verify()
    assert not _all_pairs_hom(m, g, g)


def _searches(g):
    """The search on G/Z(G) and the same search forced onto G itself."""
    trivial = gc.closure(g, [g.identity])
    return [gc._AbelianSearch(center_projection(g), None),
            gc._AbelianSearch(gc.quotient_by_normal(g, trivial)[1], None)]


def _lifted_commuting(search):
    """commute[a, b]: the lifts of a and b commute in G, on all pairs of the quotient."""
    g, lifts = search.g, search.lifts
    prods = g.mul[np.ix_(lifts, lifts)]
    return prods == prods.T


_SEARCHED = [
    lambda: hb.gamma_n(3),
    lambda: hb.hat_gamma_n(2).table,
    lambda: hb.b_n_components(3).table,
    lambda: sg.rotation_group(sg.OCTA),
    lambda: direct_product(sg.rotation_group(sg.dihedral_kind(3)), gc.cyclic_table(3)),
]
_SEARCHED_IDS = ["Gamma3", "HatGamma2", "B3", "octa", "D6xC3"]


@pytest.mark.parametrize("make", _SEARCHED, ids=_SEARCHED_IDS)
def test_local_center_matches_all_pairs_definition(make):
    """The center of C from generators of C equals the all-pairs center, for
    C = C_Q(x), every x, on Q = G/Z(G) and on Q = G: the elements of C whose
    lifts commute in G with the lifts of all of C."""
    for search in _searches(make()):
        commute = _lifted_commuting(search)
        for x in range(search.n):
            c_bits = search.centralizer_bits(x)
            assert np.array_equal(c_bits, commute[x]), x
            idx = np.flatnonzero(c_bits)
            expected = np.zeros(search.n, dtype=bool)
            expected[idx[commute[np.ix_(idx, idx)].all(axis=1)]] = True
            assert np.array_equal(search.local_structure(c_bits)[2], expected), x


@pytest.mark.parametrize("make", _SEARCHED, ids=_SEARCHED_IDS)
def test_search_orbits_match_conjugation_by_c(make):
    """For C = C_Q(x), every x, on Q = G/Z(G) and on Q = G: the orbit labels
    and sizes of C acting on itself are those of c y c^-1 in Q over all c in C."""
    for search in _searches(make()):
        q = search.q
        mul, inv = q.mul, q.inv
        for x in range(q.order):
            c_bits = search.centralizer_bits(x)
            idx = np.flatnonzero(c_bits)
            # conj[c, y] = c y c^-1 for c, y in C
            conj = mul[mul[np.ix_(idx, idx)], inv[idx][:, None]]
            labels, sizes, _ = search.local_structure(c_bits)
            assert np.array_equal(labels[idx], conj.min(axis=0)), x
            assert np.array_equal(sizes[idx], [len(np.unique(col)) for col in conj.T]), x
            assert not sizes[~c_bits].any()


def abelian_subgroups(g):
    """The abelian subgroups of g, from its whole lattice.  On each subgroup
    ``SubgroupMask.is_abelian`` must equal the definition on all |H|^2 pairs."""
    out = []
    for mask in all_subgroup_masks(g):
        idx = mask.indices()
        sub = g.mul[np.ix_(idx, idx)]
        abelian = bool(np.array_equal(sub, sub.T))
        assert mask.is_abelian() == abelian, mask
        if abelian:
            out.append(mask)
    return out


@pytest.mark.parametrize("make", [
    *[pytest.param(lambda n=n: hb.gamma_n(n), id=f"Gamma{n}") for n in range(2, 7)],
    *[pytest.param(lambda k=k: sg.rotation_group(k), id=str(k))
      for k in (sg.dihedral_kind(3), sg.dihedral_kind(6), sg.TETRA, sg.OCTA, sg.ICOSA)],
])
def test_subgroup_is_abelian_matches_all_pairs(make):
    g = make()
    assert not g.is_abelian()  # the lattice holds a non-abelian mask: g itself
    assert len(abelian_subgroups(g)) > 1


def _check_quotient_search(g):
    """The search on G/Z(G) against the same search forced onto G itself:
    equal indices, and a witness that contains Z(G), is abelian on G and is
    the preimage of its image in G/Z(G)."""
    z = gc.center(g)
    res = gc.min_abelian_index(center_projection(g))
    on_g = gc._AbelianSearch(gc.quotient_by_normal(g, gc.closure(g, [g.identity]))[1], None)
    on_g.run()
    assert res.index == g.order // on_g.best_size
    assert (res.quotient_order * z.size, on_g.n) == (g.order, g.order)
    w = res.witness
    assert w.bits[z.bits].all() and w.is_abelian()
    proj = gc.quotient_by_normal(g, z)[1].map
    assert w.size == z.size * len(np.unique(proj[w.bits]))


def _quotient_differential_groups():
    out = [pytest.param(lambda n=n: hb.gamma_n(n), id=f"Gamma{n}") for n in range(2, 21)]
    out += [pytest.param(lambda n=n: hb.hat_gamma_n(n).table, id=f"HatGamma{n}")
            for n in range(2, 17, 2)]
    out += [pytest.param(lambda n=n: hb.b_n_components(n).table, id=f"B{n}") for n in range(1, 9)]
    kinds = [sg.cyclic_kind(k) for k in (2, 3, 5, 6)]
    kinds += [sg.dihedral_kind(k) for k in (3, 4, 5, 6)] + [sg.TETRA, sg.OCTA, sg.ICOSA]
    out += [pytest.param(lambda k=k: sg.rotation_group(k), id=str(k)) for k in kinds]
    return out


@pytest.mark.parametrize("make", _quotient_differential_groups())
def test_quotient_search_equals_the_search_on_g(make):
    _check_quotient_search(make())


def test_a_search_above_the_dense_order_builds_no_quotient_table():
    # |Q| = 6 * 14^2 = 1,176 is above the dense order: the quotient's product is
    # evaluated on the lifts, and the whole search traces less than one int16
    # |Q|^2 table (2.77 MB)
    g = hb.hat_gamma_n(14).table
    gc.center(g)  # the table's memoized classes, built before the trace
    res, peak = traced_peak(lambda: gc.min_abelian_index(center_projection(g)))
    assert (res.index, res.quotient_order) == (84, 1_176)
    assert peak < res.quotient_order**2 * 2, peak


def _perm_groups():
    """Groups generated by 1 to 3 random permutations of degree at most 5."""
    return st.integers(1, 5).flatmap(
        lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_perm_groups())
def test_min_abelian_index_property_on_permutation_groups(perms):
    g = perm_group(len(perms[0]), perms)
    best = max(m.size for m in abelian_subgroups(g))
    res = gc.min_abelian_index(center_projection(g))
    assert res.index == g.order // best
    assert res.witness.size == best and res.witness.is_abelian()
    # a largest abelian subgroup is maximal, so it is its own centralizer
    assert centralizer(g, res.witness) == res.witness


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_perm_groups())
def test_quotient_search_equals_the_search_on_g_on_permutation_groups(perms):
    _check_quotient_search(perm_group(len(perms[0]), perms))


def test_greedy_generators_grow_the_closures_the_identity_gives():
    def from_identity(g, bits):
        gens = []
        outside = bits.copy()
        outside[g.identity] = False
        while outside.any():
            gens.append(int(np.argmax(outside)))
            outside = bits & ~gc.closure(g, gens).bits
        return gens

    for g in (hb.gamma_n(20), hb.hat_gamma_n(4).table):
        for search in _searches(g):
            centralizers = []
            structure = search.local_structure
            search.local_structure = lambda c_bits: centralizers.append(c_bits) or structure(c_bits)
            search.run()
            assert len(centralizers) == search.nodes > 1
            for bits in centralizers:
                gens, grown = gc._greedy_generators(search.q, bits)
                assert gens == from_identity(search.q, bits) and np.array_equal(grown, bits)


def test_search_computes_a_centralizer_per_entered_node_only():
    """|C| / |orbit| bounds a child's order from above, so a commutation row
    is read for each candidate that passes that bound and the excluded test.
    On G itself the bound is exact and every such child is entered: one row
    per node below the root (searching without orbit sizes made 484
    centralizer calls on this group).  On G/Z the orbit can be smaller than
    in G, and a child is entered only when the order its row gives beats the
    incumbent."""
    g = gc.GroupTable(hb.gamma_n(8).mul)
    for search in _searches(g):
        calls, passed = [], []
        fetch, excluded_test = search.centralizer_bits, search.meets_excluded

        def meets(*args, test=excluded_test, passed=passed):
            out = test(*args)
            passed.append(not out)
            return out

        search.centralizer_bits = lambda x, fetch=fetch, calls=calls: calls.append(x) or fetch(x)
        search.meets_excluded = meets
        search.run()
        assert search.best_size * search.z_order == 64
        assert search.centralizers == len(calls) == sum(passed) >= search.nodes - 1
        if search.z_order == 1:
            assert len(calls) == search.nodes - 1


# ---------------------------------------------------------------------------
# structure read off the conjugacy classes


def _orders_by_powers(g):
    """Oracle: the power loop over every element, not only class representatives."""
    elems = np.arange(g.order)
    cur = elems.copy()
    orders = np.ones(g.order, dtype=np.int64)
    alive = cur != g.identity
    while alive.any():
        idx = np.flatnonzero(alive)
        cur[idx] = g.mul[cur[idx], elems[idx]]
        orders[idx] += 1
        alive[idx] = cur[idx] != g.identity
    return orders


def _check_class_structure(g):
    assert np.array_equal(gc.all_element_orders(g), _orders_by_powers(g))
    center = centralizer(g, g.gens).bits
    assert np.array_equal(gc.center(g).bits, center)
    assert g.is_abelian() == bool(center.all())


def _structure_groups():
    out = [pytest.param(lambda n=n: hb.gamma_n(n), id=f"Gamma{n}") for n in range(2, 13)]
    out += [pytest.param(lambda n=n: hb.hat_gamma_n(n).table, id=f"HatGamma{n}")
            for n in range(2, 11, 2)]
    out += [pytest.param(lambda n=n: hb.b_n_components(n).table, id=f"B{n}") for n in range(1, 14)]
    kinds = [sg.cyclic_kind(k) for k in (2, 3, 5, 6)]
    kinds += [sg.dihedral_kind(k) for k in (3, 4, 5, 6)] + [sg.TETRA, sg.OCTA, sg.ICOSA]
    out += [pytest.param(lambda k=k: sg.rotation_group(k), id=str(k)) for k in kinds]
    return out


@pytest.mark.parametrize("make", _structure_groups())
def test_class_orders_and_center_match_direct_definitions(make):
    """Orders from class representatives equal the power loop over every
    element, and the one-element classes are the generators' centralizer."""
    _check_class_structure(make())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_perm_groups())
def test_class_orders_and_center_on_permutation_groups(perms):
    g = perm_group(len(perms[0]), perms)
    _check_class_structure(g)


def test_divisors_match_brute_force():
    for n in range(1, 3001):
        assert gc._divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


@pytest.mark.parametrize("make,expected", [
    (lambda: hb.gamma_n(20), (20, 36, 376, 41, 400)),
    (lambda: hb.hat_gamma_n(10).table, (60, 7, 22, 11, 600)),
], ids=["Gamma20", "HatGamma10"])
def test_search_work_is_pinned(make, expected):
    """Index, nodes, root classes, commutation rows and quotient order of two
    searches (on G itself they were (20, 36, 591, 35) and (60, 7, 158, 6))."""
    res = gc.min_abelian_index(center_projection(make()))
    assert (res.index, res.nodes_explored, res.root_classes, res.centralizers,
            res.quotient_order) == expected
