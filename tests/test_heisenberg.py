"""Tests for the Heisenberg constructions and the order-6 twist."""

import gc as garbage
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest

from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import surface_groups as sg
from abindex.errors import CapExceeded, InvalidInput
from helpers import (assert_key_forms_read_as, center_projection, centralizer, dense, digit_tree,
                     exponent, kernel_mask, same, seeded_triples, traced_peak)

FH = np.array(hb.CHI_MATRIX)  # the matrix of the twist
IDENTITY = (0, 0, 0)


def all_triples(n):
    """Every (x, y, z2) mod (n, n, 2n), as three int arrays."""
    return tuple(np.indices((n, n, 2 * n)).reshape(3, -1))


def twist_power(n, g, k):
    for _ in range(k):
        g = hb._twist(n, g)
    return g


# ---------------------------------------------------------------------------
# the law on coordinate triples


def test_heis_mul_basic_products():
    a, b = (1, 0, 0), (0, 1, 0)
    assert hb._heis_law(4, a, b) == (1, 1, 2)
    assert hb._heis_law(4, b, a) == (1, 1, 0)


def test_heis_commutator_is_central_generator():
    a, b, a_inv, b_inv = (1, 0, 0), (0, 1, 0), (5, 0, 0), (0, 5, 0)
    assert hb._heis_law(6, a, a_inv) == hb._heis_law(6, b, b_inv) == IDENTITY
    comm = hb._heis_law(6, hb._heis_law(6, hb._heis_law(6, a, b), a_inv), b_inv)
    assert comm == (0, 0, 2)


def test_heis_mul_associative_small_moduli():
    # the law on all (2n^3)^2 pairs of triples, as a dense table: the table
    # constructor proves it associative (Light's test, exact), for every n up to 6
    for n in (2, 3, 4, 5, 6):
        x, y, z2 = all_triples(n)
        px, py, pz2 = hb._heis_law(n, (x[:, None], y[:, None], z2[:, None]), (x, y, z2))
        table = gc.GroupTable((px * n + py) * 2 * n + pz2)
        assert table.order == 2 * n**3
    # plus a seeded spot check above that range
    rng = np.random.default_rng(8)
    for n in (8, 10):
        for _ in range(300):
            xs = rng.integers(0, n, 6)
            zs = rng.integers(0, 2 * n, 3)
            a, b, c = ((int(xs[2 * i]), int(xs[2 * i + 1]), int(zs[i])) for i in range(3))
            assert (hb._heis_law(n, hb._heis_law(n, a, b), c)
                    == hb._heis_law(n, a, hb._heis_law(n, b, c)))


def _pair_associativity_mismatches():
    """The points where (a b) c and a (b c) differ under the pair law over Z,
    for every (k1, k2, k3) in (Z/6)^3, on the grid {0,1,2}^6 x {0,1}^3 of
    (x, y) and z2 values.  The defect has degree at most 2 in each x and y
    and at most 1 in each z2, so zero on this grid means zero everywhere
    (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1)."""
    x1, y1, x2, y2, x3, y3, z1, z2, z3 = np.indices((3,) * 6 + (2,) * 3).reshape(9, -1)
    mismatches = 0
    for k1, k2, k3 in itertools.product(range(6), repeat=3):
        a, b, c = (x1, y1, z1, k1), (x2, y2, z2, k2), (x3, y3, z3, k3)
        lhs = hb._pair_law(None, hb._pair_law(None, a, b), c)
        rhs = hb._pair_law(None, a, hb._pair_law(None, b, c))
        mismatches += np.count_nonzero(sum(np.not_equal(p, q) for p, q in zip(lhs, rhs)))
    return mismatches


def test_pair_law_is_associative_over_z():
    assert _pair_associativity_mismatches() == 0


def test_pair_law_associativity_check_finds_a_twist_without_its_y_squared_term(monkeypatch):
    monkeypatch.setattr(hb, "_twist", lambda n, g: (-g[1], g[0] + g[1], g[2] - 2 * g[0] * g[1]))
    assert _pair_associativity_mismatches() > 0


def test_heis_inverse():
    # the inverse of A(x, y, z) is A(-x, -y, -z + xy), in the table and under the law
    for n in (2, 5, 8):
        g = hb.gamma_n(n)
        x, y, z = gc.code_digits((n, n, n))
        assert np.array_equal(g.inv, hb.gamma_elem_index(n, -x, -y, -z + x * y))
        assert not np.any(hb._heis_law(n, (x, y, 2 * z), (-x, -y, -2 * z + 2 * x * y)))


# ---------------------------------------------------------------------------
# gamma_n


def test_gamma_2_is_dihedral_of_order_8():
    g = hb.gamma_n(2)
    assert g.order == 8
    assert exponent(g) == 4
    orders = gc.all_element_orders(g)
    profile = {int(o): int(np.count_nonzero(orders == o)) for o in np.unique(orders)}
    assert profile == {1: 1, 2: 5, 4: 2}  # dihedral, not quaternion


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_table_equals_the_law_on_all_pairs(n):
    # the table is composed along the code-order tree; the law is evaluated here
    # on every row, so an error in the composition cannot hide
    g = hb.gamma_n(n)
    xy, z = np.divmod(np.arange(n**3), n)
    x, y = np.divmod(xy, n)
    for i in range(n**3):
        rx, ry, rz2 = hb._heis_law(n, (x[i], y[i], 2 * z[i]), (x, y, 2 * z))
        assert np.array_equal(g.mul[i], (rx * n + ry) * n + rz2 // 2), i


def test_gamma_3_is_extraspecial_exponent_3():
    g = hb.gamma_n(3)
    assert g.order == 27
    assert exponent(g) == 3
    assert gc.center(g).size == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gamma_center_equals_commutator(n):
    g = hb.gamma_n(n)
    center = gc.center(g)
    assert center.size == n
    assert gc.commutator_subgroup(g) == center
    closed_form = np.zeros(g.order, dtype=bool)
    closed_form[hb.gamma_elem_index(n, 0, 0, np.arange(n))] = True
    assert np.array_equal(center.bits, closed_form)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_gamma_quotient_by_center_is_two_torus(n):
    g = hb.gamma_n(n)
    q, hom = gc.quotient_by_normal(g, gc.center(g))
    assert hom.verify()
    assert q.order == n * n
    assert q.is_abelian()
    assert exponent(q) == n
    assert gc.abelian_invariant_factors(q) == [n, n]


def test_gamma_element_orders():
    g4 = hb.gamma_n(4)
    assert gc.all_element_orders(g4)[hb.gamma_elem_index(4, 1, 0, 0)] == 4
    g2 = hb.gamma_n(2)
    assert gc.all_element_orders(g2)[hb.gamma_elem_index(2, 1, 1, 0)] == 4


def test_gamma_centralizer_of_first_translation():
    n = 4
    g = hb.gamma_n(n)
    cent = centralizer(g, [hb.gamma_elem_index(n, 1, 0, 0)])
    # commutator exponent x y' - x' y forces y' = 0: n choices for x', n for z
    assert cent.size == n * n
    expect = {hb.gamma_elem_index(n, x, 0, z) for x in range(n) for z in range(n)}
    assert set(cent.indices().tolist()) == expect


# ---------------------------------------------------------------------------
# the twist


def test_twist_fixes_center_elementwise():
    for n in (2, 4, 6):
        center = (0, 0, np.arange(2 * n))
        assert same(hb._twist(n, center), center)


def test_twist_basic_values():
    assert hb._twist(4, (1, 0, 0)) == (0, 1, 0)
    # y = 1 drops the doubled coordinate by one: half-integral output, z = -1/2 + 4
    assert hb._twist(4, (0, 1, 0)) == (3, 1, 7)


def test_twist_requires_even_modulus():
    # the twist is defined mod n only for even n: the extended group refuses odd moduli
    for n in range(3, 12, 2):
        with pytest.raises(InvalidInput, match="even modulus"):
            hb.hat_gamma_n(n)


@pytest.mark.parametrize("n", list(range(2, 13, 2)))
def test_twist_order_six_exhaustive(n):
    e = all_triples(n)
    assert same(twist_power(n, e, 6), e)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_twist_is_homomorphism_all_pairs(n):
    # one broadcast over all (2n^3)^2 pairs
    x, y, z2 = all_triples(n)
    a, b = (x[:, None], y[:, None], z2[:, None]), (x, y, z2)
    assert same(hb._twist(n, hb._heis_law(n, a, b)),
                hb._heis_law(n, hb._twist(n, a), hb._twist(n, b)))


def test_int_twist_random_sweep():
    rng = np.random.default_rng(0)
    drawn = seeded_triples(rng, 20_000, 50, 100)
    e, b = tuple(c[0::2] for c in drawn), tuple(c[1::2] for c in drawn)
    assert same(twist_power(None, e, 6), e)
    assert same(hb._twist(None, hb._heis_law(None, e, b)),
                hb._heis_law(None, hb._twist(None, e), hb._twist(None, b)))


def test_integral_twist_random_sweep():
    # the integral twist z - xy - (y^2 - y)/2 is the lift of the twist matrix with lin (0, 1/2)
    integral = hb.sl2_lift(FH, (0, Fraction(1, 2))).law
    e = seeded_triples(np.random.default_rng(1), 10_000, 50, 100)
    assert (integral(e)[2] % 2 == 0).all()
    cur = e
    for _ in range(6):
        cur = integral(cur)
    assert same(cur, e)


def test_integral_twist_values_and_errors():
    integral = hb.sl2_lift(FH, (0, Fraction(1, 2))).law
    assert integral((0, 1, 0)) == (-1, 1, 0)
    assert integral((0, 1, 1)) == (-1, 1, 1)  # a half-integral z stays half-integral


def test_twists_differ_by_half_y():
    rng = np.random.default_rng(2)
    x, y = rng.integers(-20, 21, (200, 2)).T
    e = (x, y, np.full(200, 6))
    a, b = hb._twist(None, e), hb.sl2_lift(FH, (0, Fraction(1, 2))).law(e)
    assert same(a[:2], b[:2])
    assert np.array_equal(b[2] - a[2], y)  # doubled: z differs by y/2


# ---------------------------------------------------------------------------
# the extended group


def test_hat_rejects_odd_modulus():
    with pytest.raises(InvalidInput, match="even modulus"):
        hb.hat_gamma_n(3)


@pytest.mark.parametrize("n", [2, 4])
def test_hat_structure(n):
    hat = hb.hat_gamma_n(n)
    assert hat.table.order == 12 * n**3  # closure picks up half-integral rotations
    assert hat.theta.is_surjective()
    assert hat.theta.verify()
    assert hat.gamma_image.size == n**3
    assert hat.table.order // hat.gamma_image.size == 12
    assert hat.theta_kernel.size == 2 * n**3
    assert gc.is_normal(hat.table, hat.theta_kernel)
    # conjugating by the twist generator moves integral translations to
    # half-integral ones, so the translation image itself is not normal
    assert gc.is_normal(hat.table, hat.gamma_image) is False


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_h_a_and_b_generate_the_twisted_closure(n):
    """The enumeration twin of the word identity ``hat_gamma_n`` checks."""
    hat = hb.hat_gamma_n(n)
    radices = (6, n, n, 2 * n)
    h, a, b = (np.ravel_multi_index(d, radices) for d in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    assert gc.closure(hat.table, [h, a, b]).size == 12 * n**3


def test_building_a_table_runs_no_closure(monkeypatch):
    """Tables, derived ones included, take their greedy generators as they
    are: no closure prunes them, and the twisted closure is checked by one
    word identity."""
    calls = []
    for mod in (gc, hb, sg):
        if hasattr(mod, "closure"):
            monkeypatch.setattr(mod, "closure", lambda *a, f=mod.closure: calls.append(a) or f(*a))
    g = hb.gamma_n(6)
    gc.quotient_by_normal(g, gc.center(g))
    gc.subgroup_table(g, gc.center(g))
    hb.hat_gamma_n(10)
    hb.b_n_components(5)
    sg.rotation_group(sg.ICOSA)
    gc.cyclic_table(12)
    assert calls == []


@pytest.mark.parametrize("n", [2, 4, 6])
def test_hat_table_equals_the_law_on_all_pairs(n):
    hat = hb.hat_gamma_n(n)
    K, X, Y, Z2 = gc.code_digits((6, n, n, 2 * n))
    powers = [(X, Y, Z2)]
    for _ in range(5):
        powers.append(hb._twist(n, powers[-1]))
    for i in range(hat.table.order):
        k = K[i]
        rx, ry, rz2 = hb._heis_law(n, (X[i], Y[i], Z2[i]), powers[k])
        row = np.ravel_multi_index(((k + K) % 6, rx, ry, rz2), (6, n, n, 2 * n))
        assert np.array_equal(hat.table.mul[i], row), i


def test_table_generators_are_the_greedy_generators():
    for g in (hb.gamma_n(3), hb.gamma_n(4), hb.hat_gamma_n(2).table, hb.b_n_components(4).table):
        every = np.ones(g.order, dtype=bool)
        assert g.gens.tolist() == gc._greedy_generators(g, every)[0], g
        assert g.gens.dtype == np.intp and not g.gens.flags.writeable
        assert gc.closure(g, g.gens).size == g.order


def test_hat_conjugation_by_twist_realizes_it():
    n = 4
    hat = hb.hat_gamma_n(n)
    t = hat.table
    lab = {s: i for i, s in enumerate(t.labels)}
    hgen = lab["A(0,0,0)h^1"]
    for x, y, z in [(1, 0, 0), (0, 1, 0), (2, 3, 1), (1, 1, 2)]:
        g_idx = lab[f"A({x},{y},{z})h^0"]
        conj = t.mul[t.mul[hgen, g_idx], t.inv[hgen]]
        ix, iy, iz2 = hb._twist(n, (x, y, 2 * z))
        assert t.labels[conj] == f"A({ix},{iy},{hb._format_half(iz2)})h^0"


def test_hat_gamma_image_is_normal_inside_kernel():
    hat = hb.hat_gamma_n(4)
    sub, parent_idx = gc.subgroup_table(hat.table, hat.theta_kernel)
    pos = {int(v): i for i, v in enumerate(parent_idx)}
    bits = np.zeros(sub.order, dtype=bool)
    for v in hat.gamma_image.indices():
        bits[pos[int(v)]] = True
    inner = gc.SubgroupMask(sub, bits)
    assert gc.is_normal(sub, inner)  # index 2
    assert sub.order // inner.size == 2


def test_hat_4_min_abelian_index():
    hat = hb.hat_gamma_n(4)
    res = gc.min_abelian_index(center_projection(hat.table))
    # below the sharpness threshold the floor 6n fails: the half-turn
    # lattice {0, n/2}^2 pulls back to an abelian subgroup of order 16n
    assert res.index == 12
    assert res.witness.size == 64


# ---------------------------------------------------------------------------
# the base group on the torus


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_bn_order_and_relations(n):
    data = hb.b_n_components(n)
    t = data.table
    assert t.order == 6 * n * n
    chi, ta, tb = data.chi_idx, data.ta_idx, data.tb_idx
    chi_inv = t.inv[chi]
    assert t.mul[t.mul[chi_inv, ta], chi] == t.mul[ta, t.inv[tb]]
    assert t.mul[t.mul[chi_inv, tb], chi] == ta
    assert gc.all_element_orders(t)[chi] == 6


# chi^0 .. chi^5, written out
_CHI_POWERS = [((1, 0), (0, 1)), ((0, -1), (1, 1)), ((-1, -1), (1, 0)),
               ((-1, 0), (0, -1)), ((0, 1), (-1, -1)), ((1, 1), (-1, 0))]


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_chi_power_matches_the_written_powers(n):
    for k in range(-6, 13):
        assert np.array_equal(hb.chi_power(n, k), np.array(_CHI_POWERS[k % 6]) % n), k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 24])
def test_bn_table_equals_the_law_on_all_pairs(n):
    # (v, k)(v', k') = (v + chi^k v', k + k'), element t(u,v)chi^k at (k n + u) n + v
    data = hb.b_n_components(n)
    k, uv = np.divmod(np.arange(6 * n * n), n * n)
    u, v = np.divmod(uv, n)
    for i in range(data.table.order):
        (a, b), (c, d) = _CHI_POWERS[k[i]]
        pu, pv = (u[i] + a * u + b * v) % n, (v[i] + c * u + d * v) % n
        assert np.array_equal(data.table.mul[i], ((k[i] + k) % 6 * n + pu) * n + pv), i
    assert (data.chi_idx, data.ta_idx, data.tb_idx) == (n * n, 1 % n * n, 1 % n)
    assert data.table.labels[data.chi_idx] == "t(0,0)chi^1"


def test_bn_tables_are_not_cached():
    for build in (lambda: hb.b_n_components(5).table, lambda: hb.gamma_n(5),
                  lambda: hb.hat_gamma_n(4).table):
        ref = weakref.ref(build())
        garbage.collect()
        assert ref() is None


# ---------------------------------------------------------------------------
# word tables against the dense composition


DENSE_REFERENCE_BYTES = 300 * 10**6  # the largest dense reference the differential builds


def _word_table_and_tree(monkeypatch, build):
    """The word table ``build()`` returns, with the generator rows and the
    digit tree (``helpers.digit_tree``) it was built along."""
    calls = []

    def recording(rows, radices, digits):
        calls.append((rows, radices))
        return gc.WordMul(rows, radices, digits)

    monkeypatch.setattr(hb, "WordMul", recording)
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)  # every family table a word table
    word = build()
    [(rows, radices)] = calls
    return word, np.asarray(rows, dtype=gc._index_dtype(word.order)), digit_tree(radices)


@pytest.mark.parametrize("build,n", [
    *[pytest.param(hb.gamma_n, n, id=f"Gamma{n}") for n in range(2, 13)],
    *[pytest.param(lambda n: hb.hat_gamma_n(n).table, n, id=f"HatGamma{n}")
      for n in range(2, 13, 2)],
    *[pytest.param(lambda n: hb.b_n_components(n).table, n, id=f"B{n}") for n in range(1, 11)],
])
def test_word_table_equals_its_dense_composition(monkeypatch, build, n):
    # The dense table composed along the digit tree has the identity as row 0
    # and, as row t, the row of its parent mapped through the row of its
    # generator.  The word table meets that recurrence block by block, so it
    # equals the composed table by induction on t (parent[t] < t) without the
    # |G|^2 table being built.
    word, rows, (parent, via) = _word_table_and_tree(monkeypatch, lambda: build(n))
    assert isinstance(word.mul, gc.WordMul)
    fits = word.order**2 * rows.itemsize <= DENSE_REFERENCE_BYTES
    composed = np.empty((word.order, word.order), dtype=rows.dtype) if fits else None
    step = max(1, (1 << 20) // word.order)  # rows per block, about 8 MB per int64 block
    for lo in range(0, word.order, step):
        t = np.arange(lo, min(lo + step, word.order))
        block, want = word.mul[t], rows[via[t, None], word.mul[parent[t]]]
        want[t == 0] = np.arange(word.order)  # row 0, whose parent and generator are -1
        assert np.array_equal(block, want), lo
        if fits:
            composed[t] = block
    if not fits:
        return  # HatGamma12 alone (860 MB): its product is proven, its structure not compared
    # the structural differential: each algorithm on the word table and on the dense one
    composed = gc.GroupTable(composed)  # Light's test: no trust in the word table's certificate
    assert np.array_equal(word.inv, composed.inv)
    assert np.array_equal(word.gens, composed.gens)
    assert np.array_equal(gc.all_element_orders(word), gc.all_element_orders(composed))
    assert gc.center(word).bits.tobytes() == gc.center(composed).bits.tobytes()
    assert (gc.commutator_subgroup(word).bits.tobytes()
            == gc.commutator_subgroup(composed).bits.tobytes())
    found, expected = (gc.min_abelian_index(center_projection(t)) for t in (word, composed))
    assert (found.index, found.witness.size) == (expected.index, expected.witness.size)
    assert found.witness.bits.tobytes() == expected.witness.bits.tobytes()


@pytest.mark.parametrize("build", [lambda: hb.gamma_n(4), lambda: hb.hat_gamma_n(2).table,
                                   lambda: hb.b_n_components(4).table], ids=["Gamma4", "HatGamma2", "B4"])
def test_small_family_tables_are_dense(monkeypatch, build):
    # orders 64, 96 and 96: each kept as its int16 Cayley table, read out of its word table
    small = build()
    assert isinstance(small.mul, np.ndarray) and small.mul.dtype == np.int16
    assert small.mul.nbytes == small.order**2 * 2
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    word = build()
    assert isinstance(word.mul, gc.WordMul)
    assert np.array_equal(small.mul, dense(word)) and small.labels == word.labels


def test_dense_read_out_stays_below_twice_the_table():
    # read out whole, the order-1000 table would take |G|^2 gather offsets per digit (11.6 MB)
    g, peak = traced_peak(lambda: hb.gamma_n(10))
    assert isinstance(g.mul, np.ndarray) and g.mul.nbytes == 2 * 10**6
    assert peak < 2 * g.mul.nbytes, peak


def test_a_word_table_row_read_stays_below_three_rows_of_offsets():
    # one gather offset and one gathered row per digit at a time; the digit
    # offsets of the sliced column key are read as a view, since a copy of
    # them (4 x |G| intp, 384 KB) alone would break the budget
    g = hb.hat_gamma_n(10).table
    assert isinstance(g.mul, gc.WordMul)
    row, peak = traced_peak(lambda: g.mul[7])
    assert row.shape == (g.order,)
    assert peak < 3 * g.order * 8, peak


@pytest.mark.parametrize("build", [lambda: hb.gamma_n(5), lambda: hb.hat_gamma_n(2).table,
                                   lambda: hb.b_n_components(4).table],
                         ids=["Gamma5", "HatGamma2", "B4"])
def test_word_table_key_forms_match_the_dense_read_out(monkeypatch, build):
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    g = build()
    assert isinstance(g.mul, gc.WordMul)
    assert_key_forms_read_as(g.mul, dense(g))


def test_family_labels_are_made_on_first_read(monkeypatch):
    calls = []
    real = hb._format_half
    monkeypatch.setattr(hb, "_format_half", lambda z2: calls.append(z2) or real(z2))
    table = hb.hat_gamma_n(2).table
    assert not calls
    labels = table.labels
    assert len(calls) == 96 and table.labels is labels and labels[1] == "A(0,0,1/2)h^0"


def test_word_table_reads_like_its_dense_table(monkeypatch):
    monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    g = hb.hat_gamma_n(2).table
    full = dense(g)
    a = np.array([[0, 5, 17], [95, 3, 40]])
    neg = np.array([-1, 4, -96])
    mask = np.arange(g.order) % 3 == 1
    for key in [(3, 5), (a, 7), (7, a), (a[:, :, None], a[:, None, :]), 11, [1, 2, 90], a,
                (slice(None), 9), (slice(None), a), (a, slice(None)), (4, mask), mask,
                (slice(10, 30), slice(5, 8)), np.ix_([4, 9], mask), (np.int64(6), 8),
                -1, (-1, 7), (slice(None), -1), (neg, 3), (5, neg), (neg[:, None], neg),
                (list(mask), 2), (3, list(mask)), ([], 4)]:
        assert np.array_equal(g.mul[key], full[key]), key
    for key in [96, -97, (96, 0), (0, 96), (np.array([0, 96]), 1), (1, np.array([-97])),
                (mask[:50], 1), (1, 2, 3)]:
        with pytest.raises(IndexError):
            full[key]
        with pytest.raises(IndexError):
            g.mul[key]
    again = gc.GroupTable(g.mul)
    assert again.mul is g.mul and np.array_equal(again.inv, g.inv)
    # 14 int16 columns of order 96 and four digit offsets per element
    assert g.mul.nbytes == (6 + 2 + 2 + 4) * 96 * 2 + 4 * 96 * 8


def _set_closure(mul, seed, identity):
    """The subgroup generated by ``seed``, breadth first on Python sets."""
    found, queue = {identity}, [identity]
    for x in queue:
        for s in seed:
            y = mul[s][x]
            if y not in found:
                found.add(y)
                queue.append(y)
    return found


@pytest.mark.parametrize("word", [True, False], ids=["word", "dense"])
@pytest.mark.parametrize("build", [lambda: hb.gamma_n(4), lambda: hb.hat_gamma_n(2).table,
                                   lambda: hb.b_n_components(3).table],
                         ids=["Gamma4", "HatGamma2", "B3"])
def test_closures_match_a_set_closure(monkeypatch, build, word):
    if word:
        monkeypatch.setattr(gc, "_DENSE_WORD_ORDER", 0)
    g = build()
    assert isinstance(g.mul, gc.WordMul) == word
    mul = dense(g).tolist()
    rng = np.random.default_rng(7)
    seeds = [[], [0], [5, 5, 5], g.gens.tolist(), *rng.integers(0, g.order, (8, 2)).tolist()]
    for seed in seeds:
        want = _set_closure(mul, seed, g.identity)
        assert set(gc.closure(g, seed).indices().tolist()) == want, seed
    inv = g.inv.tolist()
    comms = {mul[mul[x][y]][mul[inv[x]][inv[y]]] for x in range(g.order) for y in range(g.order)}
    want = _set_closure(mul, sorted(comms), g.identity)
    assert set(gc.commutator_subgroup(g).indices().tolist()) == want


def test_injective_and_surjective_each_fail_alone():
    hat = hb.hat_gamma_n(2)
    assert hat.theta.verify() and hat.theta.is_surjective() and not hat.theta.is_injective()
    g = hat.table
    sub, idx = gc.subgroup_table(g, hat.theta_kernel)
    inclusion = gc.Homomorphism(sub, g, idx)
    assert inclusion.verify() and inclusion.is_injective() and not inclusion.is_surjective()


def test_word_tables_are_refused_before_their_digits_are_built():
    # 3,000 columns of 10^9 int32 entries; nothing of that size is allocated
    with pytest.raises(CapExceeded, match="word table"):
        gc.code_digits((1000, 1000, 1000))
    with pytest.raises(CapExceeded, match="word table"):
        hb.hat_gamma_n(200)
    with pytest.raises(CapExceeded, match="word table"):
        hb.gamma_n(1000)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_bn_translation_subgroup(n):
    data = hb.b_n_components(n)
    k = data.coords[0]
    translations = gc.SubgroupMask(data.table, k == 0)
    zeta = gc.Homomorphism(data.table, gc.cyclic_table(6), k)  # onto the point part
    assert translations.size == n * n
    assert gc.is_normal(data.table, translations)
    sub, _ = gc.subgroup_table(data.table, translations)
    assert sub.is_abelian()
    if n > 1:
        assert gc.abelian_invariant_factors(sub) == [n, n]
    assert zeta.verify()
    assert zeta.is_surjective()
    assert kernel_mask(zeta) == translations


def test_fixed_points_identity_power():
    for n in (5, 8, 9):
        assert hb.fixed_points_chi_power(n, 1) == {(0, 0)}


def test_fixed_points_half_turn():
    assert hb.fixed_points_chi_power(8, 3) == {(0, 0), (0, 4), (4, 0), (4, 4)}
    assert hb.fixed_points_chi_power(9, 3) == {(0, 0)}


def test_fixed_points_third_turn():
    # solutions of u = v, 3u = 0: three points when 3 | n, one otherwise
    assert hb.fixed_points_chi_power(9, 2) == {(0, 0), (3, 3), (6, 6)}
    assert hb.fixed_points_chi_power(6, 2) == {(0, 0), (2, 2), (4, 4)}
    assert hb.fixed_points_chi_power(8, 2) == {(0, 0)}
    # past n = 347 the word-table build of B_n would exceed the byte guard; the grid does not
    assert hb.fixed_points_chi_power(702, 2) == {(0, 0), (234, 234), (468, 468)}


@pytest.mark.parametrize("n", range(1, 31))
def test_fixed_points_match_the_closed_forms(n):
    # chi - I has determinant 1, chi^2 - I gives u = v, 3u = 0, chi^3 = -I
    half = (0, n // 2) if n % 2 == 0 else (0,)
    assert hb.fixed_points_chi_power(n, 1) == {(0, 0)}
    assert hb.fixed_points_chi_power(n, 2) == {(t, t) for t in range(n) if 3 * t % n == 0}
    assert hb.fixed_points_chi_power(n, 3) == {(u, v) for u in half for v in half}


# ---------------------------------------------------------------------------
# doubling


@pytest.mark.parametrize("p", [3, 5])
def test_doubling_embeds_as_sylow(p):
    d = hb.doubling_embed(p)
    assert d.verify()
    assert d.is_injective()
    img = d.image_mask()
    assert img.size == p**3
    assert gc.sylow(d.target, p).size == p**3
    spot = d.map[hb.gamma_elem_index(p, 1, 0, 0)]
    assert int(spot) == hb.gamma_elem_index(2 * p, 2, 0, 0)


def test_doubling_rejects_bad_primes():
    with pytest.raises(ValueError):
        hb.doubling_embed(2)
    with pytest.raises(ValueError):
        hb.doubling_embed(9)


# ---------------------------------------------------------------------------
# lifts over SL(2,Z)


def test_sl2_det_check():
    with pytest.raises(InvalidInput, match="det is 2"):
        hb.sl2_lift([[1, 0], [0, 2]])
    with pytest.raises(InvalidInput, match="det is -1"):  # one matrix of a stack is enough
        hb.sl2_lift(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]))


def test_identity_lift_is_identity():
    lift = hb.sl2_lift(np.eye(2, dtype=np.int64))
    assert lift.law((3, -2, 5)) == (3, -2, 5)


def test_lift_reproduces_both_twists():
    lift = hb.sl2_lift(FH)
    lift_prime = hb.sl2_lift(FH, (0, Fraction(1, 2)))
    e = seeded_triples(np.random.default_rng(3), 1000, 50, 100)
    x, y, z2 = hb._twist(None, e)
    assert same(lift.law(e), (x, y, z2))
    assert same(lift_prime.law(e), (x, y, z2 + e[1]))


def test_lift_is_homomorphism_on_det_one_matrices():
    # all 116 determinant-one matrices with entries in [-3, 3] as one stack,
    # each on the same 1000 seeded element pairs
    law = hb.sl2_lift(sg.det_one_matrices(3)[:, None]).law
    rng = np.random.default_rng(4)
    x1, y1, x2, y2 = rng.integers(-50, 51, (4, 1000))
    z1, z2 = 2 * rng.integers(-99, 100, (2, 1000))
    a, b = (x1, y1, z1), (x2, y2, z2)
    out = law(hb._heis_law(None, a, b))
    assert out[0].shape == (116, 1000)
    assert same(out, hb._heis_law(None, law(a), law(b)))
    assert (law((0, 0, 14))[2] == 14).all()  # fixes center


def test_cocycle_identity_cases():
    I, F = np.eye(2, dtype=np.int64), np.array([[3, 1], [2, 1]])
    for pair in [(I, I), (F, I), (I, F)]:
        assert hb.q_form_cocycle_defect(*pair) == (0, 0, 0)


def test_cocycle_twist_squared():
    assert hb.q_form_cocycle_defect(FH, FH) == (0, 0, 0)


def test_cocycle_on_all_det_one_pairs():
    # every ordered pair of determinant-one matrices with entries in [-3, 3], one evaluation
    mats = sg.det_one_matrices(3)
    defect = hb.q_form_cocycle_defect(mats[:, None], mats[None, :])
    assert all(v.shape == (116, 116) and not v.any() for v in defect)


def _symbolic_matrix(sympy, names):
    return np.array(sympy.symbols(names), dtype=object).reshape(2, 2)


def test_cocycle_defect_vanishes_symbolically():
    # the package's own check on two matrices of symbols, with no determinant
    # relation: the defect is identically zero
    sympy = pytest.importorskip("sympy")
    F, G = _symbolic_matrix(sympy, "a b c d"), _symbolic_matrix(sympy, "e f g h")
    defect = hb.q_form_cocycle_defect(F, G)
    assert [sympy.expand(v) for v in defect] == [0, 0, 0]


def test_lift_identities_hold_symbolically():
    # the package's own lift, law and twist, evaluated on symbols
    sympy = pytest.importorskip("sympy")
    a, b, c, d, l1, l2 = sympy.symbols("a b c d l1 l2")
    x1, y1, z1, x2, y2, z2 = sympy.symbols("x1 y1 z1 x2 y2 z2")
    law = hb.SL2Lift(np.array([[a, b], [c, d]], dtype=object), (l1, l2)).law
    e1, e2 = (x1, y1, z1), (x2, y2, z2)
    lhs, rhs = law(hb._heis_law(None, e1, e2)), hb._heis_law(None, law(e1), law(e2))
    dx, dy, dz2 = (sympy.expand(u - v) for u, v in zip(lhs, rhs))
    det_rel = a * d - b * c - 1
    assert dx == 0 and dy == 0
    # every determinant-one matrix lifts to a morphism of the group over Z
    assert sympy.reduced(dz2, [det_rel])[1] == 0
    assert sympy.expand(dz2 + det_rel * (x1 * y2 - x2 * y1)) == 0

    x, y, z = sympy.symbols("x y z2")
    chi = hb.sl2_lift(hb.CHI_MATRIX)
    out, twisted = chi.law((x, y, z)), hb._twist(None, (x, y, z))
    assert [sympy.expand(u - v) for u, v in zip(out, twisted)] == [0, 0, 0]


def test_lift_defect_degrees_fit_the_sl2_grid():
    # the sl2 suite proves lift-homomorphism on a grid of 2 values for each
    # matrix entry, z2 and linear term and 3 for each x and y, which holds
    # only while both sides and the determinant term stay within degree 1,
    # resp. 2, in that variable; the bounds are attained, so the grid is tight
    sympy = pytest.importorskip("sympy")
    linear = sympy.symbols("a b c d z1 z2 l1 l2")
    quadratic = sympy.symbols("x1 y1 x2 y2")
    a, b, c, d, z1, z2, l1, l2 = linear
    x1, y1, x2, y2 = quadratic
    law = hb.SL2Lift(np.array([[a, b], [c, d]], dtype=object), (l1, l2)).law
    e1, e2 = (x1, y1, z1), (x2, y2, z2)
    terms = [*law(hb._heis_law(None, e1, e2)), *hb._heis_law(None, law(e1), law(e2)),
             (a * d - b * c - 1) * (x2 * y1 - x1 * y2)]
    degrees = np.array([sympy.Poly(t, *linear, *quadratic).degree_list() for t in terms])
    assert degrees[:, :8].max() == 1 and degrees[:, 8:].max() == 2
