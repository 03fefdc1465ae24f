"""Shared test helpers: reading word tables whole, their key forms, seeded coordinate triples,
traced memory peaks, the central projection the abelian search takes, and the group
fixtures and reference algorithms that only tests use (direct products, the JSON
read-back, centralizers, exponents, kernels, and the quotient-chain invariant factors
and recursive automorphism enumeration as oracles)."""

import tracemalloc

import numpy as np
import pytest

from abindex import group_core as gc
from abindex.errors import CapExceeded


def dense(g):
    """The whole Cayley table of ``g`` as a new array, for a word table or a dense one."""
    return np.array(g.mul[:, :])


def digit_places(radices):
    """The place value of each digit of the codes ``gc.code_digits`` gives: the
    code whose digit j is 1 and whose other digits are 0 (0 for a radix of 1)."""
    digits = np.stack(gc.code_digits(radices))
    single = (digits != 0).sum(axis=0) == 1
    return np.array([np.argmax(single & (d == 1)) for d in digits])


def digit_tree(radices):
    """The tree of a word table's words: the parent of a code is the code
    with its lowest nonzero digit lowered by one, and the code is the
    parent's word times that digit's generator (``via``) on the left, so a
    dense table composes along it, row from parent row."""
    digits = gc.code_digits(radices)
    lowest = np.stack(digits[::-1]) != 0
    via = len(radices) - 1 - np.argmax(lowest, axis=0)
    parent = np.arange(len(via)) - digit_places(radices)[via]
    parent[0] = via[0] = -1
    return parent, via


def seeded_triples(rng, count, span, z_high, z_scale=2):
    """``count`` triples (x, y, z2) over Z as three int64 arrays, drawn one
    element at a time: x and y in [-span, span], then z in [-z_high, z_high],
    with z2 = z_scale * z (z_scale 1 makes z half-integral)."""
    rows = []
    for _ in range(count):
        x, y = rng.integers(-span, span + 1, 2)
        rows.append((x, y, z_scale * rng.integers(-z_high, z_high + 1)))
    return tuple(np.array(rows, dtype=np.int64).T)


def same(a, b):
    """Whether two coordinate triples agree entry by entry, for ints or arrays."""
    return all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes.
    numpy reports its buffers to tracemalloc, so the peak counts arrays the
    same way on every platform."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_key_forms_read_as(mul, full):
    """Each key form reads the product ``mul`` as it reads the dense table
    ``full``, and each key that ``full`` refuses with IndexError ``mul``
    refuses too."""
    m = len(full)
    mask = np.arange(m) % 3 == 1
    rows, cols = np.array([[0], [m - 1], [5]]), np.array([2, -3, 7, 0])
    for key in [4, -2, (m - 1, slice(None)), (3, slice(2, None, 5)), (slice(None), 6),
                (slice(None), -m), (slice(m - 1, None, -4), 1),
                (slice(1, 40, 3), slice(None, 9, 2)), (slice(None), slice(None)),
                (slice(None, None, -1), slice(5, 2, -1)), mask,
                (mask, 2), (3, mask), (slice(2, 20), mask), (rows, cols), (rows, slice(1, 4))]:
        assert np.array_equal(mul[key], full[key]), key
    for key in [m, -m - 1, (0, m), (np.array([1, m]), 0), (0, np.array([-m - 1])),
                mask[1:], (0, mask[1:]), (slice(None), m), (1, 2, 3)]:
        with pytest.raises(IndexError):
            full[key]
        with pytest.raises(IndexError):
            mul[key]


def center_projection(g):
    """The projection of ``g`` onto G/Z(G), the input of ``gc.min_abelian_index``."""
    return gc.quotient_by_normal(g, gc.center(g))[1]


def direct_product(a, b, name=""):
    """The dense table of a x b, the pair (i, j) at index i |b| + j."""
    na, nb = a.order, b.order
    ia, ib = np.divmod(np.arange(na * nb), nb)
    mul = a.mul[np.ix_(ia, ia)].astype(np.int64) * nb + b.mul[np.ix_(ib, ib)]
    return gc.GroupTable(mul, name=name or f"{a.name}x{b.name}")


def table_from_json(doc):
    """The table a ``gc.table_to_json`` document describes, checked: the
    declared order matches (``GroupTable`` refuses an identity off index 0)."""
    mul = np.asarray(doc["mul"], dtype=np.int64)
    g = gc.GroupTable(mul, labels=doc.get("labels"))
    if doc["order"] != g.order:
        raise ValueError(f"declared order {doc['order']}, table order {g.order}")
    return g


def centralizer(g, s):
    """Elements commuting with every element of ``s`` (a mask, through its
    greedy generators, or an index set); ValueError for an index outside G.
    Read from contiguous rows: column x of the table is g x = (x^-1 g^-1)^-1."""
    xs = s.gens if isinstance(s, gc.SubgroupMask) else gc._checked_indices(g, s)
    bits = np.ones(g.order, dtype=bool)
    for x in xs:
        bits &= g.mul[x] == g.inv[g.mul[g.inv[x]][g.inv]]
    return gc.SubgroupMask(g, bits, _validated=True)


def exponent(g):
    return int(np.lcm.reduce(gc.all_element_orders(g)))


def kernel_mask(hom):
    return gc.SubgroupMask(hom.source, np.asarray(hom.map) == hom.target.identity)


def invariant_factors_by_quotients(g):
    """Oracle for ``gc.abelian_invariant_factors`` on a table: a maximal-order
    element spans a direct summand, so peel it off by quotienting and repeat."""
    if not g.is_abelian():
        raise ValueError("invariant factors need an abelian group")
    factors = []
    cur = g
    while cur.order > 1:
        orders = gc.all_element_orders(cur)
        top = int(orders.max())
        x = int(np.flatnonzero(orders == top)[0])
        factors.append(top)
        cur, _ = gc.quotient_by_normal(cur, gc.closure(cur, [x]))
    return factors


def automorphisms_by_recursion(g):
    """Oracle for ``gc.automorphisms``: recurse over the generator images,
    extend each full tuple along the Cayley graph one element at a time and
    keep it when it is a bijective homomorphism; sorted, read-only.  The
    table's greedy generators are pruned first, largest first, to a set
    that no proper subset of generates."""
    if g.order > gc.MAX_AUT_ORDER:
        raise CapExceeded(f"automorphism enumeration capped at order {gc.MAX_AUT_ORDER}")
    gens = g.gens.tolist()
    for x in reversed(g.gens.tolist()):
        rest = [y for y in gens if y != x]
        if gc.closure(g, rest).size == g.order:
            gens = rest
    fp = gc._element_fingerprints(g)
    candidates = [np.flatnonzero(fp == fp[x]) for x in gens]
    steps, found = [], [g.identity]
    seen = {g.identity}
    for p in found:
        for v, s in enumerate(gens):
            b = int(g.mul[s, p])
            if b not in seen:
                seen.add(b)
                found.append(b)
                steps.append((b, p, v))
    out = []
    img = np.full(g.order, -1, dtype=np.int64)
    img_of_gen = [0] * len(gens)

    def assign(depth):
        if depth == len(gens):
            img[g.identity] = g.identity
            for b, p, v in steps:
                img[b] = g.mul[img_of_gen[v], img[p]]
            if (np.bincount(img, minlength=g.order) != 1).any():
                return
            if gc.Homomorphism(g, g, img).verify():
                perm = img.copy()
                perm.flags.writeable = False
                out.append(perm)
            return
        for y in candidates[depth]:
            img_of_gen[depth] = int(y)
            assign(depth + 1)

    assign(0)
    out.sort(key=lambda perm: perm.tolist())
    return out
