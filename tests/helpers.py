"""Shared test helpers: reading word tables whole, seeded coordinate triples,
and traced memory peaks."""

import tracemalloc

import numpy as np

from abindex import group_core as gc


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
