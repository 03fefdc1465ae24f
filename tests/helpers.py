"""Shared test helpers: reading word tables whole, their key forms, seeded coordinate triples,
and traced memory peaks."""

import tracemalloc

import numpy as np
import pytest

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
