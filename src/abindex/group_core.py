"""Generic finite-group engine on multiplication tables.

Elements of a group of order ``n`` are the integers ``0..n-1``; index 0 is
always the identity in every construction of this package.  A table's
product is a dense Cayley table, a word table (``WordMul``) or a derived
group's product induced from its parent's on lifts (``InducedMul``: quotients
and subgroup tables), indexed alike.  Subgroups are boolean masks over the
index range, and the heavy loops are vectorized with numpy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

try:
    import resource
except ImportError:  # Windows: no resource module, no address-space limit to read
    resource = None

from .errors import (CapExceeded, InvalidInput, NotCentral, NotNormal, PrimeDoesNotDivide,
                     SearchTimeout)

MAX_AUT_ORDER = 120  # largest group whose automorphisms are enumerated
MAX_TABLE_BYTES = 2 << 30  # largest Cayley or word table a construction allocates

_BLOCK_ELEMS = 1 << 16  # elements per block in O(n^2) scans and read-outs
_DENSE_WORD_ORDER = 1 << 10  # a certified product up to this order (2 MB) is read out dense


def _index_dtype(order: int):
    return np.int16 if order <= np.iinfo(np.int16).max else np.int32


def _blocks(n: int):
    step = max(1, _BLOCK_ELEMS // max(n, 1))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


class GroupTable:
    """A finite group as an indexed element set with its product ``mul``.

    ``mul`` is a full Cayley table, which gets Light's test, or a ``WordMul``
    or ``InducedMul``, certified when built, whose Cayley table is read out
    and kept up to order ``_DENSE_WORD_ORDER``: there one lookup per product
    beats the gathers of one evaluation.  The table memoizes exactly
    two derived arrays, both read-only: its conjugacy classes, from which the
    center, ``is_abelian`` and the search root are read
    (``conjugacy_class_labels``), and its element orders
    (``all_element_orders``).  ``gens`` are its greedy generators, as a
    ``SubgroupMask`` of every element has them, read-only.  ``labels`` is a
    list, or a function of no arguments that makes it on first read.
    """

    def __init__(
        self,
        mul,
        labels: Optional[Sequence[str] | Callable[[], Sequence[str]]] = None,
        name: str = "",
    ):
        certified = isinstance(mul, _Product)
        if certified:
            order = mul.order
            if order <= _DENSE_WORD_ORDER:
                mul = _read_out(mul)
        else:
            mul = np.asarray(mul)
            if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
                raise ValueError("multiplication table must be square")
            order = int(mul.shape[0])
            if order == 0:
                raise ValueError("empty table")
            if mul.min() < 0 or mul.max() >= order:
                raise ValueError("table entry out of range")
            mul = mul.astype(_index_dtype(order), copy=False)
        self.order = order
        self.mul = mul
        self.name = name
        if labels is not None and not callable(labels):
            labels = [str(x) for x in labels]
            if len(labels) != order:
                raise ValueError("labels length does not match order")
        self._labels = labels
        self.identity = self._find_identity()
        self.inv = self._build_inverse_table()
        self.gens = np.array(_greedy_generators(self, np.ones(order, dtype=bool))[0],
                             dtype=np.intp)
        self.gens.flags.writeable = False
        if not certified:
            self._check_associativity()

    def _find_identity(self) -> int:
        rng = np.arange(self.order)
        # constructions in this package put the identity at index 0
        if np.array_equal(self.mul[0], rng) and np.array_equal(self.mul[:, 0], rng):
            return 0
        for e in range(1, self.order):
            if np.array_equal(self.mul[e], rng) and np.array_equal(self.mul[:, e], rng):
                return int(e)
        raise ValueError("table has no identity element")

    def _build_inverse_table(self) -> np.ndarray:
        n = self.order
        if isinstance(self.mul, _Product):
            inv = self.mul.inverses()
        else:
            inv = np.empty(n, dtype=np.int64)
            for lo, hi in _blocks(n):
                inv[lo:hi] = np.argmax(self.mul[lo:hi] == self.identity, axis=1)
        rng = np.arange(n)
        e = np.full(n, self.identity)
        if not np.array_equal(self.mul[rng, inv], e) or not np.array_equal(
            self.mul[inv, rng], e
        ):
            raise ValueError("inverse law fails; table is not a group")
        return inv

    @property
    def labels(self) -> Optional[list[str]]:
        if callable(self._labels):  # a label function runs once, on first read
            self._labels = self._labels()
        return self._labels

    @cached_property
    def _classes(self) -> np.ndarray:
        """Map from each element to the smallest index of its conjugacy class."""
        out = _conjugation_orbits(self, self.gens, np.ones(self.order, dtype=bool))
        out.flags.writeable = False
        return out

    @cached_property
    def _orders(self) -> np.ndarray:
        """The least k >= 1 with x^k = 1, for every x.  Conjugates have equal
        orders, so the powers run only on the class representatives and the
        result is read out through the classes."""
        reps = np.flatnonzero(self._classes == np.arange(self.order))
        cur = reps.copy()
        orders = np.ones(self.order, dtype=np.int64)
        alive = cur != self.identity
        while alive.any():
            idx = np.flatnonzero(alive)
            cur[idx] = self.mul[cur[idx], reps[idx]]
            orders[reps[idx]] += 1
            alive[idx] = cur[idx] != self.identity
        orders = orders[self._classes]
        orders.flags.writeable = False
        return orders

    def _check_associativity(self) -> None:
        """Light's test on the generators, exact at every order.

        The s with (x s) y = x (s y) for all x, y form a set closed under the
        product, so it is the whole group once it holds every generator.
        """
        mul = self.mul
        for s in self.gens:
            col, row = mul[:, s], mul[s]
            for lo, hi in _blocks(self.order):
                if not np.array_equal(mul[col[lo:hi]], mul[lo:hi, row]):
                    raise ValueError(f"table not associative at generator {s}")

    def mul_idx(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_idx(self, a: int) -> int:
        return int(self.inv[a])

    def is_abelian(self) -> bool:
        return bool((self._classes == np.arange(self.order)).all())

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name or 'group'}, order={self.order})"


class SubgroupMask:
    """A subset of element indices closed under the group law.  It memoizes
    its greedy generators (``gens``), which validating it computes."""

    def __init__(self, owner: GroupTable, bits: np.ndarray, _validated: bool = False):
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (owner.order,):
            raise ValueError("mask length does not match group order")
        self.owner = owner
        self.bits = bits
        self.size = int(np.count_nonzero(bits))
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        """Exact: the mask is the subgroup generated by a greedy generating
        set of its own elements, which holds only when it is closed under
        the product (in a finite group that makes it a subgroup)."""
        g = self.owner
        if not self.bits[g.identity]:
            raise ValueError("subgroup mask must contain the identity")
        if self.size == g.order:
            return
        gens, sub = _greedy_generators(g, self.bits)
        if not np.array_equal(sub, self.bits):
            raise ValueError("mask not closed under multiplication")
        self.__dict__["gens"] = tuple(gens)

    @cached_property
    def gens(self) -> tuple[int, ...]:
        """Each the smallest member outside the closure of those before it."""
        return tuple(_greedy_generators(self.owner, self.bits)[0])

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def contains(self, a: int) -> bool:
        return bool(self.bits[a])

    def is_abelian(self) -> bool:
        """Exact in O(|S| |H|): a member commuting with each generator s of
        H centralizes H, so H is abelian when every member does."""
        g, idx = self.owner, self.indices()
        return all(np.array_equal(g.mul[idx, s], g.mul[s, idx]) for s in self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupMask)
            and other.owner is self.owner
            and np.array_equal(other.bits, self.bits)
        )

    def __hash__(self) -> int:
        return hash((id(self.owner), self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"SubgroupMask(size={self.size} of {self.owner.order})"


@dataclass
class Homomorphism:
    """A group homomorphism given by an index-to-index map.  A projection
    built by ``quotient_by_normal`` also carries ``lifts``, the smallest
    element over each element of the target."""

    source: GroupTable
    target: GroupTable
    map: np.ndarray
    lifts: Optional[np.ndarray] = None

    def verify(self) -> bool:
        """Exact: m(r x) = m(r) m(x) for r the identity or a generator and every x.

        The r passing form a set closed under the product, and the identity
        row forces m(1) = 1, so the set is the whole source group.  One row
        r is compared at a time, and the target's row at m(r) is read once
        and then gathered at m, so the check holds a few rows at a time: a
        quotient's certificate reads its product on the lifts, and all rows
        at once would hold more than a |Q|^2 table above the dense order.
        """
        m = np.asarray(self.map, dtype=np.int64)
        s, t = self.source, self.target
        return all(np.array_equal(m[s.mul[r]], t.mul[m[r]][m])
                   for r in [s.identity, *s.gens.tolist()])

    def _image_bits(self) -> np.ndarray:
        bits = np.zeros(self.target.order, dtype=bool)
        bits[self.map] = True
        return bits

    def image_mask(self) -> SubgroupMask:
        return SubgroupMask(self.target, self._image_bits())

    def is_injective(self) -> bool:
        return int(np.count_nonzero(self._image_bits())) == self.source.order

    def is_surjective(self) -> bool:
        return bool(self._image_bits().all())


# ---------------------------------------------------------------------------
# construction


def _mapped_bytes() -> int:
    """Bytes of address space the process maps now (/proc/self/statm), or 0."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * resource.getpagesize()
    except (OSError, ValueError, IndexError):
        return 0


def _table_bytes_bound() -> tuple[int, str]:
    """The most bytes one table may take, and its description: MAX_TABLE_BYTES,
    or what the process's soft address-space limit leaves beside the space
    already mapped, when that is smaller.  The limit is only read: a table
    that cannot fit is refused at the guard rather than by a MemoryError."""
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            mapped = _mapped_bytes()
            if soft - mapped < MAX_TABLE_BYTES:
                return soft - mapped, (f"the address-space limit (RLIMIT_AS) of {soft} "
                                       f"bytes, less {mapped} bytes already mapped")
    return MAX_TABLE_BYTES, f"{MAX_TABLE_BYTES} bytes"


def check_fits(nbytes: int, thing: str) -> None:
    """The memory guard: refuse ``thing`` with CapExceeded, before it is
    allocated, when its ``nbytes`` would not fit in ``_table_bytes_bound``."""
    bound, what = _table_bytes_bound()
    if nbytes > bound:
        raise CapExceeded(f"{thing} would exceed {what}")


def check_table_order(m: int) -> None:
    """The table-size guard: refuse order m when its Cayley table would not fit."""
    check_fits(m * m * np.dtype(_index_dtype(m)).itemsize, f"a table of order {m}")


def _along_words(maps: np.ndarray, radices: Sequence[int], starts) -> np.ndarray:
    """Row i, entry x: ``starts[i]`` mapped through maps[L]^d_L ... maps[0]^d_0,
    where (d_0, ..., d_L) are the digits of the mixed-radix code x over
    ``radices``, most significant first (maps[0] acts first).  One gather per
    digit value, level by level, so O(|G|) in all for each start."""
    cur = np.asarray(starts, dtype=maps.dtype)[:, None]
    for m, r in zip(maps, radices):
        out = np.empty(cur.shape + (r,), dtype=cur.dtype)
        out[..., 0] = cur
        for d in range(1, r):
            out[..., d] = m[out[..., d - 1]]
        cur = out.reshape(len(out), -1)
    return cur


def _word_build_bytes(radices: Sequence[int]) -> int:
    """Bytes a word table over ``radices`` holds at its peak, through its
    build and the largest O(|G|) pass the CLI runs on it: the caller's
    digits and generator rows (int64) and the ``WordMul`` (columns, intp
    digit offsets, int64 codes) throughout, and on top the largest
    transient.  Building the ``WordMul``: the rows' index-dtype copy and the
    words (one row more).  Checking the inverses: five int64 rows (inverses,
    indices, identity, codes, sums), one gather's digit offsets and two
    gathered rows.  ``commutator_subgroup`` (one greedy generator per digit
    in the coordinate families): an int64 range and a mask, and per
    generator two products and the third's int64 lifts, digit offsets, sums
    and two gathered rows.  This bounds tracemalloc's peak of ``gamma`` at
    n = 40 and 60 and of ``hat-gamma`` at n = 20 and 30."""
    order, places = math.prod(radices), len(radices)
    itemsize = np.dtype(_index_dtype(order)).itemsize
    held = 8 * places + 8 * places + itemsize * sum(radices) + 8 * places + 8
    building = itemsize * places + itemsize * (places + 1)
    checking = 8 * 5 + 8 * places + 2 * itemsize
    commutators = 9 + places * (4 * itemsize + 16 + 8 * places)
    return order * (held + max(building, checking, commutators))


def code_digits(radices: Sequence[int]) -> list[np.ndarray]:
    """The digits of the mixed-radix codes 0 .. prod(radices) - 1, most
    significant first.  The word-table guard: radices whose word-table build
    (``_word_build_bytes``) would exceed ``_table_bytes_bound`` are refused
    first, before any array is built."""
    order = math.prod(radices)
    check_fits(_word_build_bytes(radices), f"a word table of order {order}")
    places = np.cumprod([1, *radices[:0:-1]])[::-1]
    codes = np.arange(order)
    return [codes // p % r for p, r in zip(places, radices)]


class _Product:
    """A certified product of ``order`` elements, evaluated on demand and
    indexed like a dense Cayley table: ``mul[a, b]`` on broadcast index
    arrays, ``mul[x]``, ``mul[:, y]``, boolean masks and slices, negative
    indices included; out of range raises IndexError.  numpy checks a row
    index against ``_left`` and a column index against ``_right[0]``, and a
    slice of columns is a view; ``_product`` evaluates ``_left[i]`` at
    ``_right[:, j]``."""

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key, slice(None))
        if len(key) != 2:
            raise IndexError(f"a table takes two indices, not {len(key)}")
        a, b = self._left[key[0]], self._right[:, key[1]]
        if isinstance(key[0], slice):  # a slice indexes an outer axis, as in numpy
            a = a.reshape(a.shape + (1,) * (b.ndim - 1))
        elif isinstance(key[1], slice):
            a = a[..., None]
        return self._product(a, b)


class WordMul(_Product):
    """The product of a word table.

    The elements are the mixed-radix codes over ``radices``, and the code
    with digits (d_0, ..., d_L), most significant first, is the word
    s_L^d_L ... s_0^d_0 in generators s_j, where ``gen_rows[j]`` is left
    multiplication by s_j.  For each s_j and each power d < r_j the product
    keeps the column x -> x s_j^d, and x y is one gather per digit of y,
    lowest digit first.  ``nbytes`` counts the columns and their digit
    offsets.  ``digits`` are the codes' digits, as the caller has them from
    ``code_digits``.

    Built only certified.  The generator columns R_j, x -> x s_j, are the
    words evaluated at s_j, computed along the codes in O(|S| |G|).  Two
    checks in O(|S|^2 |G|) then make the words the regular representation of
    a group, whose product the columns give: column 0 is the identity map
    (the word of code x sends 0 to x), and each generator row commutes with
    each R_j.  For then the R_j carry 0 to every element and commute with
    every word, so a word is fixed by its value at 0.  (A transitive group
    with a transitive centralizer is regular: Dixon and Mortimer,
    Permutation Groups, 4.2.)  The given digits are checked last, in
    O(|S| |G|): each lies below its radix, and row 0, 0 y = y read through
    them, is the identity map, which it is exactly when every code's digits
    are its own, since the word of code x sends 0 to x.
    """

    def __init__(self, gen_rows: Sequence[np.ndarray], radices: Sequence[int],
                 digits: Sequence[np.ndarray]):
        radices = list(radices)
        self.order = order = math.prod(radices)
        if len(gen_rows) != len(radices):
            raise ValueError("one generator row per radix is needed")
        if len(digits) != len(radices) or any(
                np.shape(d) != (order,) or d.min() < 0 or d.max() >= r
                for d, r in zip(digits, radices)):
            raise ValueError("one digit array per radix, each below its radix, is needed")
        rows = np.empty((len(radices), order), dtype=_index_dtype(order))
        for row, given in zip(rows, gen_rows):
            given = np.asarray(given)
            if given.shape != (order,) or given.min() < 0 or given.max() >= order:
                raise ValueError("generator row entry out of range")
            row[:] = given
        words = _along_words(rows, radices, [0, *rows[:, 0]])
        if not np.array_equal(words[0], np.arange(order)):
            raise ValueError("word table is not a group: column 0 is not the identity map")
        right = words[1:]
        if not all(np.array_equal(left[r], r[left]) for left in rows for r in right):
            raise ValueError("word table not associative: a generator row and a "
                             "generator column do not commute")
        self._radices = radices
        self._left = np.arange(order)
        self._cols = np.empty(sum(radices) * order, dtype=rows.dtype)
        # digit j of y as the offset of its column: x s_j^d is _cols[_steps[j, y] + x]
        self._steps = np.empty((len(radices), order), dtype=np.intp)
        cols = self._cols.reshape(-1, order)
        col = 0
        for j, (r, d) in enumerate(zip(radices, digits)):
            cols[col] = np.arange(order)
            for p in range(col + 1, col + r):
                cols[p] = right[j][cols[p - 1]]
            self._steps[j] = (col + d) * order
            col += r
        self._right = self._steps[::-1]  # the digit offsets of y, lowest digit first
        if not np.array_equal(self[0], self._left):
            raise ValueError("the digits are not those of the codes")

    @property
    def nbytes(self) -> int:
        return self._cols.nbytes + self._steps.nbytes

    def inverses(self) -> np.ndarray:
        """x^-1 = s_0^-d_0 ... s_L^-d_L, read along the codes from the inverse
        generator columns; the caller checks x x^-1 = 1."""
        back = np.zeros((len(self._radices), self.order), dtype=self._cols.dtype)
        for j, r in enumerate(self._radices):
            if r > 1:  # column x -> x s_j follows the identity column of s_j
                start = int(self._steps[j, 0]) + self.order
                back[j, self._cols[start:start + self.order]] = np.arange(self.order)
        return _along_words(back, self._radices, [0])[0].astype(np.int64)

    def _product(self, a, steps):
        for step in steps:
            a = self._cols[step + a]
        return a


class InducedMul(_Product):
    """A product induced from a group G on the elements ``lifts``: entry
    (a, b) is ``pos[lifts[a] lifts[b]]``, one product in G read back through
    the position map ``pos``.  A quotient G/N takes the coset minima and the
    projection, a subgroup table its elements and their positions among them.
    No |lifts|^2 array is built; each caller certifies what it builds."""

    def __init__(self, g: GroupTable, lifts: np.ndarray, pos: np.ndarray):
        self.g, self.pos = g, pos
        self.order = len(lifts)
        self._left, self._right = lifts, lifts[None]

    def inverses(self) -> np.ndarray:
        """The position of each lift's inverse; the caller checks x x^-1 = 1."""
        return self.pos[self.g.inv[self._left]]

    def _product(self, a, b):
        return self.pos[self.g.mul[a, b[0]]]


def _read_out(mul: _Product) -> np.ndarray:
    """The dense Cayley table of a certified product, read in ``_blocks``
    of rows, so the transients of one block are alive at a time."""
    table = np.empty((mul.order, mul.order), dtype=_index_dtype(mul.order))
    for lo, hi in _blocks(mul.order):
        table[lo:hi] = mul[lo:hi]
    return table


def table_to_json(g: GroupTable) -> dict:
    """Interchange form: row-major table, element 0 is the identity.  The
    whole table is written out, so an order whose Cayley table would not fit
    is refused first, as a dense table of that order is."""
    check_table_order(g.order)
    doc = {"order": g.order, "mul": g.mul[:, :].tolist()}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


# ---------------------------------------------------------------------------
# subgroup machinery


def _checked_indices(g: GroupTable, xs: Iterable[int]) -> np.ndarray:
    xs = np.asarray(list(xs), dtype=np.intp)
    bad = xs[(xs < 0) | (xs >= g.order)]
    if len(bad):
        raise ValueError(f"element index {bad[0]} out of range")
    return xs


def closure(g: GroupTable, seed: Iterable[int]) -> SubgroupMask:
    """Smallest subgroup containing the seed indices.

    This is the left orbit of the identity under the seeds, which in a finite
    group is the subgroup they generate.
    """
    seed = _checked_indices(g, seed)
    bits = np.zeros(g.order, dtype=bool)
    _grow(bits, np.array([g.identity]), lambda f: g.mul[seed[:, None], f])
    return SubgroupMask(g, bits, _validated=True)


def _grow(bits: np.ndarray, frontier: np.ndarray, images: Callable) -> None:
    """Add the frontier to ``bits`` in place, then ``images(f)`` of each
    batch f of elements gained, until no new element appears.  A new element
    found more than once is kept once, without sorting: of the positions
    that write it to ``slot``, exactly one reads itself back."""
    slot = np.empty(len(bits), dtype=np.intp)
    while len(frontier):
        bits[frontier] = True
        prods = images(frontier).ravel()
        prods = prods[~bits[prods]]
        pos = np.arange(len(prods))
        slot[prods] = pos
        frontier = prods[slot[prods] == pos]


def _greedy_generators(g: GroupTable, bits: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Generators of ``bits``, each its smallest element outside the closure
    H of the ones before it, and their closure, which is ``bits`` exactly
    when ``bits`` is closed.  The closure grows from H: the old generators
    map H into itself, so only the new one meets H."""
    gens: list[int] = []
    sub = np.zeros(g.order, dtype=bool)
    sub[g.identity] = True
    while (outside := bits & ~sub).any():
        gens.append(int(np.argmax(outside)))
        gained = g.mul[gens[-1], sub]
        seed = np.array(gens)[:, None]
        _grow(sub, gained[~sub[gained]], lambda f: g.mul[seed, f])
    return gens, sub


def _conjugation_orbits(g: GroupTable, gens: Sequence[int], bits: np.ndarray) -> np.ndarray:
    """Map from each element of ``bits`` to the smallest element of its orbit
    under the conjugations x -> s x s^-1 by ``gens``; other elements map to
    themselves.

    ``bits`` must be a union of orbits (a subgroup holding the generators, or
    the whole group); the orbits are ``_orbit_minima`` of the conjugation maps.
    """
    idx = np.flatnonzero(bits)
    pos = np.zeros(g.order, dtype=np.intp)
    pos[idx] = np.arange(len(idx))
    # one map per generator: one |gens| x |bits| block of products peaks higher
    maps = [pos[g.mul[g.mul[s, idx], g.inv[s]]] for s in gens]
    labels = _orbit_minima(maps, len(idx))
    out = np.arange(g.order)
    out[idx] = idx[labels]  # idx is ascending, so the smallest position is the smallest index
    return out


def _orbit_minima(maps: Iterable[np.ndarray], size: int) -> np.ndarray:
    """Map from each of 0 .. size-1 to the smallest member of its orbit under
    the permutations ``maps``.  Each map in turn takes every label to the
    smaller of it and the label one step along, with the step doubled each
    time (p, p^2, p^4, ...) until nothing changes; the maps are swept until
    a whole sweep changes nothing.  Labels then do not rise along any map,
    so they are constant on its cycles and on the orbits."""
    labels = np.arange(size)
    changed = True
    while changed:
        changed = False
        for p in maps:
            while not np.array_equal(step := np.minimum(labels, labels[p]), labels):
                labels, p, changed = step, p[p], True
    return labels


def conjugacy_class_labels(g: GroupTable) -> np.ndarray:
    """Read-only map from each element to the smallest index of its class.

    The classes are the orbits of the conjugations by the table's generators.
    """
    return g._classes


def center(g: GroupTable) -> SubgroupMask:
    """Elements commuting with the whole group, the one-element classes; always normal."""
    return SubgroupMask(g, np.bincount(g._classes)[g._classes] == 1, _validated=True)


def commutators(g: GroupTable, a, b) -> np.ndarray:
    """a b a^-1 b^-1 on broadcast index arrays, in the table dtype."""
    return g.mul[g.mul[a, b], g.mul[g.inv[a], g.inv[b]]]


def commutator_subgroup(g: GroupTable) -> SubgroupMask:
    """[G,G], generated by the commutators [x, s] of every x with every generator s.

    That subgroup is normal, since [xy, s] = x [y, s] x^-1 [x, s], and the
    generators are central modulo it, so the quotient is abelian.
    """
    bits = np.zeros(g.order, dtype=bool)
    bits[commutators(g, np.arange(g.order)[:, None], g.gens)] = True
    return closure(g, np.flatnonzero(bits))


def all_element_orders(g: GroupTable) -> np.ndarray:
    """Read-only order of each element."""
    return g._orders


def _member_orders(g: GroupTable | SubgroupMask) -> np.ndarray:
    """The element orders of a table, or of a mask's members, read off its owner's."""
    if isinstance(g, SubgroupMask):
        return all_element_orders(g.owner)[g.bits]
    return all_element_orders(g)


def is_cyclic(g: GroupTable | SubgroupMask) -> bool:
    """Whether some member's order is the group's, for a table or a mask."""
    orders = _member_orders(g)
    return bool(orders.max() == len(orders))


def is_normal(g: GroupTable, s: SubgroupMask) -> bool:
    """Exact: every generator conjugates the subgroup into itself."""
    idx = s.indices()
    conj = g.mul[g.mul[np.ix_(g.gens, idx)], g.inv[g.gens][:, None]]
    return bool(s.bits[conj].all())


def _cosets(g: GroupTable, s: SubgroupMask) -> tuple[np.ndarray, np.ndarray]:
    """The smallest element of each coset x N, the identity's first and then
    ascending, and the map from each element to its coset's position."""
    labels = _orbit_minima([g.mul[:, x] for x in s.gens], g.order)
    reps = np.flatnonzero(labels == np.arange(g.order))
    e_rep = labels[g.identity]
    reps = np.concatenate([[e_rep], reps[reps != e_rep]])
    pos = np.empty(g.order, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    return reps, pos[labels]


def quotient_by_normal(g: GroupTable, s: SubgroupMask) -> tuple[GroupTable, Homomorphism]:
    """The quotient Q = G/N by a normal subgroup N = ``s``, and the
    projection, whose ``lifts`` are the cosets' smallest elements; raises
    NotNormal.

    The cosets x N are the orbits of right multiplication by generators of
    N, each labelled by its smallest element; Q numbers them in the order of
    those minima, the identity's coset first.  Q's product is G's product on
    the lifts, projected (``InducedMul``).  The trivial N gives Q = G, with
    the identity lift.

    Certified exactly in O(|S| |G|), trusting neither the labels nor the
    lifts: N is normal (``is_normal``), its elements are exactly those over
    Q's identity, each lift lies over its own coset, and the projection
    respects left multiplication by each generator of G
    (``Homomorphism.verify``).  The last makes x ~ y (same projection) a
    left congruence, whose classes are the left cosets of the identity's
    class N.  So the projection's fibres are the cosets of N, and every
    entry, read on the lifts, is G/N's product (N is normal).  Light's test
    on Q is not run: it would check the associativity of a group already
    proven one.
    """
    if not is_normal(g, s):
        raise NotNormal("subgroup is not normal, cannot form the quotient")
    if s.size == 1:
        every = np.arange(g.order)
        return g, Homomorphism(g, g, every, every)
    reps, proj = _cosets(g, s)
    labels = None if g._labels is None else lambda: [f"[{g.labels[r]}]" for r in reps.tolist()]
    qt = GroupTable(InducedMul(g, reps, proj), labels=labels, name=f"{g.name}/N" if g.name else "")
    hom = Homomorphism(g, qt, proj, reps)
    if not (np.array_equal(proj == qt.identity, s.bits)
            and np.array_equal(proj[reps], np.arange(qt.order)) and hom.verify()):
        raise ValueError("the projection onto the cosets is not a homomorphism")
    return qt, hom


def subgroup_table(g: GroupTable, s: SubgroupMask) -> tuple[GroupTable, np.ndarray]:
    """The group H = ``s`` on its own indices, the identity first and then
    ascending, plus the map back to parent indices.

    H's product is G's product on H's elements, read back through their
    positions (``InducedMul``), and needs no test of its own: the validated
    mask proves H closed, and associativity comes from G.
    """
    idx = s.indices()
    if idx[0] != g.identity:
        idx = np.concatenate([[g.identity], idx[idx != g.identity]])
    lookup = np.full(g.order, -1, dtype=np.int64)
    lookup[idx] = np.arange(len(idx))
    labels = None if g._labels is None else lambda: [g.labels[v] for v in idx.tolist()]
    return GroupTable(InducedMul(g, idx, lookup), labels=labels,
                      name=f"{g.name}|sub" if g.name else ""), idx


# ---------------------------------------------------------------------------
# minimal abelian index


@dataclass
class AbelianIndexResult:
    index: int
    witness: SubgroupMask
    nodes_explored: int = 0
    runtime_s: float = 0.0
    root_classes: int = 0  # conjugacy classes of the quotient branched on at the root
    centralizers: int = 0  # commutation rows the search read for candidate children
    quotient_order: int = 0  # order of the quotient G/Z the search ran on


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


class _AbelianSearch:
    """Branch and bound for the largest abelian subgroup, run on the quotient
    Q = G/Z by a central subgroup Z, given by its projection ``eta`` with lifts
    (the tests' reference runs it on G itself, modulo the trivial subgroup).

    Every maximal abelian subgroup of G contains Z(G) and so Z; whether two
    elements commute depends only on their cosets mod Z, since Z is central.
    So the largest abelian order is |Z| times that of the largest subgroup of
    Q whose lifts commute pairwise in G.  Below, elements of Q commute when
    their lifts do, and centralizers and centers are taken in that sense.

    A node is the centralizer C = C_Q(H) of the current candidate H.  Every
    candidate through H lies in C, and every inclusion-maximal one contains
    the center of C, the elements of C commuting with C's greedy generators;
    so H is taken to be that center in one step and recorded when it beats
    the incumbent (the root records Z(G)/Z).  C fixes H pointwise and maps
    the excluded set E into itself, both under conjugation in Q, so a
    candidate through H and x is C-conjugate to one through the smallest
    element of x's orbit under C.  A node branches only on those orbit
    minima and, after exploring one, excludes its whole orbit; E stays a
    union of orbits of every deeper centralizer, since each lies in C.  The
    child's centralizer C cap C_Q(x) has order at most |C| / |orbit of x|,
    with equality in G but not always in Q (in Gamma_n, b has n conjugates
    b c^i, all in one coset), so that bound is compared with the incumbent
    first, and the child's order is then read exactly from x's commutation
    row before the child is entered.  Pruning is Lagrange: a candidate in C
    through H has an order that |H| divides, that divides |C| and that is at
    most the number of elements of C outside E, so a node stops once the
    largest such order no longer beats the incumbent.  Branching order:
    ascending element order in Q, then index, so the explored tree is
    deterministic.
    """

    def __init__(self, eta: Homomorphism, deadline: Optional[float]):
        self.g, self.q, self.lifts = eta.source, eta.target, eta.lifts
        self.n = self.q.order
        self.z_order = self.g.order // self.n
        self.deadline = deadline
        self.orders = all_element_orders(self.q)
        self.best_size = 0
        self.best_mask: Optional[np.ndarray] = None
        self.nodes = 0
        self.root_classes = 0
        self.centralizers = 0

    def commute_bits(self, xs: Iterable[int]) -> np.ndarray:
        """Mask of the elements of Q whose lifts commute in G with the lift of
        every x in ``xs``: one row and one column of G at the lifts per x."""
        g, lifts = self.g, self.lifts
        bits = np.ones(self.n, dtype=bool)
        for x in xs:
            lx = int(lifts[x])
            bits &= g.mul[lx, lifts] == g.mul[lifts, lx]
        return bits

    def centralizer_bits(self, x: int) -> np.ndarray:
        """The commutation row of a candidate child's x, counted."""
        self.centralizers += 1
        return self.commute_bits([x])

    def meets_excluded(self, h_bits: np.ndarray, h_idx: np.ndarray, x: int,
                       excluded: np.ndarray) -> bool:
        """Whether H<x> meets E (H, listed by ``h_idx``, misses it): walks the
        cosets H x^k until x^k is in H."""
        p = int(x)
        while not h_bits[p]:
            if excluded[self.q.mul[h_idx, p]].any():
                return True
            p = int(self.q.mul[p, x])
        return False

    def local_structure(self, c_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the subgroup C of Q given by ``c_bits``: the smallest element of
        each element's orbit under conjugation by C, each element's orbit
        size (0 outside C), and the mask of C's center.

        All three come from a greedy generating set of C; at the root, C = Q,
        from the table's generators and its conjugacy classes.
        """
        if c_bits.all():
            gens, labels = self.q.gens, self.q._classes
        else:
            gens, _ = _greedy_generators(self.q, c_bits)
            labels = _conjugation_orbits(self.q, gens, c_bits)
        sizes = np.bincount(labels[c_bits], minlength=self.n)[labels]
        return labels, sizes, c_bits & self.commute_bits(gens)

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout(
                "abelian subgroup search exceeded its time budget",
                best_order_found=self.best_size * self.z_order,
            )

    def run(self) -> None:
        self.descend(np.ones(self.n, dtype=bool), np.zeros(self.n, dtype=bool))

    def descend(self, c_bits: np.ndarray, excluded: np.ndarray) -> None:
        """Search below C = ``c_bits``; the caller checked that |C| beats the incumbent."""
        self.nodes += 1
        c_size = int(np.count_nonzero(c_bits))
        labels, sizes, h_bits = self.local_structure(c_bits)
        if (h_bits & excluded).any():
            # every maximal candidate here needs an excluded element
            return
        h_idx = np.flatnonzero(h_bits)
        h_size = len(h_idx)
        if h_size > self.best_size:
            self.best_size, self.best_mask = h_size, h_bits
        cand = np.flatnonzero(c_bits & ~h_bits & ~excluded)
        cand = cand[labels[cand] == cand]
        cand = cand[np.lexsort((cand, self.orders[cand]))]
        root = c_size == self.n
        excluded = excluded.copy()
        avail = c_size - int(np.count_nonzero(c_bits & excluded))
        # the orbit of x is members[start:start + sizes[x]]
        members = np.argsort(labels, kind="stable")
        starts = np.searchsorted(labels[members], cand)
        # orders a candidate in C through H may have; H misses E, so avail >= |H|
        bounds = [h_size * k for k in _divisors(c_size // h_size)]
        for x, start in zip(cand.tolist(), starts.tolist()):
            self.check_time()
            while bounds[-1] > avail:
                bounds.pop()
            if bounds[-1] <= self.best_size:
                return
            # |C cap C_Q(x)| <= |C| / |orbit of x|; the commutation row gives it exactly
            if (c_size // int(sizes[x]) > self.best_size
                    and not self.meets_excluded(h_bits, h_idx, x, excluded)):
                child = c_bits & self.centralizer_bits(x)
                if np.count_nonzero(child) > self.best_size:
                    self.descend(child, excluded)
            excluded[members[start:start + sizes[x]]] = True
            avail -= int(sizes[x])
            if root:
                self.root_classes += 1


def min_abelian_index(eta: Homomorphism, budget_s: Optional[float] = None) -> AbelianIndexResult:
    """Exact minimal index of an abelian subgroup of G, with a maximal witness.

    Deterministic branch and bound over commuting extensions, run on G/Z for
    a central Z (``_AbelianSearch``).  ``eta`` is the projection onto G/Z that
    ``quotient_by_normal`` built; NotCentral if Z is not central, InvalidInput
    unless each lift lies over its own element.  The witness is the preimage
    of the best subgroup of G/Z, checked abelian on G.  When ``budget_s`` is
    given and exceeded, SearchTimeout is raised instead of returning a
    partial answer; it carries the order of the incumbent, at least |Z|.
    """
    t0 = time.monotonic()
    g, proj = eta.source, eta.map
    if eta.lifts is None or not np.array_equal(proj[eta.lifts], np.arange(eta.target.order)):
        raise InvalidInput("the search needs a projection with a lift over each element")
    if not center(g).bits[proj == eta.target.identity].all():
        raise NotCentral("the projection's kernel is not central")
    search = _AbelianSearch(eta, None if budget_s is None else t0 + float(budget_s))
    search.run()
    witness = SubgroupMask(g, search.best_mask[proj])
    if (not witness.is_abelian() or witness.size != search.z_order * search.best_size
            or g.order % witness.size != 0):
        raise RuntimeError("abelian search produced an invalid witness")
    return AbelianIndexResult(
        g.order // witness.size,
        witness,
        nodes_explored=search.nodes,
        runtime_s=time.monotonic() - t0,
        root_classes=search.root_classes,
        centralizers=search.centralizers,
        quotient_order=search.n,
    )


# ---------------------------------------------------------------------------
# automorphisms


def _element_fingerprints(g: GroupTable) -> np.ndarray:
    """Per-element invariant preserved by every automorphism.

    The centralizer order is |G| / |class(x)|.
    """
    orders = all_element_orders(g)
    labels = conjugacy_class_labels(g)
    cent_sizes = g.order // np.bincount(labels)[labels]
    return orders * (g.order + 1) + cent_sizes


def automorphisms(g: GroupTable) -> list[np.ndarray]:
    """The full automorphism group, as read-only permutations of the element
    indices in ascending order, enumerated by generator images.

    Candidate images are filtered by an order/centralizer fingerprint.  The
    candidate tuples are extended to total maps along the Cayley graph a
    block at a time (at most ``_BLOCK_ELEMS`` entries), one gather per edge
    for all of the block's maps, and a map is kept when it is a bijective
    homomorphism, checked on the generator rows as ``Homomorphism.verify``
    does (each map fixes the identity).  The candidates are a product over
    the generators, so a generator the others generate is dropped first.
    """
    if g.order > MAX_AUT_ORDER:
        raise CapExceeded(f"automorphism enumeration capped at order {MAX_AUT_ORDER}")
    n, gens = g.order, g.gens.tolist()
    if n == 1:
        perm = np.zeros(1, dtype=np.int64)
        perm.flags.writeable = False
        return [perm]
    for x in list(gens):
        rest = [y for y in gens if y != x]
        if closure(g, rest).size == n:
            gens = rest
    fp = _element_fingerprints(g)
    candidates = [np.flatnonzero(fp == fp[x]) for x in gens]
    # every element as a word in the generators: b = gens[v] * p, p found before b
    steps, found = [], [g.identity]
    seen = {g.identity}
    for p in found:  # a queue: the list grows while it is read
        for v, s in enumerate(gens):
            b = int(g.mul[s, p])
            if b not in seen:
                seen.add(b)
                found.append(b)
                steps.append((b, p, v))
    shape = [len(c) for c in candidates]
    total, rows = math.prod(shape), max(1, _BLOCK_ELEMS // n)
    kept = []
    for lo in range(0, total, rows):
        tuples = np.unravel_index(np.arange(lo, min(total, lo + rows)), shape)
        images = [c[t] for c, t in zip(candidates, tuples)]
        img = np.empty((n, len(images[0])), dtype=np.int64)  # column j: the j-th map
        img[g.identity] = g.identity
        for b, p, v in steps:
            img[b] = g.mul[images[v], img[p]]
        hit = np.zeros(img.shape, dtype=bool)
        hit[img, np.arange(img.shape[1])] = True
        ok = hit.all(axis=0)
        for r in gens:
            ok &= (img[g.mul[r]] == g.mul[img[r], img]).all(axis=0)
        kept.append(img.T[ok])
    perms = np.concatenate(kept)
    del kept  # the blocks go before the sorted copy is made
    perms = perms[np.lexsort(perms.T[::-1])]
    perms.flags.writeable = False
    return list(perms)


def sigma_orbit(g: GroupTable, h_prime: SubgroupMask) -> list[SubgroupMask]:
    """Distinct images of a subgroup under the full automorphism group."""
    idx = h_prime.indices()
    seen: dict[bytes, np.ndarray] = {}
    for perm in automorphisms(g):
        bits = np.zeros(g.order, dtype=bool)
        bits[perm[idx]] = True
        seen.setdefault(bits.tobytes(), bits)
    return [SubgroupMask(g, seen[k], _validated=True) for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Sylow subgroups


def prime_power_base(k: int) -> int:
    """p when k = p^j for a prime p and j >= 1, else 0; so k >= 2 is prime iff this is k."""
    if k < 2:
        return 0
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            return p if k == 1 else 0
        p += 1
    return k  # k itself prime


def sylow(g: GroupTable, p: int) -> SubgroupMask:
    """A subgroup whose order is the largest power of the prime p dividing
    |G|; InvalidInput when p is not prime, PrimeDoesNotDivide when it does
    not divide |G|.

    One pass over the p-elements, by order: x joins when the closure stays a
    p-group.  A rejected x stays rejected, since its closure with a larger
    subgroup is larger still.  A p-subgroup H below a Sylow subgroup P is
    proper in its normalizer in P, and an x there outside H extends it.
    """
    n = g.order
    if p < 2 or prime_power_base(p) != p:
        raise InvalidInput(f"{p} is not a prime")
    if n % p != 0:
        raise PrimeDoesNotDivide(f"{p} does not divide the group order {n}")
    target = 1
    m = n
    while m % p == 0:
        target *= p
        m //= p
    orders = all_element_orders(g)
    by_order = np.lexsort((np.arange(n), orders))
    cur = closure(g, [g.identity])
    # the p-elements: an order above 1 that divides |G|'s p-part is a power of p
    for x in by_order[(orders[by_order] > 1) & (target % orders[by_order] == 0)].tolist():
        if cur.size == target:
            break
        if not cur.contains(x):
            trial = closure(g, list(cur.indices()) + [x])
            if prime_power_base(trial.size) == p:
                cur = trial
    if cur.size != target:
        raise RuntimeError("sylow growth stalled; table is corrupt")
    return cur


def abelian_invariant_factors(g: GroupTable | SubgroupMask) -> list[int]:
    """Invariant factors n1 >= n2 >= ... of a finite abelian group, a table
    or a mask, read off its element orders.

    In the product of the Z/n_i, the x with x^m = 1 number prod gcd(m, n_i).
    So for a prime p (an element order, by Cauchy) the count at m = p^k is
    p^(s_k), and s_k - s_(k-1) of the n_i are divisible by p^k: each of the
    first that many gains a factor p.
    """
    if not g.is_abelian():
        raise ValueError("invariant factors need an abelian group")
    orders = _member_orders(g)
    top = int(np.lcm.reduce(orders))
    factors: list[int] = []
    for p in np.flatnonzero(np.bincount(orders)).tolist():
        if prime_power_base(p) != p:
            continue
        prev, q = 0, p
        while top % q == 0:
            count = int(np.count_nonzero(q % orders == 0))
            s = round(math.log(count, p))
            if p ** s != count:
                raise ValueError("element orders are not those of an abelian group")
            factors += [1] * (s - prev - len(factors))
            for i in range(s - prev):
                factors[i] *= p
            prev, q = s, q * p
    return factors


# ---------------------------------------------------------------------------
# named small groups used across the package


def cyclic_table(n: int, name: str = "") -> GroupTable:
    rng = np.arange(n)
    return GroupTable((rng[:, None] + rng[None, :]) % n, name=name or f"C{n}")
