"""Bijection between Kekule structures and pairs (A, mu).

A Kekule structure of a strip is pinned down by the positions of its
double interface bonds. Those positions decompose as pos(s) = m(s) + j
where m is an order-preserving map into [0, n]; the structure's proper
sextets are exactly the DIBs where m strictly exceeds everything below
them. Conversely any induced subposet A with a strictly
order-preserving map mu: A -> [n] spreads to a unique full-position
assignment by giving every other DIB the largest mu value found below
it (0 if none). Both directions are implemented here, along with the
full enumeration and the expansion of each structure into its Clar
covers.

The enumeration reads the bijection from the offset side: the Kekule
structures are exactly the order-preserving maps P -> {0..n}, of
which there are Omega(P, n + 1) (Stanley, EC1 3.12). ``kekule_walk``
lists those maps depth first, one step per map and none per subset,
and reads A off each as it goes; ``enumerate_kekule`` turns its yields
into (A, mu) pairs. A structure stands for the 2^|A| Clar covers whose
aromatic rings are the subsets of A; ``subset_blocks`` lists those
subsets in ascending bitmask order, at most 2^BLOCK_BITS at a time, so
a caller can write one block of covers at once in bounded memory.
"""

from __future__ import annotations

from operator import ge
from typing import Iterator, NamedTuple, Sequence, TypeVar

from .dib_poset import Dib, DibPoset, _bits, build_poset, natural_labeling
from .strip_geometry import StripSpec

T = TypeVar("T")


class OrderMap(
    NamedTuple("OrderMap", [("elements", tuple[Dib, ...]), ("values", tuple[int, ...])])
):
    """Subposet A plus a strictly order-preserving map A -> [n]. A named
    tuple: sorts, iterates, equals and hashes like (elements, values);
    _make and _replace skip the constructor's checks."""

    __slots__ = ()

    def __new__(cls, elements: tuple[Dib, ...], values: tuple[int, ...]) -> "OrderMap":
        if len(elements) != len(values):
            raise ValueError("elements and values must align")
        # strictly ascending: a repeated element would stand for no subset
        if any(map(ge, elements, elements[1:])):
            raise ValueError("elements must be distinct and in canonical (k, j) order")
        return super().__new__(cls, elements, values)

    def value_of(self, element: Dib) -> int:
        return self.values[self.elements.index(element)]

    @property
    def size(self) -> int:
        return len(self.elements)


class KekuleAssignment(NamedTuple):
    """Position of every DIB: the double bond of s(k, j) is the pos-th
    interface bond of interface k. Equals and hashes like its fields' tuple."""

    elements: tuple[Dib, ...]
    positions: tuple[int, ...]

    def pos_of(self, element: Dib) -> int:
        return self.positions[self.elements.index(element)]

    def interface_bond_set(self) -> frozenset[tuple[int, int]]:
        """The set of (interface, bond position) pairs covered by double
        bonds; determines the whole structure."""
        return frozenset((e.k, p) for e, p in zip(self.elements, self.positions))


class ClarCoverRecord(NamedTuple):
    """A Kekule structure with a chosen subset of its proper sextets
    promoted to aromatic rings; order_map is the structure's (A, mu). A
    named tuple: sorts, iterates, equals and hashes like its fields' tuple."""

    base: KekuleAssignment
    aromatic: tuple[Dib, ...]
    order_map: OrderMap

    @property
    def order(self) -> int:
        return len(self.aromatic)


def kekule_from_map(
    spec: StripSpec, om: OrderMap, poset: DibPoset | None = None
) -> KekuleAssignment:
    """The unique Kekule structure whose proper-sextet DIBs are om's domain
    with its values; every other DIB takes the largest value below it."""
    poset = build_poset(spec) if poset is None else poset
    known = set(poset.elements)
    for e, v in zip(om.elements, om.values):
        if e not in known:
            raise ValueError(f"{e} is not a DIB of this strip")
        if not 1 <= v <= spec.n:
            raise ValueError(f"value {v} for {e} is outside 1..{spec.n}")
    chosen = dict(zip(om.elements, om.values))
    values = [chosen.get(e, 0) for e in poset.elements]
    positions = []
    for e, value, lows in zip(poset.elements, values, poset.below_masks):
        top = max((values[t] for t in _bits(lows)), default=0)
        if e not in chosen:
            value = top
        elif top >= value:
            a = poset.elements[next(t for t in _bits(lows) if values[t] == top)]
            raise ValueError(
                f"map is not strictly order-preserving: {a} < {e} but {top} >= {value}"
            )
        positions.append(value + e.j)
    return KekuleAssignment(poset.elements, tuple(positions))


def map_from_kekule(
    spec: StripSpec, ka: KekuleAssignment, poset: DibPoset | None = None
) -> OrderMap:
    """Recover (A, mu) from a position assignment: A holds the DIBs whose
    offset pos - j exceeds 0 and every offset below them, mu their offsets.
    Rejects offsets that are no order-preserving map into [0, n]; by the
    alternation rules no Kekule structure realizes those."""
    poset = build_poset(spec) if poset is None else poset
    if ka.elements != poset.elements:
        raise ValueError("assignment does not cover the DIBs of this strip")
    if len(ka.positions) != len(ka.elements):
        raise ValueError(
            f"{len(ka.positions)} positions do not align with {len(ka.elements)} DIBs"
        )
    offsets = [p - e.j for e, p in zip(ka.elements, ka.positions)]
    for e, value in zip(ka.elements, offsets):
        if not 0 <= value <= spec.n:
            raise ValueError(f"offset {value} of {e} is outside 0..{spec.n}")
    selected, mu = [], []
    for e, value, lows in zip(poset.elements, offsets, poset.below_masks):
        top = max((offsets[t] for t in _bits(lows)), default=0)
        if top > value:
            a = poset.elements[next(t for t in _bits(lows) if offsets[t] == top)]
            raise ValueError(
                f"positions violate alternation: {a} < {e} but offsets {top} > {value}"
            )
        if value > top:
            selected.append(e)
            mu.append(value)
    return OrderMap(tuple(selected), tuple(mu))


def kekule_walk(poset: DibPoset, n: int) -> Iterator[tuple[int, list[int]]]:
    """Every Kekule structure exactly once, as (mask, values): mask has
    bit i set when DIB i (canonical (k, j) index) is in A, values[i] is
    DIB i's offset pos - j and values[p + i] its position.

    The offsets are the weakly order-preserving maps P -> {0..n}, listed
    in lexicographic order of the offset vector read in natural-label
    order. The walk takes the DIBs in that order, depth first, and runs
    each offset from the largest offset among its lower covers (0 if
    none) up to n; a DIB is in A exactly when its offset is above that
    lowest value. The last DIB runs its whole range in one inner loop.
    values is one list, reused between yields: callers copy what they
    keep.
    """
    p = poset.p
    js = [e.j for e in poset.elements]
    values = [0] * p + js
    if not p:
        yield 0, values
        return
    labeling = natural_labeling(poset)
    order = sorted(range(p), key=lambda i: labeling.label_of(poset.elements[i]))
    covers = [[order[c] for c in lows] for lows in labeling.lower_covers]
    last = p - 1
    masks = [0] * p
    t, mask = -1, 0
    while True:
        # go down one depth: its DIB starts at its lowest offset, not in A
        t += 1
        i = order[t]
        low = 0
        for c in covers[t]:
            if values[c] > low:
                low = values[c]
        if t < last:
            masks[t] = mask
            values[i], values[p + i] = low, low + js[i]
            continue
        j = js[i]
        values[i], values[p + i] = low, low + j
        yield mask, values
        mask |= 1 << i
        for value in range(low + 1, n + 1):
            values[i], values[p + i] = value, value + j
            yield mask, values
        # back up to the deepest DIB that can still grow, and grow it
        while True:
            t -= 1
            if t < 0:
                return
            i = order[t]
            value = values[i] + 1
            if value <= n:
                break
        values[i], values[p + i] = value, value + js[i]
        mask = masks[t] | 1 << i


def enumerate_kekule(spec: StripSpec) -> Iterator[tuple[OrderMap, KekuleAssignment]]:
    """Every Kekule structure exactly once, as its (A, mu) pair plus the
    position assignment, in the order of ``kekule_walk``: offset vectors
    ascending lexicographically, read in natural-label order."""
    poset = build_poset(spec)
    elements, p = poset.elements, poset.p
    for mask, values in kekule_walk(poset, spec.n):
        idx = [*_bits(mask)]
        yield (
            OrderMap(tuple(elements[i] for i in idx), tuple(values[i] for i in idx)),
            KekuleAssignment(elements, tuple(values[p:])),
        )


# Subsets are doubled out over at most this many members at once, so a
# block holds at most 2^BLOCK_BITS of them whatever the set's size.
BLOCK_BITS = 8


def subset_blocks(items: Sequence[T]) -> Iterator[list[tuple[T, ...]]]:
    """Every subset of items as a tuple, in ascending bitmask order with
    bit i standing for items[i], cut into blocks of at most
    2^BLOCK_BITS subsets.

    The subsets of the first BLOCK_BITS items are built by doubling:
    each item appends itself to every subset so far. One block follows
    per subset of the later items, in ascending mask order, each
    appending it to every subset of the first ones."""
    low: list[tuple[T, ...]] = [()]
    for item in items[:BLOCK_BITS]:
        low += [s + (item,) for s in low]
    rest = items[BLOCK_BITS:]
    yield low
    for high in range(1, 1 << len(rest)):
        tail = tuple(rest[t] for t in _bits(high))
        yield [s + tail for s in low]


def generate_clar_covers(spec: StripSpec) -> Iterator[ClarCoverRecord]:
    """Expand each Kekule structure, in the order of ``enumerate_kekule``,
    into its 2^|A| Clar covers, the aromatic sets in ascending bitmask
    order over A, as ``subset_blocks`` lists them."""
    for om, ka in enumerate_kekule(spec):
        for block in subset_blocks(om.elements):
            for aromatic in block:
                yield ClarCoverRecord(ka, aromatic, om)
