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

The enumeration follows that split: ``kekule_groups`` yields each
subset A with the maps mu of A, and ``enumerate_kekule`` flattens it
into (A, mu) pairs. It costs per structure, not per subset: a subset A
whose longest chain has more than n elements admits no map into [n],
nor does any superset, so the walk over subsets cuts it off and visits
only the subsets that have a map. A structure stands for the 2^|A|
Clar covers whose aromatic rings are the subsets of A;
``subset_blocks`` lists those subsets in ascending bitmask order, at
most 2^BLOCK_BITS at a time, so a caller can write one block of covers
at once in bounded memory.
"""

from __future__ import annotations

from operator import add, ge, itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .dib_poset import Dib, DibPoset, _bits, build_poset
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


def _short_subsets(
    below: Sequence[int], above: Sequence[int], n: int, height: dict[int, int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(indices, mask) of every subset whose longest chain has at most n
    elements, in ascending mask order, indices ascending.

    The walk decides bits from the highest down, leaving each out before
    putting it in, and keeps the height of every subset it has kept in
    height. A longest chain of mask plus a new lowest bit t either
    avoids t or splits at t into a chain below it and one above it, both
    within subsets of mask that the walk has kept already. Height never
    drops when a subset grows, so cutting off a taller one loses
    nothing, and every subset of a yielded mask has been yielded, with
    its height stored, before it."""
    height[0] = 0
    stack = [(len(below), 0, ())]
    while stack:
        t, mask, idx = stack.pop()
        if t == 0:
            yield idx, mask
            continue
        t -= 1
        tall = max(height[mask], 1 + height[mask & below[t]] + height[mask & above[t]])
        if tall <= n:
            height[mask | 1 << t] = tall
            stack.append((t, mask | 1 << t, (t, *idx)))
        stack.append((t, mask, idx))


def kekule_groups(
    poset: DibPoset, n: int
) -> Iterator[tuple[tuple[Dib, ...], Iterator[tuple[tuple[int, ...], tuple[int, ...]]]]]:
    """Every Kekule structure exactly once, grouped by its subset A: one
    (members, structures) pair per A, structures iterating the
    (values, positions) of A's maps mu and their spread assignments.

    Subsets A run in ascending bitmask order over the canonical DIB
    order, so members are canonical; maps run in lexicographic value
    order. A subset whose longest chain has more than n elements has no
    strictly order-preserving map into [n] (its strict order polynomial
    vanishes there, Stanley, EC1 3.12), so the walk over subsets never
    visits it or any superset, and every group holds at least one
    structure. The same bound, read from the heights the walk keeps,
    confines each member of A: its value exceeds the height of the part
    of A below it and is at most n less the height of the part above
    it. Each DIB spreads to the largest value among the maximal members
    of A at or below it, found for all DIBs in one pass over the lower
    covers per subset. A group's structures stay valid after the walk
    moves on.
    """
    elements = poset.elements
    p = poset.p
    below = poset.below_masks
    above = [sum(1 << t for t in range(p) if below[t] >> i & 1) for i in range(p)]
    offsets = tuple(e.j for e in elements)
    # the poset's covers generate its order, so everything below a DIB
    # lies at or below one of its lower covers
    index = {e: i for i, e in enumerate(elements)}
    lower_covers: list[list[int]] = [[] for _ in elements]
    for a, b in poset.covers:
        lower_covers[index[b]].append(index[a])
    # the DIBs in a linear extension, each after everything below it
    extension = [
        (i, 1 << i, below[i], lower_covers[i])
        for i in sorted(range(p), key=lambda i: bin(below[i]).count("1"))
    ]
    height: dict[int, int] = {}
    for idx, mask in _short_subsets(below, above, n, height):
        # A member whose chains through it span all of [n] takes one
        # value in every map, and the bounds of the members above and
        # below it already leave room for that value. The other members
        # are free: each is placed within its bounds and against the
        # free members placed before it, in ascending DIB order.
        fixed, free, placed = [], [], 0
        for i in idx:
            low = height[mask & below[i]] + 1
            high = n - height[mask & above[i]]
            if low == high:
                fixed.append((i, low))
                continue
            lower, upper = [*_bits(placed & below[i])], [*_bits(placed & above[i])]
            free.append((i, low, high, lower, upper))
            placed |= 1 << i
        # shadow[i]: every DIB below a member of A at or below DIB i; the
        # maximal such members are the members below i outside it
        shadow = [0] * p
        sources, several = [p] * p, []
        for i, bit, lows, covers in extension:
            if mask & bit:
                shadow[i] = lows
                sources[i] = i
                continue
            reach = 0
            for c in covers:
                reach |= shadow[c]
            shadow[i] = reach
            tops = mask & lows & ~reach
            if tops & (tops - 1):
                several.append((i, tuple(_bits(tops))))
            elif tops:
                sources[i] = tops.bit_length() - 1
        members = tuple(elements[i] for i in idx)
        yield members, _structures(idx, fixed, free, sources, several, offsets)


def _tuple_getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """itemgetter over one or more indices that always gives a tuple."""
    if len(indices) == 1:
        (index,) = indices
        return lambda items: (items[index],)
    return itemgetter(*indices)


def _structures(
    idx: tuple[int, ...],
    fixed: list[tuple[int, int]],
    free: list[tuple[int, int, int, list[int], list[int]]],
    sources: list[int],
    several: list[tuple[int, tuple[int, ...]]],
    offsets: tuple[int, ...],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A subset's strictly order-preserving maps into [n], in
    lexicographic order, each with its spread positions.

    The members idx are fixed, as (DIB, value), or free, as (DIB, least
    and greatest value, earlier free members below and above it), both
    in ascending DIB order. A free member's value runs from one more
    than its placed lower neighbours to one less than its placed upper
    ones, within its bounds. Values live in a list indexed by DIB with a
    last slot that stays 0: a DIB takes the value of slot sources[i], or
    for those in several the largest of their slots, plus its offset j.
    """
    if not idx:
        yield (), offsets
        return
    values = [0] * (len(offsets) + 1)
    for i, value in fixed:
        values[i] = value
    mu, spread = _tuple_getter(idx), _tuple_getter(sources)
    maxima = [(i, _tuple_getter(tops), offsets[i]) for i, tops in several]

    def structure() -> tuple[tuple[int, ...], tuple[int, ...]]:
        positions = list(map(add, spread(values), offsets))
        for i, tops, j in maxima:
            positions[i] = max(tops(values)) + j
        return mu(values), tuple(positions)

    if not free:
        yield structure()
        return
    last = len(free) - 1
    highs = [0] * len(free)
    first, low, highs[0], _, _ = free[0]
    values[first] = low - 1
    t = 0
    while t >= 0:
        i = free[t][0]
        value = values[i] + 1
        if value > highs[t]:
            t -= 1
            continue
        values[i] = value
        if t < last:
            t += 1
            i, low, high, lower, upper = free[t]
            for s in lower:
                if values[s] >= low:
                    low = values[s] + 1
            for s in upper:
                if values[s] <= high:
                    high = values[s] - 1
            values[i] = low - 1
            highs[t] = high
            continue
        # the last free member runs through its whole range at once
        for value in range(value, highs[t] + 1):
            values[i] = value
            yield structure()
        t -= 1


def enumerate_kekule(spec: StripSpec) -> Iterator[tuple[OrderMap, KekuleAssignment]]:
    """Every Kekule structure exactly once, as its (A, mu) pair plus the
    spread position assignment, in the order of ``kekule_groups``."""
    poset = build_poset(spec)
    for members, structures in kekule_groups(poset, spec.n):
        for values, positions in structures:
            yield OrderMap(members, values), KekuleAssignment(poset.elements, positions)


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
    """Expand each Kekule structure into its 2^|A| Clar covers, the
    aromatic sets in ascending bitmask order over A."""
    for om, ka in enumerate_kekule(spec):
        for block in subset_blocks(om.elements):
            for aromatic in block:
                yield ClarCoverRecord(ka, aromatic, om)
