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

The enumeration costs per structure, not per subset: a subset A whose
longest chain has more than n elements admits no map into [n], and a
chain-height table over all subsets, one byte each, lets it be skipped
without trying. A structure stands for the 2^|A| Clar covers whose
aromatic rings are the subsets of A; ``subset_blocks`` lists those
subsets in ascending bitmask order, at most 2^BLOCK_BITS at a time, so
a caller can write one block of covers at once in bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

from .dib_poset import Dib, DibPoset, _bits, build_poset
from .strip_geometry import StripSpec

T = TypeVar("T")


@dataclass(frozen=True)
class OrderMap:
    """Subposet A plus a strictly order-preserving map A -> [n]."""

    elements: tuple[Dib, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.values):
            raise ValueError("elements and values must align")
        if list(self.elements) != sorted(self.elements):
            raise ValueError("elements must be in canonical (k, j) order")

    def value_of(self, element: Dib) -> int:
        return self.values[self.elements.index(element)]

    def as_dict(self) -> dict[Dib, int]:
        return dict(zip(self.elements, self.values))

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class KekuleAssignment:
    """Position of every DIB: the double bond of s(k, j) is the
    pos-th interface bond of interface k."""

    elements: tuple[Dib, ...]
    positions: tuple[int, ...]

    def pos_of(self, element: Dib) -> int:
        return self.positions[self.elements.index(element)]

    def interface_bond_set(self) -> frozenset[tuple[int, int]]:
        """The set of (interface, bond position) pairs covered by double
        bonds; determines the whole structure."""
        return frozenset((e.k, p) for e, p in zip(self.elements, self.positions))


@dataclass(frozen=True)
class ClarCoverRecord:
    """A Kekule structure with a chosen subset of its proper sextets
    promoted to aromatic rings; order_map is the structure's (A, mu)."""

    base: KekuleAssignment
    aromatic: tuple[Dib, ...]
    order_map: OrderMap

    @property
    def order(self) -> int:
        return len(self.aromatic)


def _check_order_map(poset: DibPoset, om: OrderMap, n: int) -> None:
    known = set(poset.elements)
    for e, v in zip(om.elements, om.values):
        if e not in known:
            raise ValueError(f"{e} is not a DIB of this strip")
        if not 1 <= v <= n:
            raise ValueError(f"value {v} for {e} is outside 1..{n}")
    for a in om.elements:
        for b in om.elements:
            if poset.less(a, b) and om.value_of(a) >= om.value_of(b):
                raise ValueError(
                    f"map is not strictly order-preserving: {a} < {b} but "
                    f"{om.value_of(a)} >= {om.value_of(b)}"
                )


def _assignment_from_map(poset: DibPoset, om: OrderMap) -> KekuleAssignment:
    chosen = om.as_dict()
    values = [chosen.get(e, 0) for e in poset.elements]
    positions = []
    for e, spread, lows in zip(poset.elements, values, poset.below_masks):
        if e not in chosen:
            spread = max((values[t] for t in range(poset.p) if lows >> t & 1), default=0)
        positions.append(spread + e.j)
    return KekuleAssignment(poset.elements, tuple(positions))


def kekule_from_map(
    spec: StripSpec, om: OrderMap, poset: DibPoset | None = None
) -> KekuleAssignment:
    """The unique Kekule structure whose proper-sextet DIBs are om's
    domain with the prescribed values."""
    poset = build_poset(spec) if poset is None else poset
    _check_order_map(poset, om, spec.n)
    return _assignment_from_map(poset, om)


def map_from_kekule(
    spec: StripSpec, ka: KekuleAssignment, poset: DibPoset | None = None
) -> OrderMap:
    """Recover (A, mu) from a position assignment.

    Rejects assignments whose per-DIB offsets pos - j fail to be an
    order-preserving map into [0, n]; by the alternation rules those are
    exactly the position sets that no Kekule structure realizes.
    """
    poset = build_poset(spec) if poset is None else poset
    if ka.elements != poset.elements:
        raise ValueError("assignment does not cover the DIBs of this strip")
    offsets = {e: p - e.j for e, p in zip(ka.elements, ka.positions)}
    for e, value in offsets.items():
        if not 0 <= value <= spec.n:
            raise ValueError(f"offset {value} of {e} is outside 0..{spec.n}")
    for a, b in poset.covers:
        if offsets[a] > offsets[b]:
            raise ValueError(
                f"positions violate alternation: {a} < {b} but offsets "
                f"{offsets[a]} > {offsets[b]}"
            )
    values = list(offsets.values())
    selected = [
        e
        for e, value, lows in zip(poset.elements, values, poset.below_masks)
        if value > max((values[t] for t in range(poset.p) if lows >> t & 1), default=0)
    ]
    return OrderMap(tuple(selected), tuple(offsets[e] for e in selected))


def _strict_values(
    lower: list[list[int]], upper: list[list[int]], n: int
) -> Iterator[tuple[int, ...]]:
    """Strictly order-preserving value tuples into [n], in lexicographic
    order. lower[t] and upper[t] list the earlier positions whose member
    is below, respectively above, the member at position t; each value
    runs from one more than its placed lower neighbours to one less than
    its placed upper neighbours."""
    size = len(lower)
    if size == 0:
        yield ()
        return
    values = [0] * size
    highs = [n] * size
    t = 0
    while t >= 0:
        values[t] += 1
        if values[t] > highs[t]:
            t -= 1
            continue
        if t == size - 1:
            yield tuple(values)
            continue
        t += 1
        values[t] = max((values[s] for s in lower[t]), default=0)
        highs[t] = min((values[s] for s in upper[t]), default=n + 1) - 1


def _chain_heights(below: tuple[int, ...], above: list[int]) -> bytearray:
    """Longest-chain size of every subset, indexed by bitmask.

    A longest chain of a mask either avoids its highest element top, or
    runs through top and splits into a chain below top and one above it.
    Heights never exceed p, so one byte per mask suffices."""
    height = bytearray(1 << len(below))
    for top, (lows, highs) in enumerate(zip(below, above)):
        bit = 1 << top
        for rest in range(bit):
            height[bit | rest] = max(
                height[rest], 1 + height[rest & lows] + height[rest & highs]
            )
    return height


def enumerate_kekule(spec: StripSpec) -> Iterator[tuple[OrderMap, KekuleAssignment]]:
    """Every Kekule structure exactly once, as its (A, mu) pair plus the
    spread position assignment.

    Subsets A run in ascending bitmask order over the canonical DIB
    order; maps run in lexicographic value order. A subset whose longest
    chain has more than n elements has no strictly order-preserving map
    into [n] (its strict order polynomial vanishes there, Stanley, EC1
    3.12), so a chain-height table over all masks, filled once, skips it
    without trying. Each DIB spreads to the largest value among the
    maximal members of A at or below it, found once per subset.
    """
    poset = build_poset(spec)
    elements = poset.elements
    p = poset.p
    below = poset.below_masks
    above = [sum(1 << t for t in range(p) if below[t] >> i & 1) for i in range(p)]
    height = _chain_heights(below, above)
    offsets = [e.j for e in elements]
    for mask in range(1 << p):
        if height[mask] > spec.n:
            continue
        idx = list(_bits(mask))
        members = tuple(elements[i] for i in idx)
        lower = [[s for s in range(t) if below[i] >> idx[s] & 1] for t, i in enumerate(idx)]
        upper = [[s for s in range(t) if below[idx[s]] >> i & 1] for t, i in enumerate(idx)]
        # Each DIB reads its value from the slot of its one maximal member
        # of A at or below it, or slot len(idx), which holds 0, if none;
        # a DIB with several maximal ones takes the largest of their values.
        spread_from, several = [], []
        for i in range(p):
            reach = (below[i] | 1 << i) & mask
            tops = [s for s, t in enumerate(idx) if reach >> t & 1 and not above[t] & reach]
            spread_from.append(tops[0] if tops else len(idx))
            if len(tops) > 1:
                several.append((i, tops))
        for values in _strict_values(lower, upper, spec.n):
            padded = values + (0,)
            positions = [padded[s] + j for s, j in zip(spread_from, offsets)]
            for i, tops in several:
                positions[i] = max([padded[s] for s in tops]) + offsets[i]
            positions = tuple(positions)
            yield OrderMap(members, values), KekuleAssignment(elements, positions)


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
