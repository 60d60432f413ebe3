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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dib_poset import Dib, DibPoset, build_poset
from .strip_geometry import StripSpec


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


def enumerate_kekule(spec: StripSpec) -> Iterator[tuple[OrderMap, KekuleAssignment]]:
    """Every Kekule structure exactly once, as its (A, mu) pair plus the
    spread position assignment.

    Subsets A run in ascending bitmask order over the canonical DIB
    order; maps run in lexicographic value order.
    """
    poset = build_poset(spec)
    elements = poset.elements
    p = poset.p
    below_mask = poset.below_masks
    # every DIB spreads to the largest value at or below it (0 if none)
    spread_from = [
        [t for t in range(p) if (lows | 1 << i) >> t & 1] for i, lows in enumerate(below_mask)
    ]
    offsets = [e.j for e in elements]
    for mask in range(1 << p):
        idx = [i for i in range(p) if mask >> i & 1]
        members = tuple(elements[i] for i in idx)
        lower = [[s for s in range(t) if below_mask[i] >> idx[s] & 1] for t, i in enumerate(idx)]
        upper = [[s for s in range(t) if below_mask[idx[s]] >> i & 1] for t, i in enumerate(idx)]
        chosen = [0] * p
        for values in _strict_values(lower, upper, spec.n):
            for i, v in zip(idx, values):
                chosen[i] = v
            positions = tuple(
                max([chosen[b] for b in spread_from[i]]) + offsets[i] for i in range(p)
            )
            yield OrderMap(members, values), KekuleAssignment(elements, positions)


def generate_clar_covers(spec: StripSpec) -> Iterator[ClarCoverRecord]:
    """Expand each Kekule structure into its 2^|A| Clar covers."""
    for om, ka in enumerate_kekule(spec):
        for mask in range(1 << om.size):
            aromatic = tuple(
                om.elements[i] for i in range(om.size) if mask >> i & 1
            )
            yield ClarCoverRecord(ka, aromatic, om)
