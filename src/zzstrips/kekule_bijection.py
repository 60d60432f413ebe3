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
and reads A off each as it goes, writing the cell that the caller's
render gives each offset it sets into one row; ``enumerate_kekule``
turns the rows of offsets and positions into (A, mu) pairs. The walk
keeps each render's cells in a ``CellTable``, which renders cells on
first use and holds a bounded number of them.

A structure stands for the 2^|A| Clar covers whose aromatic rings are
the subsets of A; ``generate_clar_covers`` lists them in ascending
bitmask order over A, doubling out A's first BLOCK_BITS members once
and appending each subset of the rest.
"""

from __future__ import annotations

from operator import ge
from typing import Callable, Iterator, NamedTuple, Sequence

from .dib_poset import Dib, DibPoset, _bits, build_poset, natural_labeling
from .strip_geometry import StripSpec


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


CELL_RUN = 64
CELLS_HELD = 4096


class CellTable(dict):
    """Offset -> cell for the offsets 0..n, each cell render(offset),
    rendered on first use together with the next offsets up to CELL_RUN
    in all. All cells are dropped before a run would take the table past
    CELLS_HELD, so its memory does not grow with n."""

    __slots__ = ("render", "stop")

    def __init__(self, render: Callable[[int], tuple], n: int) -> None:
        super().__init__()
        self.render, self.stop = render, n + 1

    def __missing__(self, offset: int) -> tuple:
        if len(self) > CELLS_HELD - CELL_RUN:
            self.clear()
        render = self.render
        run = {v: render(v) for v in range(offset, min(offset + CELL_RUN, self.stop))}
        self.update(run)
        return run[offset]


def kekule_walk(
    poset: DibPoset, n: int, renders: Sequence[tuple[Callable[[int], tuple], ...]]
) -> Iterator[tuple[int, list]]:
    """Every Kekule structure exactly once, as (mask, row): mask has bit
    i set when DIB i (canonical (k, j) index) is in A, and row[c * p + i]
    is piece c of DIB i's cell. renders[i][in_a](v), called at offsets v
    in 0..n only, is DIB i's cell at offset v = pos - j, in A when in_a;
    all cells have the same number of pieces. The walk keeps each
    render's cells in a CellTable of its own.

    The offsets are the weakly order-preserving maps P -> {0..n}, listed
    in lexicographic order of the offset vector read in natural-label
    order. The walk takes the DIBs in that order, depth first, and runs
    each offset from the largest offset among its lower covers (0 if
    none) up to n; a DIB is in A exactly when its offset is above that
    lowest value. The last DIB runs its whole range in one inner loop.
    Setting an offset writes its cell into row, one slice assignment.
    row is one list, reused between yields: callers copy what they
    keep.
    """
    p = poset.p
    if not p:
        yield 0, []
        return
    labeling = natural_labeling(poset)
    order = sorted(range(p), key=lambda i: labeling.label_of(poset.elements[i]))
    covers = [[order[c] for c in lows] for lows in labeling.lower_covers]
    outside = [CellTable(out, n) for out, _ in renders]
    inside = [CellTable(in_a, n) for _, in_a in renders]
    # sized by one cell; every DIB's cell is written before the first yield
    row = list(outside[0][0]) * p
    offsets = [0] * p
    last = p - 1
    masks = [0] * p
    t, mask = -1, 0
    while True:
        # go down one depth: its DIB starts at its lowest offset, not in A
        t += 1
        i = order[t]
        low = 0
        for c in covers[t]:
            if offsets[c] > low:
                low = offsets[c]
        offsets[i] = low
        row[i::p] = outside[i][low]
        if t < last:
            masks[t] = mask
            continue
        yield mask, row
        mask |= 1 << i
        cells_in = inside[i]
        for value in range(low + 1, n + 1):
            row[i::p] = cells_in[value]
            yield mask, row
        # back up to the deepest DIB that can still grow, and grow it
        while True:
            t -= 1
            if t < 0:
                return
            i = order[t]
            value = offsets[i] + 1
            if value <= n:
                break
        offsets[i] = value
        row[i::p] = inside[i][value]
        mask = masks[t] | 1 << i


def enumerate_kekule(spec: StripSpec) -> Iterator[tuple[OrderMap, KekuleAssignment]]:
    """Every Kekule structure exactly once, as its (A, mu) pair plus the
    position assignment, in the order of ``kekule_walk``: offset vectors
    ascending lexicographically, read in natural-label order."""
    poset = build_poset(spec)
    elements, p = poset.elements, poset.p
    # cells (v, v + j), in A or not: a row holds offsets, then positions
    renders = [(lambda v, j=e.j: (v, v + j),) * 2 for e in poset.elements]
    for mask, values in kekule_walk(poset, spec.n, renders):
        idx = [*_bits(mask)]
        yield (
            OrderMap(tuple(elements[i] for i in idx), tuple(values[i] for i in idx)),
            KekuleAssignment(elements, tuple(values[p:])),
        )


# A's first BLOCK_BITS members are doubled out once per structure, so
# no more than 2^BLOCK_BITS aromatic sets are held whatever |A| is.
BLOCK_BITS = 8


def generate_clar_covers(spec: StripSpec) -> Iterator[ClarCoverRecord]:
    """Expand each Kekule structure, in the order of ``enumerate_kekule``,
    into its 2^|A| Clar covers, the aromatic sets in ascending bitmask
    order over A: the subsets of A's first BLOCK_BITS members, doubled
    out, then those with each later subset appended, in mask order."""
    for om, ka in enumerate_kekule(spec):
        low: list[tuple[Dib, ...]] = [()]
        for e in om.elements[:BLOCK_BITS]:
            low += [s + (e,) for s in low]
        rest = om.elements[BLOCK_BITS:]
        for high in range(1 << len(rest)):
            tail = tuple(rest[t] for t in _bits(high))
            for aromatic in low:
                yield ClarCoverRecord(ka, aromatic + tail, om)
