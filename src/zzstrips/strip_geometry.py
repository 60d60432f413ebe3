"""Geometry of regular multi-tier benzenoid strips.

A strip is fully specified by its fragment shape sequence (letters
``W``, ``N``, ``R``, ``L``, one per fragment, so ``m + 1`` letters for an
``m``-tier strip) together with the tier length ``n``. This module
parses and validates such descriptions, derives the interface profile
(sizes and orders of the rows of vertical bonds), and materializes the
explicit benzenoid graph used by the brute-force oracle.

Coordinate conventions for the graph: x is measured in half-hexagon
units, y in vertex rows, both integers, so no floating point enters the
geometry. Tier ``k`` owns the vertical bonds spanning rows ``2k - 1``
and ``2k``; its hexagon apexes sit on rows ``2k - 2`` and ``2k + 1``.
Adjacent tiers share the zigzag of vertices between them.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .errors import InvalidStripError, StripParseError, json_field, json_list

SHAPE_LETTERS = ("W", "N", "R", "L")

# interface-size step contributed by the fragment between two interfaces
_SIZE_STEP = {"W": 1, "N": -1, "R": 0, "L": 0}

# horizontal tier offset step, in half-hexagon units
_OFFSET_STEP = {"W": -1, "N": 1, "R": 1, "L": -1}

# shapes whose leftmost interface bond sits in the fragment's lower interface
FIRST_BOND_LOWER = frozenset({"W", "L"})

Edge = tuple[int, int]


class StripSpec(NamedTuple("StripSpec", [("shapes", tuple[str, ...]), ("n", int)])):
    """Shape sequence plus length; the sole input defining a strip. A
    named tuple: sorts, iterates, equals and hashes like (shapes, n).
    _make and _replace skip the constructor's checks and tuple(shapes)."""

    __slots__ = ()

    def __new__(cls, shapes: Iterable[str], n: int) -> "StripSpec":
        shapes = tuple(shapes)
        for letter in shapes:
            if letter not in SHAPE_LETTERS:
                raise StripParseError(f"unknown shape letter {letter!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise StripParseError(f"strip length must be a positive integer, got {n!r}")
        return super().__new__(cls, shapes, n)

    @property
    def m(self) -> int:
        """Number of tiers (one less than the number of fragments)."""
        return len(self.shapes) - 1

    def to_json(self) -> str:
        return json.dumps({"shapes": list(self.shapes), "n": self.n})

    @classmethod
    def from_json(cls, text: str) -> "StripSpec":
        data = json.loads(text)
        try:
            shapes = json_list(json_field(data, "shapes"), "shapes")
            n = json_field(data, "n")
        except ValueError as exc:
            raise StripParseError(str(exc)) from None
        return cls(tuple(shapes), n)


def parallelogram(tiers: int, n: int) -> StripSpec:
    """The parallelogram strip family: shapes [W, R, ..., R, N]."""
    if tiers < 1:
        raise StripParseError(f"tier count must be positive, got {tiers}")
    return StripSpec(("W",) + ("R",) * (tiers - 1) + ("N",), n)


def parse_strip(text: str) -> StripSpec:
    """Parse ``M <tiers> <n>`` or ``<shape-letters> <n>`` into a StripSpec."""
    tokens = text.split()
    if not tokens:
        raise StripParseError("empty strip description")
    head = tokens[0].upper()
    if head == "M":
        if len(tokens) != 3:
            raise StripParseError(f"expected 'M <tiers> <n>', got {text!r}")
        try:
            tiers, n = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise StripParseError(f"malformed token in {text!r}") from None
        return parallelogram(tiers, n)
    if len(tokens) != 2:
        raise StripParseError(f"expected '<shape-letters> <n>', got {text!r}")
    try:
        n = int(tokens[1])
    except ValueError:
        raise StripParseError(f"malformed length token {tokens[1]!r}") from None
    return StripSpec(tuple(head), n)


class InterfaceProfile(NamedTuple):
    """Sizes and orders of the interfaces i_1 .. i_m. A named tuple:
    sorts, iterates, equals and hashes like (n, sizes, orders)."""

    n: int
    sizes: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.sizes)

    def size(self, k: int) -> int:
        """Number of vertical bonds in interface k (1-based)."""
        return self.sizes[k - 1]

    def order(self, k: int) -> int:
        return self.orders[k - 1]


def interface_profile(spec: StripSpec) -> InterfaceProfile:
    """Run the size and order recursions along the shape sequence.

    The two recursions are anchored independently (|i_1| = n + 1 and
    ord(i_1) = 1) and driven by the same per-shape steps, which keeps
    the size/order relation a checkable consequence rather than a
    definition.
    """
    if spec.m < 1:
        return InterfaceProfile(spec.n, (), ())
    sizes = [spec.n + 1]
    orders = [1]
    for shape in spec.shapes[1:-1]:
        step = _SIZE_STEP[shape]
        sizes.append(sizes[-1] + step)
        orders.append(orders[-1] + step)
    return InterfaceProfile(spec.n, tuple(sizes), tuple(orders))


class ValidationReport(NamedTuple):
    """Structural pass/fail flags; never raised, always reported. A named
    tuple: sorts, iterates, equals and hashes like its fields' tuple."""

    first_shape_wide: bool
    last_shape_narrow: bool
    bottom_order_one: bool
    tiers_nonempty: bool
    is_kekulean: bool
    problems: tuple[str, ...]

    @property
    def is_valid(self) -> bool:
        return (
            self.first_shape_wide
            and self.last_shape_narrow
            and self.bottom_order_one
            and self.tiers_nonempty
        )


def validate(spec: StripSpec) -> ValidationReport:
    profile = interface_profile(spec)
    problems = []

    first_wide = bool(spec.shapes) and spec.shapes[0] == "W"
    if not first_wide:
        got = spec.shapes[0] if spec.shapes else "nothing"
        problems.append(f"first fragment must have shape W (got {got})")

    last_narrow = len(spec.shapes) >= 2 and spec.shapes[-1] == "N"
    if not last_narrow:
        problems.append("last fragment must have shape N")

    bottom_order_one = profile.m >= 1 and profile.orders[-1] == 1
    if not bottom_order_one:
        if profile.m >= 1:
            problems.append(f"bottom interface must have order 1 (got {profile.orders[-1]})")
        else:
            problems.append("strip has no interfaces")

    tiers_nonempty = all(size >= 2 for size in profile.sizes)
    if not tiers_nonempty:
        bad = next(k for k in range(1, profile.m + 1) if profile.size(k) < 2)
        problems.append(f"tier {bad} has no hexagons (|i_{bad}| = {profile.size(bad)})")

    kekulean = all(order >= 0 for order in profile.orders)
    if not kekulean:
        bad = next(k for k in range(1, profile.m + 1) if profile.order(k) < 0)
        problems.append(f"non-Kekulean: ord(i_{bad}) = {profile.order(bad)}")

    return ValidationReport(
        first_shape_wide=first_wide,
        last_shape_narrow=last_narrow,
        bottom_order_one=bottom_order_one,
        tiers_nonempty=tiers_nonempty,
        is_kekulean=kekulean,
        problems=tuple(problems),
    )


# shapes as strings of letter ranks, so that comparing rank strings
# compares by rank, and the two mirrors acting on such strings
_TO_RANKS = str.maketrans("".join(SHAPE_LETTERS), "0123")
_FROM_RANKS = str.maketrans("0123", "".join(SHAPE_LETTERS))
_SWAP_RL = str.maketrans("RL".translate(_TO_RANKS), "LR".translate(_TO_RANKS))
_SWAP_WN = str.maketrans("WN".translate(_TO_RANKS), "NW".translate(_TO_RANKS))


def _rank_orbit(shapes: tuple[str, ...]) -> tuple[str, str, str, str]:
    """Rank strings of the shapes, their left-right mirror, and the two
    turned upside down (read backwards with W and N swapped)."""
    ranks = "".join(shapes).translate(_TO_RANKS)
    lr = ranks.translate(_SWAP_RL)
    return ranks, lr, ranks[::-1].translate(_SWAP_WN), lr[::-1].translate(_SWAP_WN)


def mirror_orbit(shapes: tuple[str, ...]) -> set[tuple[str, ...]]:
    return {tuple(ranks.translate(_FROM_RANKS)) for ranks in _rank_orbit(shapes)}


def _canonical_shapes(shapes: tuple[str, ...]) -> tuple[str, ...]:
    """The member of the mirror orbit that is least by letter rank."""
    return tuple(min(_rank_orbit(shapes)).translate(_FROM_RANKS))


def catalog_shapes(max_tiers: int, dedup: bool = True) -> list[tuple[str, ...]]:
    """Shape sequences of every Kekulean strip family with at most
    max_tiers tiers, optionally one representative per mirror orbit.

    The order recursion decides membership: at n = 2 a sequence is valid
    and Kekulean exactly when no order is negative and the bottom one is
    1, so a prefix is dropped once its order cannot get back to 1.
    """
    found = []
    stack = [((), 1)] if max_tiers >= 1 else []
    while stack:
        interior, order = stack.pop()
        if order == 1:
            found.append(("W",) + interior + ("N",))
        left = max_tiers - 2 - len(interior)  # letters allowed after the next
        for letter in reversed(SHAPE_LETTERS):
            next_order = order + _SIZE_STEP[letter]
            if 0 <= next_order and abs(next_order - 1) <= left:
                stack.append((interior + (letter,), next_order))
    found.sort(key=len)  # stable: each m stays in the walk's letter order
    if dedup:
        found = [shapes for shapes in found if shapes == _canonical_shapes(shapes)]
    return found


def tier_offsets(spec: StripSpec) -> tuple[int, ...]:
    """Left offset of each tier in half-hexagon units; tier 1 sits at 0."""
    offsets = [0]
    for shape in spec.shapes[1:-1]:
        offsets.append(offsets[-1] + _OFFSET_STEP[shape])
    return tuple(offsets)


class Hexagon(NamedTuple):
    """One lattice hexagon: six vertices and six edges in cyclic order.

    Vertices run apex, upper-left, lower-left, bottom, lower-right,
    upper-right; edges run NW slant, left vertical, SW slant, SE slant,
    right vertical, NE slant. A named tuple: sorts, iterates, equals and
    hashes like its fields' tuple; the field index shadows tuple.index."""

    tier: int
    index: int
    vertices: tuple[int, int, int, int, int, int]
    edges: tuple[Edge, Edge, Edge, Edge, Edge, Edge]

    @property
    def left_vertical(self) -> Edge:
        return self.edges[1]

    @property
    def right_vertical(self) -> Edge:
        return self.edges[4]


class BenzenoidGraph:
    """Explicit benzenoid graph of a valid strip.

    Every edge is tagged as an interface bond (vertical, owned by one
    interface at a 1-based left-to-right position) or a spine bond.
    """

    def __init__(self, spec: StripSpec):
        report = validate(spec)
        if not report.is_valid:
            raise InvalidStripError("; ".join(report.problems))
        self.spec = spec
        self.profile = interface_profile(spec)
        self.offsets = tier_offsets(spec)
        self._build()

    def _build(self) -> None:
        profile = self.profile
        hex_corner_sets = []
        for k in range(1, profile.m + 1):
            x0 = self.offsets[k - 1]
            for j in range(profile.size(k) - 1):
                left = x0 + 2 * j
                corners = (
                    (left + 1, 2 * k - 2),  # apex
                    (left, 2 * k - 1),      # upper-left
                    (left, 2 * k),          # lower-left
                    (left + 1, 2 * k + 1),  # bottom
                    (left + 2, 2 * k),      # lower-right
                    (left + 2, 2 * k - 1),  # upper-right
                )
                hex_corner_sets.append((k, j + 1, corners))

        coords = sorted({c for _, _, corners in hex_corner_sets for c in corners},
                        key=lambda c: (c[1], c[0]))
        vertex_id = {c: i for i, c in enumerate(coords)}

        edge_set: set[Edge] = set()
        hexagons = []
        for k, idx, corners in hex_corner_sets:
            ids = tuple(vertex_id[c] for c in corners)
            cyc = []
            for a in range(6):
                u, v = ids[a], ids[(a + 1) % 6]
                cyc.append((u, v) if u < v else (v, u))
            edge_set.update(cyc)
            hexagons.append(Hexagon(k, idx, ids, tuple(cyc)))

        # interface k: the left vertical of each hexagon of tier k, then
        # the right vertical of the last one
        interface_bonds = []
        for k in range(1, profile.m + 1):
            tier = [h for h in hexagons if h.tier == k]
            interface_bonds.append(tuple(h.left_vertical for h in tier) + (tier[-1].right_vertical,))
        interface_of = {
            edge: (k, p)
            for k, bonds in enumerate(interface_bonds, start=1)
            for p, edge in enumerate(bonds, start=1)
        }

        adjacency: dict[int, list[int]] = {i: [] for i in range(len(coords))}
        for u, v in edge_set:
            adjacency[u].append(v)
            adjacency[v].append(u)

        self.coords = tuple(coords)
        self.edges = tuple(sorted(edge_set))
        self.hexagons = tuple(hexagons)
        self.interface_bonds = tuple(interface_bonds)
        self.interface_of = interface_of
        self.edge_kind = {
            e: ("interface" if e in interface_of else "spine") for e in self.edges
        }
        self.adjacency = {v: tuple(sorted(ns)) for v, ns in adjacency.items()}

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_graph(spec: StripSpec) -> BenzenoidGraph:
    return BenzenoidGraph(spec)


def shapes_from_graph(graph: BenzenoidGraph) -> tuple[str, ...]:
    """Re-derive the shape letters from interface-bond memberships.

    For each fragment, the leftmost and rightmost of its interface bonds
    decide the shape; used as a geometry round-trip check.
    """
    profile = graph.profile
    m = profile.m

    def bond_x(edge: Edge) -> int:
        return graph.coords[edge[0]][0]

    shapes = []
    for kappa in range(1, m + 2):
        upper = graph.interface_bonds[kappa - 2] if kappa >= 2 else ()
        lower = graph.interface_bonds[kappa - 1] if kappa <= m else ()
        tagged = [(bond_x(e), "upper") for e in upper] + [(bond_x(e), "lower") for e in lower]
        tagged.sort()
        first, last = tagged[0][1], tagged[-1][1]
        if first == "lower" and last == "lower":
            shapes.append("W")
        elif first == "upper" and last == "upper":
            shapes.append("N")
        elif first == "upper":
            shapes.append("R")
        else:
            shapes.append("L")
    return tuple(shapes)
