"""Brute-force ground truth on the explicit benzenoid graph.

Everything here works edge-by-edge on the realized graph and knows
nothing about posets: perfect matchings by exhaustive branching, proper
sextets by direct pattern matching on hexagons, Clar covers by choosing
vertex-disjoint aromatic hexagons and matching the rest. The cover
histogram comes from ``count_clar_covers``, a transfer-matrix DP over
the vertices that counts the covers without building them and needs no
vertex guard; ``enumerate_clar_covers`` still builds every cover, as the
reference the DP is tested against. The sextet route still counts the
proper sextets of each enumerated matching. The three ZZ routes (cover
histogram, sextet histogram, poset engine) must agree.
The mirrored sextet pattern is the ring's other Kekule configuration,
so it reproduces all three aggregate routes on every strip; it breaks
only the per-matching agreement with the bijection, where the sextet
count of each matching must equal the size of its domain A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dib_poset import Dib
from .errors import GuardExceeded
from .kekule_bijection import KekuleAssignment
from .order_polynomials import ZzPolynomial
from .strip_geometry import BenzenoidGraph, Edge

MAX_ORACLE_VERTICES = 60

Matching = frozenset  # of Edge


@dataclass(frozen=True)
class ExplicitClarCover:
    """Aromatic hexagons (by index into graph.hexagons) plus a perfect
    matching of the remaining vertices."""

    hexagons: tuple[int, ...]
    matching: Matching

    @property
    def order(self) -> int:
        return len(self.hexagons)


def _check_guard(graph: BenzenoidGraph, max_vertices: int | None) -> None:
    limit = MAX_ORACLE_VERTICES if max_vertices is None else max_vertices
    if graph.num_vertices > limit:
        raise GuardExceeded(
            f"{graph.num_vertices} vertices exceed the oracle guard {limit}"
        )


def enumerate_perfect_matchings(
    graph: BenzenoidGraph, max_vertices: int | None = None
) -> list[Matching]:
    """All perfect matchings, by branching on the lowest uncovered vertex."""
    _check_guard(graph, max_vertices)
    return _matchings_avoiding(graph, frozenset())


def _matchings_avoiding(graph: BenzenoidGraph, removed: frozenset[int]) -> list[Matching]:
    # Vertices below the branching vertex are all covered, and covering
    # only grows along a branch, so each step scans on from there.
    size = graph.num_vertices
    adjacency = graph.adjacency
    covered = [False] * size
    for v in removed:
        covered[v] = True
    chosen: list[Edge] = []
    out: list[Matching] = []

    def branch(v: int) -> None:
        while v < size and covered[v]:
            v += 1
        if v == size:
            out.append(frozenset(chosen))
            return
        covered[v] = True
        for u in adjacency[v]:
            if covered[u]:
                continue
            covered[u] = True
            chosen.append((v, u) if v < u else (u, v))
            branch(v + 1)
            chosen.pop()
            covered[u] = False
        covered[v] = False

    branch(0)
    return out


def _sextet_patterns(graph: BenzenoidGraph, mirrored: bool) -> list[tuple[Edge, Edge, Edge]]:
    """The three bonds of each hexagon's proper-sextet pattern."""
    patterns = []
    for hexagon in graph.hexagons:
        nw, left, sw, se, right, ne = hexagon.edges
        patterns.append((left, ne, se) if mirrored else (right, nw, sw))
    return patterns


def _count_patterns(patterns: list[tuple[Edge, Edge, Edge]], matching: Matching) -> int:
    return sum(1 for a, b, c in patterns if a in matching and b in matching and c in matching)


def count_proper_sextets(
    graph: BenzenoidGraph, matching: Matching, mirrored: bool = False
) -> int:
    """Hexagons covered by the right vertical bond plus the two left
    slants.

    The mirrored pattern (left vertical bond plus the two right slants)
    exists only to prove tests can catch an orientation bug. Swapping
    the double bonds of disjoint rings carries one pattern onto the
    other, so both give the same histogram and ZZ polynomial; only the
    per-matching count against |A| of the bijection tells them apart.
    """
    return _count_patterns(_sextet_patterns(graph, mirrored), matching)


def _hexagon_conflicts(graph: BenzenoidGraph) -> list[set[int]]:
    vertex_sets = [set(h.vertices) for h in graph.hexagons]
    conflicts: list[set[int]] = [set() for _ in graph.hexagons]
    for i in range(len(vertex_sets)):
        for j in range(i + 1, len(vertex_sets)):
            if vertex_sets[i] & vertex_sets[j]:
                conflicts[i].add(j)
                conflicts[j].add(i)
    return conflicts


def iter_clar_covers(
    graph: BenzenoidGraph, max_vertices: int | None = None
) -> Iterator[ExplicitClarCover]:
    """The covers of ``enumerate_clar_covers``, streamed in the same
    order. The guard is checked at the call, before the first cover."""
    _check_guard(graph, max_vertices)
    conflicts = _hexagon_conflicts(graph)
    count = len(graph.hexagons)
    chosen: list[int] = []

    def pick(start: int, blocked: set[int]) -> Iterator[ExplicitClarCover]:
        removed = frozenset(v for i in chosen for v in graph.hexagons[i].vertices)
        hexagons = tuple(chosen)
        for matching in _matchings_avoiding(graph, removed):
            yield ExplicitClarCover(hexagons, matching)
        for i in range(start, count):
            if i in blocked:
                continue
            chosen.append(i)
            yield from pick(i + 1, blocked | conflicts[i])
            chosen.pop()

    return pick(0, set())


def enumerate_clar_covers(
    graph: BenzenoidGraph, max_vertices: int | None = None
) -> list[ExplicitClarCover]:
    """Every Clar cover: each vertex-disjoint hexagon set, completed by
    every perfect matching of what remains."""
    return list(iter_clar_covers(graph, max_vertices))


def zz_from_covers(covers: Iterable[ExplicitClarCover]) -> ZzPolynomial:
    """Cover-order histogram read off directly, in one pass."""
    counts: list[int] = []
    for cover in covers:
        k = cover.order
        if k >= len(counts):
            counts.extend([0] * (k + 1 - len(counts)))
        counts[k] += 1
    return ZzPolynomial.from_coeffs(counts)


def _merge(layer: dict[int, list[int]], mask: int, counts: list[int]) -> None:
    # Adds counts into the state's list in place; the caller hands over
    # a list no other state holds.
    old = layer.get(mask)
    if old is None:
        layer[mask] = counts
        return
    if len(old) < len(counts):
        layer[mask] = counts
        old, counts = counts, old
    for k, c in enumerate(counts):
        old[k] += c


def count_clar_covers(graph: BenzenoidGraph) -> ZzPolynomial:
    """Clar covers counted by ring number, without building them.

    A transfer-matrix DP over the vertices in index order. The state at
    v is the bitmask of covered vertices at or after v (bit 0 = v), and
    its value the cover counts by ring number. An uncovered v takes a
    bond to an uncovered neighbour u > v, or an uncovered ring whose
    lowest vertex is v; the piece covering the lowest uncovered vertex
    is chosen there, so each cover is counted once. No guard applies.
    """
    size = graph.num_vertices
    bonds = [
        [1 << (u - v) for u in graph.adjacency[v] if u > v] for v in range(size)
    ]
    rings: list[list[int]] = [[] for _ in range(size)]
    for hexagon in graph.hexagons:
        low = min(hexagon.vertices)
        rings[low].append(sum(1 << (u - low) for u in hexagon.vertices))

    states: dict[int, list[int]] = {0: [1]}
    for v in range(size):
        layer: dict[int, list[int]] = {}
        for mask, counts in states.items():
            if mask & 1:
                _merge(layer, mask >> 1, counts)
                continue
            for bit in bonds[v]:
                if not mask & bit:
                    _merge(layer, (mask | bit) >> 1, counts[:])
            for ring in rings[v]:
                if not mask & ring:
                    _merge(layer, (mask | ring) >> 1, [0] + counts)
        states = layer
    return ZzPolynomial.from_coeffs(states.get(0, ()))


def zz_from_matchings(
    graph: BenzenoidGraph,
    matchings: list[Matching] | None = None,
    mirrored: bool = False,
) -> ZzPolynomial:
    """Proper-sextet histogram a(k), expanded through (x + 1)^k."""
    if matchings is None:
        matchings = enumerate_perfect_matchings(graph)
    if not matchings:
        return ZzPolynomial.zero()
    patterns = _sextet_patterns(graph, mirrored)
    sextets = [_count_patterns(patterns, m) for m in matchings]
    top = max(sextets)
    a = [0] * (top + 1)
    for s in sextets:
        a[s] += 1
    coeffs = [0] * (top + 1)
    for k, a_k in enumerate(a):
        for i in range(k + 1):
            coeffs[i] += a_k * math.comb(k, i)
    return ZzPolynomial.from_coeffs(coeffs)


def extract_ki(graph: BenzenoidGraph, matching: Matching) -> KekuleAssignment:
    """Read the double interface bonds of a matching into (k, j) -> pos
    form, numbering within each interface from the left."""
    profile = graph.profile
    elements: list[Dib] = []
    positions: list[int] = []
    for k in range(1, profile.m + 1):
        doubles = [
            p
            for p, bond in enumerate(graph.interface_bonds[k - 1], start=1)
            if bond in matching
        ]
        if len(doubles) != profile.order(k):
            raise ValueError(
                f"interface {k} holds {len(doubles)} double bonds, "
                f"expected {profile.order(k)}"
            )
        for j, p in enumerate(doubles, start=1):
            elements.append(Dib(k, j))
            positions.append(p)
    pairs = sorted(zip(elements, positions))
    return KekuleAssignment(
        tuple(e for e, _ in pairs), tuple(p for _, p in pairs)
    )
