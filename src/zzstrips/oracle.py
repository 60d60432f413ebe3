"""Brute-force ground truth on the explicit benzenoid graph.

Everything here works edge-by-edge on the realized graph and knows
nothing about posets: perfect matchings by exhaustive branching, proper
sextets by direct pattern matching on hexagons, and the Kekule
assignment a matching puts on the interfaces. ``count_clar_covers``
counts the Clar covers by ring number with a transfer-matrix DP over
the vertices, and ``count_sextet_matchings`` counts the perfect
matchings by proper sextets with the same sweep; neither builds what it
counts. With the poset engine they are the three ZZ routes that must
agree.
"""

from __future__ import annotations

import math
from typing import Sequence

from .dib_poset import Dib
from .kekule_bijection import KekuleAssignment
from .order_polynomials import ZzPolynomial
from .strip_geometry import BenzenoidGraph, Edge

Matching = frozenset  # of Edge


def enumerate_perfect_matchings(graph: BenzenoidGraph) -> list[Matching]:
    """All perfect matchings, by branching on the lowest uncovered vertex."""
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


def _sextet_patterns(graph: BenzenoidGraph) -> list[tuple[Edge, Edge, Edge]]:
    """The three bonds of each hexagon's proper-sextet pattern."""
    patterns = []
    for hexagon in graph.hexagons:
        nw, left, sw, se, right, ne = hexagon.edges
        patterns.append((right, nw, sw))
    return patterns


def _count_patterns(patterns: list[tuple[Edge, Edge, Edge]], matching: Matching) -> int:
    return sum(1 for a, b, c in patterns if a in matching and b in matching and c in matching)


def count_proper_sextets(graph: BenzenoidGraph, matching: Matching) -> int:
    """Hexagons covered by the right vertical bond plus the two left slants."""
    return _count_patterns(_sextet_patterns(graph), matching)


def _merge(layer: dict, key: int | tuple[int, int], counts: list[int]) -> None:
    # Adds counts into the state's list in place; the caller hands over
    # a list no other state holds.
    old = layer.get(key)
    if old is None:
        layer[key] = counts
        return
    if len(old) < len(counts):
        layer[key] = counts
        old, counts = counts, old
    for k, c in enumerate(counts):
        old[k] += c


def _bond_bits(graph: BenzenoidGraph) -> list[list[int]]:
    # bit u - v of the covered mask at v for each bond (v, u) with u > v,
    # in adjacency order
    return [
        [1 << (u - v) for u in graph.adjacency[v] if u > v]
        for v in range(graph.num_vertices)
    ]


def count_clar_covers(graph: BenzenoidGraph) -> ZzPolynomial:
    """Clar covers counted by ring number, without building them.

    A transfer-matrix DP over the vertices in index order. The state at
    v is the bitmask of covered vertices at or after v (bit 0 = v), and
    its value the cover counts by ring number. An uncovered v takes a
    bond to an uncovered neighbour u > v, or an uncovered ring whose
    lowest vertex is v; the piece covering the lowest uncovered vertex
    is chosen there, so each cover is counted once.
    """
    size = graph.num_vertices
    bonds = _bond_bits(graph)
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


def _substitute_one_plus_x(zcoeffs: Sequence[int]) -> ZzPolynomial:
    # z^k expands to sum_i C(k, i) x^i
    out = [0] * len(zcoeffs)
    for k, c in enumerate(zcoeffs):
        if c == 0:
            continue
        for i in range(k + 1):
            out[i] += c * math.comb(k, i)
    return ZzPolynomial.from_coeffs(out)


def count_sextet_matchings(graph: BenzenoidGraph) -> ZzPolynomial:
    """Proper-sextet histogram a(k) of the perfect matchings, expanded
    through (x + 1)^k, without building the matchings.

    The sweep of ``count_clar_covers`` with bonds only: the bond (v, u)
    is in the matching when v is uncovered at v and takes it, so a
    hexagon's pattern is intact when each of its three bonds is taken at
    its lower end. The state adds one bit per open hexagon whose pattern
    can still be completed. It is set at the pattern's first lower end
    if that bond is taken and the other four vertices are uncovered, and
    cleared by any other bond into a pattern vertex. At the last lower
    end a set bit that takes its bond shifts the counts by one sextet
    and leaves the key. A bit leaves the key as soon as its pattern
    breaks, not at its next lower end, so few states differ only in
    their bits.
    """
    size = graph.num_vertices
    # touch[w]: the hexagons with a pattern bond at w, all of which a
    # bond into w breaks unless it is that pattern bond. roles[v]: per
    # bond bit of v, the hexagon whose pattern bond it is, the mask bits
    # of that pattern's later bonds, and whether v is its first and last
    # lower end.
    touch = [0] * size
    roles: list[dict[int, tuple[int, int, bool, bool]]] = [{} for _ in range(size)]
    for h, pattern in enumerate(_sextet_patterns(graph)):
        lows = sorted(pattern)
        for i, (v, u) in enumerate(lows):
            touch[v] |= 1 << h
            touch[u] |= 1 << h
            later = sum(1 << (w - v) for bond in lows[i + 1:] for w in bond)
            roles[v][1 << (u - v)] = (1 << h, later, i == 0, i == len(lows) - 1)
    no_role = (0, 0, False, False)
    moves = [
        [
            (bit, touch[v] | touch[v + bit.bit_length() - 1], roles[v].get(bit, no_role))
            for bit in bits
        ]
        for v, bits in enumerate(_bond_bits(graph))
    ]

    states: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    for v in range(size):
        layer: dict[tuple[int, int], list[int]] = {}
        for (mask, intact), counts in states.items():
            if mask & 1:
                _merge(layer, (mask >> 1, intact), counts)
                continue
            for bit, breaks, (hexagon, later, first, last) in moves[v]:
                if mask & bit:
                    continue
                after = mask | bit
                kept = intact & ~breaks
                if hexagon and (first or intact & hexagon) and not after & later:
                    if last:
                        _merge(layer, (after >> 1, kept), [0] + counts)
                        continue
                    kept |= hexagon
                _merge(layer, (after >> 1, kept), counts[:])
        states = layer
    return _substitute_one_plus_x(states.get((0, 0), ()))


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
    # k then j ascending: already the canonical (k, j) order
    return KekuleAssignment(tuple(elements), tuple(positions))
