"""Reference routes that only the tests call.

The package computes each result by one production route; these are
the independent definitions the tests hold it to: binomials that vanish
outside 0 <= k <= n, strict order-preserving maps by exhaustive search,
the proper-sextet coefficients a(k) by the subposet sum, the descents
and the fixed labels of one extension word by their definition, the
extension words read off the streamed records, E(n, z) summed term by
term over the (des, fix) groups, ZZ values of a closed form by the
binomial expansion of z = 1 + x, and on the explicit graph the Clar
covers and the perfect matchings listed one by one and read into ZZ
histograms, and the mirrored sextet pattern that acceptance criterion
9 holds the orientation checks to. The graph listings grow with the
number of covers or matchings, so they take no limit, and callers keep
to graphs small enough to list.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from zzstrips import (
    BenzenoidGraph,
    DibPoset,
    GuardExceeded,
    NaturalLabeling,
    StripSpec,
    ZzPolynomial,
    build_poset,
    enumerate_perfect_matchings,
    extended_poly_subposet_sum,
    extension_records,
)
from zzstrips.extension_engine import Word, des_fix_counts
from zzstrips.oracle import (
    Matching,
    _count_patterns,
    _matchings_avoiding,
    _sextet_patterns,
    _substitute_one_plus_x,
)
from zzstrips.order_polynomials import DEFAULT_SUBSET_GUARD, ClosedForm, _group_sum
from zzstrips.strip_geometry import Edge

DEFAULT_MAP_GUARD = 4_000_000


def binom(n: int, k: int) -> int:
    """C(n, k), zero whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def brute_force_strict_maps(
    poset: DibPoset, n: int, max_assignments: int = DEFAULT_MAP_GUARD
) -> list[dict]:
    """Exhaustively enumerate the strictly order-preserving maps.

    Independent of the extension machinery on purpose: this is the
    oracle side of the strict_order_poly cross-check.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n ** poset.p > max_assignments:
        raise GuardExceeded(
            f"{n}^{poset.p} assignments exceed the brute-force guard {max_assignments}"
        )
    elements = poset.elements
    pairs = [
        (i, jdx)
        for i, a in enumerate(elements)
        for jdx, b in enumerate(elements)
        if poset.less(a, b)
    ]
    maps = []
    for values in itertools.product(range(1, n + 1), repeat=poset.p):
        if all(values[i] < values[j] for i, j in pairs):
            maps.append(dict(zip(elements, values)))
    return maps


def a_coefficients(spec: StripSpec, max_p: int = DEFAULT_SUBSET_GUARD) -> tuple[int, ...]:
    """a(k) = number of Kekule structures with exactly k proper sextets,
    computed as the subposet sums of strict order polynomials."""
    poset = build_poset(spec)
    return extended_poly_subposet_sum(poset, spec.n, max_p=max_p)


def linear_extensions(poset: DibPoset, labeling: NaturalLabeling) -> list[Word]:
    """All extensions as label words, in lexicographic order; the empty
    poset yields one empty word."""
    return [r.word for r in extension_records(labeling)]


def _check_extension(word: Word, poset: DibPoset, labeling: NaturalLabeling) -> dict[int, int]:
    if sorted(word) != list(range(1, poset.p + 1)):
        raise ValueError(f"word {word} is not a permutation of 1..{poset.p}")
    position = {lbl: i for i, lbl in enumerate(word, start=1)}
    for a, b in poset.covers:
        if position[labeling.label_of(a)] > position[labeling.label_of(b)]:
            raise ValueError(f"word {word} violates {a} < {b}")
    return position


def descent_stats(word: Word) -> tuple[frozenset[int], int]:
    """Descent positions (1-based) and their count."""
    descents = frozenset(
        i for i in range(1, len(word)) if word[i - 1] > word[i]
    )
    return descents, len(descents)


def fixed_labels(
    word: Word, poset: DibPoset, labeling: NaturalLabeling
) -> tuple[frozenset[int], int]:
    """Fixed labels of an extension word, and their count."""
    position = _check_extension(word, poset, labeling)
    descents, _ = descent_stats(word)
    fixed = set()
    for i, label in enumerate(word, start=1):
        if i - 1 in descents or i in descents:
            fixed.add(label)
            continue
        preceding_larger = [l for l in range(1, i) if word[l - 1] > label]
        if not preceding_larger:
            continue
        element = labeling.element_of(label)
        forced_below = [position[labeling.label_of(e)] for e in poset.below(element)]
        if max(preceding_larger) > max(forced_below, default=0):
            fixed.add(label)
    return frozenset(fixed), len(fixed)


def extended_poly_extension_formula(
    poset: DibPoset, labeling: NaturalLabeling, n: int
) -> tuple[int, ...]:
    """E(n, z) from the linear extensions of the full poset: each (des,
    fix) group adds mult * C(p - fix, k - fix) * C(n + des, k) to z^k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = poset.p
    counts = des_fix_counts(labeling)
    return tuple(
        sum(
            mult * math.comb(p - fix, k - fix) * math.comb(n + des, k)
            for (des, fix), mult in counts.items()
            if k >= fix
        )
        for k in range(p + 1)
    )


def evaluate_form(form: ClosedForm, n: int) -> ZzPolynomial:
    """ZZ(S_n, x) of a closed form, without its packed rows: the z^k
    coefficients of E(n, z), then z = 1 + x expanded by binomials."""
    return _substitute_one_plus_x(_group_sum(form.p, form.groups, n))


class ExplicitClarCover(NamedTuple):
    """Aromatic hexagons (by index into graph.hexagons) plus a perfect
    matching of the remaining vertices. A named tuple: sorts, iterates,
    equals and hashes like (hexagons, matching)."""

    hexagons: tuple[int, ...]
    matching: Matching

    @property
    def order(self) -> int:
        return len(self.hexagons)


def _hexagon_conflicts(graph: BenzenoidGraph) -> list[set[int]]:
    vertex_sets = [set(h.vertices) for h in graph.hexagons]
    conflicts: list[set[int]] = [set() for _ in graph.hexagons]
    for i in range(len(vertex_sets)):
        for j in range(i + 1, len(vertex_sets)):
            if vertex_sets[i] & vertex_sets[j]:
                conflicts[i].add(j)
                conflicts[j].add(i)
    return conflicts


def enumerate_clar_covers(graph: BenzenoidGraph) -> list[ExplicitClarCover]:
    """Every Clar cover: each vertex-disjoint hexagon set, completed by
    every perfect matching of what remains."""
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

    return list(pick(0, set()))


def zz_from_covers(covers: Iterable[ExplicitClarCover]) -> ZzPolynomial:
    """Cover-order histogram read off directly, in one pass."""
    counts: list[int] = []
    for cover in covers:
        k = cover.order
        if k >= len(counts):
            counts.extend([0] * (k + 1 - len(counts)))
        counts[k] += 1
    return ZzPolynomial.from_coeffs(counts)


def mirrored_patterns(graph: BenzenoidGraph) -> list[tuple[Edge, Edge, Edge]]:
    """The three bonds of each hexagon's mirrored sextet pattern: the
    left vertical bond plus the two right slants (NE, SE).

    It exists only to prove the tests can catch an orientation bug. The
    mirrored pattern is the ring's other Kekule configuration, so
    swapping the double bonds of disjoint rings carries one pattern
    onto the other: both give the same histogram and ZZ polynomial on
    every strip. Only the per-matching count against |A| of the
    bijection tells them apart.
    """
    patterns = []
    for hexagon in graph.hexagons:
        nw, left, sw, se, right, ne = hexagon.edges
        patterns.append((left, ne, se))
    return patterns


def count_mirrored_sextets(graph: BenzenoidGraph, matching: Matching) -> int:
    """Hexagons of the matching that hold the mirrored pattern."""
    return _count_patterns(mirrored_patterns(graph), matching)


def zz_from_matchings(
    graph: BenzenoidGraph,
    matchings: list[Matching] | None = None,
    mirrored: bool = False,
) -> ZzPolynomial:
    """Proper-sextet histogram a(k) of enumerated matchings, expanded
    through (x + 1)^k; the reference ``count_sextet_matchings`` is
    tested against. mirrored reads the histogram of the mirrored
    pattern instead."""
    if matchings is None:
        matchings = enumerate_perfect_matchings(graph)
    if not matchings:
        return ZzPolynomial.zero()
    patterns = mirrored_patterns(graph) if mirrored else _sextet_patterns(graph)
    sextets = [_count_patterns(patterns, m) for m in matchings]
    a = [0] * (max(sextets) + 1)
    for s in sextets:
        a[s] += 1
    return _substitute_one_plus_x(a)
