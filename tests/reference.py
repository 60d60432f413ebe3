"""Reference routes that only the tests call.

The package computes each result by one production route; these are
the independent definitions the tests hold it to: binomials that vanish
outside 0 <= k <= n, strict order-preserving maps by exhaustive search,
the proper-sextet coefficients a(k) by the subposet sum, the fixed
labels of one extension word by their definition, the extension words
read off the streamed records, and E(n, z) summed term by term over the
(des, fix) groups.
"""

from __future__ import annotations

import itertools
import math

from zzstrips import (
    DibPoset,
    GuardExceeded,
    NaturalLabeling,
    StripSpec,
    build_poset,
    extended_poly_subposet_sum,
    extension_records,
)
from zzstrips.extension_engine import Word, des_fix_counts, descent_stats
from zzstrips.order_polynomials import DEFAULT_SUBSET_GUARD

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
    return [r.word for r in extension_records(poset, labeling)]


def _check_extension(word: Word, poset: DibPoset, labeling: NaturalLabeling) -> dict[int, int]:
    if sorted(word) != list(range(1, poset.p + 1)):
        raise ValueError(f"word {word} is not a permutation of 1..{poset.p}")
    position = {lbl: i for i, lbl in enumerate(word, start=1)}
    for a, b in poset.covers:
        if position[labeling.label_of(a)] > position[labeling.label_of(b)]:
            raise ValueError(f"word {word} violates {a} < {b}")
    return position


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
    counts = des_fix_counts(poset, labeling)
    return tuple(
        sum(
            mult * math.comb(p - fix, k - fix) * math.comb(n + des, k)
            for (des, fix), mult in counts.items()
            if k >= fix
        )
        for k in range(p + 1)
    )
