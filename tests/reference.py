"""Reference routes that only the tests call.

The package computes each result by one production route; these are
the independent definitions the tests hold it to: binomials that vanish
outside 0 <= k <= n, strict order-preserving maps by exhaustive search,
and the proper-sextet coefficients a(k) by the subposet sum.
"""

from __future__ import annotations

import itertools
import math

from zzstrips import DibPoset, GuardExceeded, StripSpec, build_poset, extended_poly_subposet_sum
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
