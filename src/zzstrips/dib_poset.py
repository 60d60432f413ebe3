"""The poset of double interface bonds (DIBs) of a Kekulean strip.

Interface k carries ord(i_k) abstract double interface bonds, ranked
left to right. Each interior fragment chains the DIBs of its two
interfaces into a zigzag whose direction depends on which interface
holds the fragment's leftmost interface bond. The transitive closure of
those chains is the strict partial order used by every counting routine
downstream. It is stored once, in the poset, as one integer below-set
per element, bit t standing for the t-th element in (k, j) order.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidStripError, NonKekuleanError, json_field, json_int, json_list
from .strip_geometry import FIRST_BOND_LOWER, StripSpec, interface_profile, validate


class Dib(NamedTuple):
    """Double interface bond s(k, j): interface k, left-to-right rank j.

    A named tuple, so it sorts by (k, j) and equals and hashes like the
    plain tuple (k, j). No code here mixes the two or tests the type of
    a Dib."""

    k: int
    j: int

    def __repr__(self) -> str:
        return f"s({self.k},{self.j})"


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DibPoset:
    """Finite strict poset over Dib elements.

    Stores the cover relation and the full strict order, the latter once,
    as one integer below-set per element: bit t of ``below_masks[i]`` is
    set iff ``elements[t] < elements[i]``. Construction rejects anything
    that is not irreflexive and antisymmetric.
    """

    def __init__(self, elements: Iterable[Dib], covers: Iterable[tuple[Dib, Dib]]):
        self.elements: tuple[Dib, ...] = tuple(sorted(set(elements)))
        index = self._index = {e: i for i, e in enumerate(self.elements)}
        p = len(self.elements)
        below = [0] * p
        cover_set = set()
        for a, b in covers:
            if a not in index or b not in index:
                raise ValueError(f"cover ({a}, {b}) uses unknown element")
            if a == b:
                raise ValueError(f"reflexive cover at {a}")
            cover_set.add((a, b))
            below[index[b]] |= 1 << index[a]
        self.covers: tuple[tuple[Dib, Dib], ...] = tuple(sorted(cover_set))
        # Warshall: after step t each mask holds every element that
        # reaches it through intermediates among elements 0..t
        for t in range(p):
            bit, below_t = 1 << t, below[t]
            for i in range(p):
                if below[i] & bit:
                    below[i] |= below_t
        for i, mask in enumerate(below):
            if mask >> i & 1:
                raise ValueError(f"relation is cyclic at {self.elements[i]}")
        self.below_masks: tuple[int, ...] = tuple(below)

    @property
    def p(self) -> int:
        return len(self.elements)

    def less(self, a: Dib, b: Dib) -> bool:
        """True when a is strictly below b."""
        return bool(self.below_masks[self._index[b]] >> self._index[a] & 1)

    def below(self, b: Dib) -> frozenset[Dib]:
        """All elements strictly below b."""
        return frozenset(self.elements[t] for t in _bits(self.below_masks[self._index[b]]))

    def subposet(self, members: Iterable[Dib]) -> "DibPoset":
        """Induced subposet: inherited order, covers recomputed."""
        kept = sorted(set(members))
        for e in kept:
            if e not in self._index:
                raise ValueError(f"{e} is not an element of this poset")
        keep = sum(1 << self._index[e] for e in kept)
        masks, elements = self.below_masks, self.elements
        covers = []
        for b in _bits(keep):
            lower = masks[b] & keep
            # a kept a < b is a cover unless it lies below a kept c < b
            implied = 0
            for c in _bits(lower):
                implied |= masks[c]
            covers.extend((elements[a], elements[b]) for a in _bits(lower & ~implied))
        return DibPoset(kept, covers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DibPoset):
            return NotImplemented
        return self.elements == other.elements and self.below_masks == other.below_masks

    def __repr__(self) -> str:
        return f"DibPoset(p={self.p}, covers={len(self.covers)})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": [{"k": e.k, "j": e.j} for e in self.elements],
                "covers": [[self._index[a], self._index[b]] for a, b in self.covers],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DibPoset":
        data = json.loads(text)
        elements = [
            Dib(json_int(json_field(d, "k"), "k"), json_int(json_field(d, "j"), "j"))
            for d in json_list(json_field(data, "elements"), "elements")
        ]
        for i, e in enumerate(elements):
            if e in elements[:i]:
                raise ValueError(f"element {e} is repeated")
        p = len(elements)
        covers = []
        for pair in json_list(json_field(data, "covers"), "covers"):
            a, b = json_list(pair, "cover")
            a, b = json_int(a, "cover index"), json_int(b, "cover index")
            if not (0 <= a < p and 0 <= b < p):
                raise ValueError(f"cover [{a}, {b}] indexes outside 0..{p - 1}")
            covers.append((elements[a], elements[b]))
        return cls(elements, covers)

    def to_dot(self) -> str:
        """Hasse diagram in DOT format (covers drawn bottom-up)."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for e in self.elements:
            lines.append(f'  "s{e.k}_{e.j}" [label="({e.k},{e.j})"];')
        for a, b in self.covers:
            lines.append(f'  "s{a.k}_{a.j}" -> "s{b.k}_{b.j}";')
        lines.append("}")
        return "\n".join(lines)


def build_poset(spec: StripSpec) -> DibPoset:
    """Construct the DIB poset of a valid Kekulean strip.

    For a fragment whose leftmost interface bond is in the upper
    interface u (shapes N, R) the covers are s(u,j) < s(l,j) and
    s(l,j) < s(u,j+1); with the leftmost bond in the lower interface l
    (shapes W, L) the roles of u and l swap. Fragments touching an
    order-0 interface contribute nothing.
    """
    report = validate(spec)
    if not report.is_valid:
        raise InvalidStripError("; ".join(report.problems))
    if not report.is_kekulean:
        # a valid strip has no problem but the non-Kekulean one
        raise NonKekuleanError("; ".join(report.problems))

    profile = interface_profile(spec)
    elements = [
        Dib(k, j)
        for k in range(1, profile.m + 1)
        for j in range(1, profile.order(k) + 1)
    ]

    # elements[start[k] + j] is s(k, j), so a cover reuses its elements
    start = [0, *accumulate(profile.orders, initial=-1)]
    covers: list[tuple[Dib, Dib]] = []
    # fragment kappa lies between interfaces u = kappa - 1 and l = kappa;
    # the end fragments touch one interface only, so they chain nothing
    for kappa, shape in enumerate(spec.shapes[1:-1], start=2):
        first, second = (kappa, kappa - 1) if shape in FIRST_BOND_LOWER else (kappa - 1, kappa)
        ord_first, ord_second = profile.order(first), profile.order(second)
        a, b = start[first], start[second]
        for j in range(1, min(ord_first, ord_second) + 1):
            covers.append((elements[a + j], elements[b + j]))
        for j in range(1, min(ord_second, ord_first - 1) + 1):
            covers.append((elements[b + j], elements[a + j + 1]))

    return DibPoset(elements, covers)


def induced_subposets(poset: DibPoset) -> Iterator[DibPoset]:
    """All 2^p induced subposets, in ascending bitmask order."""
    elements = poset.elements
    for mask in range(1 << poset.p):
        members = [elements[i] for i in _bits(mask)]
        yield poset.subposet(members)


class NaturalLabeling:
    """Order-preserving bijection from poset elements to 1..p. The pass
    that checks the order also fills the covers in label space:
    lower_covers[l - 1] and upper_covers[l - 1] hold l' - 1 for each
    cover l' < l, respectively l < l', in the order of poset.covers."""

    def __init__(self, poset: DibPoset, elements_by_label: Sequence[Dib]):
        if sorted(elements_by_label) != list(poset.elements):
            raise ValueError("labeling must be a bijection onto the poset elements")
        self.poset = poset
        self.elements_by_label = tuple(elements_by_label)
        self._index = {e: i for i, e in enumerate(self.elements_by_label)}
        lower: list[list[int]] = [[] for _ in poset.elements]
        upper: list[list[int]] = [[] for _ in poset.elements]
        for a, b in poset.covers:
            i, j = self._index[a], self._index[b]
            if i > j:
                raise ValueError(f"labeling is not order-preserving at {a} < {b}")
            lower[j].append(i)
            upper[i].append(j)
        self.lower_covers = tuple(map(tuple, lower))
        self.upper_covers = tuple(map(tuple, upper))

    @property
    def p(self) -> int:
        return len(self.elements_by_label)

    def label_of(self, element: Dib) -> int:
        return self._index[element] + 1

    def element_of(self, label: int) -> Dib:
        return self.elements_by_label[label - 1]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e}->{i + 1}" for i, e in enumerate(self.elements_by_label))
        return f"NaturalLabeling({pairs})"


def natural_labeling(poset: DibPoset) -> NaturalLabeling:
    """Canonical labeling: repeatedly remove the minimal element with
    lexicographically smallest (j, k)."""
    elements = poset.elements
    by_jk = sorted(range(poset.p), key=lambda i: (elements[i].j, elements[i].k))
    placed = 0
    order: list[Dib] = []
    while by_jk:
        # the first element in (j, k) order with nothing left below it
        pick = next(i for i in by_jk if not poset.below_masks[i] & ~placed)
        by_jk.remove(pick)
        placed |= 1 << pick
        order.append(elements[pick])
    return NaturalLabeling(poset, order)
