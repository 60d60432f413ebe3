"""The poset of double interface bonds (DIBs) of a Kekulean strip.

Interface k carries ord(i_k) abstract double interface bonds, ranked
left to right. Each interior fragment chains the DIBs of its two
interfaces into a zigzag whose direction depends on which interface
holds the fragment's leftmost interface bond. The transitive closure of
those chains is the strict partial order used by every counting routine
downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidStripError, NonKekuleanError
from .strip_geometry import (
    FIRST_BOND_LOWER,
    StripSpec,
    interface_profile,
    validate,
)


@dataclass(frozen=True, order=True)
class Dib:
    """Double interface bond s(k, j): interface k, left-to-right rank j."""

    k: int
    j: int

    def __repr__(self) -> str:
        return f"s({self.k},{self.j})"


class DibPoset:
    """Finite strict poset over Dib elements.

    Stores the cover relation and the full strict order; construction
    rejects anything that is not irreflexive and antisymmetric.
    """

    def __init__(self, elements: Iterable[Dib], covers: Iterable[tuple[Dib, Dib]]):
        self.elements: tuple[Dib, ...] = tuple(sorted(set(elements)))
        cover_set = set()
        index = set(self.elements)
        for a, b in covers:
            if a not in index or b not in index:
                raise ValueError(f"cover ({a}, {b}) uses unknown element")
            if a == b:
                raise ValueError(f"reflexive cover at {a}")
            cover_set.add((a, b))
        self.covers: tuple[tuple[Dib, Dib], ...] = tuple(sorted(cover_set))
        self._below = self._close()

    def _close(self) -> dict[Dib, frozenset[Dib]]:
        succs: dict[Dib, list[Dib]] = {e: [] for e in self.elements}
        for a, b in self.covers:
            succs[a].append(b)

        below: dict[Dib, set[Dib]] = {e: set() for e in self.elements}
        order = self._topo_order(succs)
        for e in order:
            for b in succs[e]:
                below[b].add(e)
                below[b].update(below[e])
        for e, lower in below.items():
            if e in lower:
                raise ValueError(f"relation is cyclic at {e}")
        return {e: frozenset(lower) for e, lower in below.items()}

    def _topo_order(self, succs: dict[Dib, list[Dib]]) -> list[Dib]:
        indeg = {e: 0 for e in self.elements}
        for e in self.elements:
            for b in succs[e]:
                indeg[b] += 1
        ready = sorted(e for e in self.elements if indeg[e] == 0)
        out = []
        while ready:
            e = ready.pop(0)
            out.append(e)
            for b in succs[e]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        if len(out) != len(self.elements):
            raise ValueError("cover relation contains a cycle")
        return out

    @property
    def p(self) -> int:
        return len(self.elements)

    def less(self, a: Dib, b: Dib) -> bool:
        """True when a is strictly below b."""
        return a in self._below[b]

    def below(self, b: Dib) -> frozenset[Dib]:
        """All elements strictly below b."""
        return self._below[b]

    def subposet(self, members: Iterable[Dib]) -> "DibPoset":
        """Induced subposet: inherited order, covers recomputed."""
        kept = sorted(set(members))
        for e in kept:
            if e not in self._below:
                raise ValueError(f"{e} is not an element of this poset")
        kept_set = set(kept)
        covers = []
        for a in kept:
            for b in kept:
                if a in self._below[b]:
                    between = self._below[b] & kept_set
                    if not any(a in self._below[c] for c in between):
                        covers.append((a, b))
        return DibPoset(kept, covers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DibPoset):
            return NotImplemented
        return self.elements == other.elements and self._below == other._below

    def __repr__(self) -> str:
        return f"DibPoset(p={self.p}, covers={len(self.covers)})"

    def to_json(self) -> str:
        index = {e: i for i, e in enumerate(self.elements)}
        return json.dumps(
            {
                "elements": [{"k": e.k, "j": e.j} for e in self.elements],
                "covers": [[index[a], index[b]] for a, b in self.covers],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DibPoset":
        data = json.loads(text)
        elements = [Dib(int(d["k"]), int(d["j"])) for d in data["elements"]]
        covers = [(elements[a], elements[b]) for a, b in data["covers"]]
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
        raise NonKekuleanError("; ".join(p for p in report.problems if "Kekulean" in p))

    profile = interface_profile(spec)
    elements = [
        Dib(k, j)
        for k in range(1, profile.m + 1)
        for j in range(1, profile.order(k) + 1)
    ]

    covers: list[tuple[Dib, Dib]] = []
    for kappa in range(2, profile.m + 1):
        upper, lower = kappa - 1, kappa
        ord_u, ord_l = profile.order(upper), profile.order(lower)
        if spec.shapes[kappa - 1] in FIRST_BOND_LOWER:
            first, second = lower, upper
            ord_first, ord_second = ord_l, ord_u
        else:
            first, second = upper, lower
            ord_first, ord_second = ord_u, ord_l
        for j in range(1, min(ord_first, ord_second) + 1):
            covers.append((Dib(first, j), Dib(second, j)))
        for j in range(1, min(ord_second, ord_first - 1) + 1):
            covers.append((Dib(second, j), Dib(first, j + 1)))

    return DibPoset(elements, covers)


def induced_subposets(poset: DibPoset) -> Iterator[DibPoset]:
    """All 2^p induced subposets, in ascending bitmask order."""
    elements = poset.elements
    for mask in range(1 << poset.p):
        members = [elements[i] for i in range(poset.p) if mask >> i & 1]
        yield poset.subposet(members)


class NaturalLabeling:
    """Order-preserving bijection from poset elements to 1..p."""

    def __init__(self, poset: DibPoset, elements_by_label: Sequence[Dib]):
        if sorted(elements_by_label) != list(poset.elements):
            raise ValueError("labeling must be a bijection onto the poset elements")
        self.poset = poset
        self.elements_by_label = tuple(elements_by_label)
        self._label_of = {e: i + 1 for i, e in enumerate(self.elements_by_label)}
        for a, b in poset.covers:
            if self._label_of[a] > self._label_of[b]:
                raise ValueError(f"labeling is not order-preserving at {a} < {b}")

    @property
    def p(self) -> int:
        return len(self.elements_by_label)

    def label_of(self, element: Dib) -> int:
        return self._label_of[element]

    def element_of(self, label: int) -> Dib:
        return self.elements_by_label[label - 1]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e}->{i + 1}" for i, e in enumerate(self.elements_by_label))
        return f"NaturalLabeling({pairs})"


def natural_labeling(poset: DibPoset) -> NaturalLabeling:
    """Canonical labeling: repeatedly remove the minimal element with
    lexicographically smallest (j, k)."""
    remaining = set(poset.elements)
    order: list[Dib] = []
    while remaining:
        candidates = [e for e in remaining if not (poset.below(e) & remaining)]
        pick = min(candidates, key=lambda e: (e.j, e.k))
        order.append(pick)
        remaining.remove(pick)
    return NaturalLabeling(poset, order)
