"""Shared helpers: the test catalog of small strips and synthetic posets."""

from __future__ import annotations

import random

import pytest

from zzstrips import Dib, DibPoset, NaturalLabeling, StripSpec, validate
from zzstrips.strip_geometry import catalog_shapes


def all_strips(max_tiers: int, lengths: tuple[int, ...]) -> list[StripSpec]:
    """Every valid Kekulean (shapes, n) combination, no mirror dedup."""
    specs = []
    for shapes in catalog_shapes(max_tiers, dedup=False):
        for n in lengths:
            spec = StripSpec(shapes, n)
            report = validate(spec)
            if report.is_valid and report.is_kekulean:
                specs.append(spec)
    return specs


@pytest.fixture(scope="session")
def catalog() -> list[StripSpec]:
    """The acceptance catalog: m <= 4, n <= 4."""
    return all_strips(4, (1, 2, 3, 4))


@pytest.fixture(scope="session")
def small_catalog() -> list[StripSpec]:
    return all_strips(3, (1, 2, 3))


def chain_poset(p: int) -> DibPoset:
    elements = [Dib(i, 1) for i in range(1, p + 1)]
    covers = [(elements[i], elements[i + 1]) for i in range(p - 1)]
    return DibPoset(elements, covers)


def antichain_poset(p: int) -> DibPoset:
    return DibPoset([Dib(i, 1) for i in range(1, p + 1)], [])


def fence_poset(p: int) -> DibPoset:
    """Zigzag order: e1 < e2 > e3 < e4 > ..."""
    elements = [Dib(i, 1) for i in range(1, p + 1)]
    covers = []
    for i in range(p - 1):
        if i % 2 == 0:
            covers.append((elements[i], elements[i + 1]))
        else:
            covers.append((elements[i + 1], elements[i]))
    return DibPoset(elements, covers)


def random_natural_labeling(poset: DibPoset, rng: random.Random) -> NaturalLabeling:
    """A uniform-ish random linear extension used as a labeling."""
    remaining = set(poset.elements)
    order = []
    while remaining:
        ready = [e for e in remaining if not (poset.below(e) & remaining)]
        pick = rng.choice(sorted(ready))
        order.append(pick)
        remaining.remove(pick)
    return NaturalLabeling(poset, order)
