"""Acceptance criteria, one test per criterion, all exact integer checks.

Each test prints a single pass/fail line (visible under pytest -s or in
the captured output of a failing run).
"""

import random

import pytest

from zzstrips import (
    StripSpec,
    ZzPolynomial,
    build_graph,
    build_poset,
    closed_form,
    count_proper_sextets,
    enumerate_clar_covers,
    enumerate_kekule,
    enumerate_perfect_matchings,
    extension_records,
    extract_ki,
    generate_clar_covers,
    kekule_from_map,
    map_from_kekule,
    natural_labeling,
    extended_poly_subposet_sum,
    zz_from_covers,
    zz_from_matchings,
    zz_polynomial,
)
from zzstrips.extension_engine import descent_stats

from conftest import (
    all_strips,
    antichain_poset,
    chain_poset,
    fence_poset,
    random_natural_labeling,
)
from reference import binom, extended_poly_extension_formula


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _expand_one_plus_x(zcoeffs) -> ZzPolynomial:
    out = [0] * len(zcoeffs)
    for k, c in enumerate(zcoeffs):
        for i in range(k + 1):
            out[i] += c * binom(k, i)
    return ZzPolynomial.from_coeffs(out)


@pytest.fixture(scope="module")
def acceptance_catalog():
    return all_strips(4, (1, 2, 3, 4))


def test_criterion_1_parallelogram_2_2():
    ok = zz_polynomial(StripSpec(tuple("WRN"), 2)).coeffs == (6, 6, 1)
    _report(1, "ZZ of the 2x2 parallelogram is x^2 + 6x + 6", ok)


def test_criterion_2_parallelogram_family():
    ok = True
    for n in range(1, 9):
        expected = _expand_one_plus_x(
            tuple(binom(2, k) * binom(n, k) for k in range(3))
        )
        ok = ok and zz_polynomial(StripSpec(tuple("WRN"), n)) == expected
    _report(2, "parallelogram family matches its binomial form for n=1..8", ok)


def test_criterion_3_hexagonal_flake_family():
    poset = build_poset(StripSpec(tuple("WWRNN"), 3))
    labeling = natural_labeling(poset)
    records = list(extension_records(labeling))
    ok = poset.p == 6
    ok = ok and len(poset.covers) == 7
    ok = ok and len(records) == 5
    ok = ok and sorted(r.des for r in records) == [0, 1, 1, 1, 2]
    ok = ok and sorted(r.fix for r in records) == [0, 2, 2, 2, 4]
    for n in range(1, 7):
        expected = _expand_one_plus_x(
            tuple(
                binom(6, k) * binom(n, k)
                + 3 * binom(4, k - 2) * binom(n + 1, k)
                + binom(2, k - 4) * binom(n + 2, k)
                for k in range(7)
            )
        )
        ok = ok and zz_polynomial(StripSpec(tuple("WWRNN"), n)) == expected
    _report(3, "hexagonal flake poset, statistics and ZZ for n=1..6", ok)


def test_criterion_4_oracle_triple_agreement(acceptance_catalog):
    ok = True
    for spec in acceptance_catalog:
        graph = build_graph(spec)
        zz = zz_polynomial(spec)
        if zz_from_covers(enumerate_clar_covers(graph)) != zz:
            ok = False
            break
        if zz_from_matchings(graph) != zz:
            ok = False
            break
    _report(4, "poset, cover and sextet ZZ agree on the full m<=4, n<=4 catalog", ok)


def test_criterion_5_bijection(acceptance_catalog):
    ok = True
    for spec in acceptance_catalog:
        graph = build_graph(spec)
        poset = build_poset(spec)
        matchings = enumerate_perfect_matchings(graph)
        enumerated = list(enumerate_kekule(spec))
        if len(enumerated) != len(matchings):
            ok = False
            break
        oracle_kis = sorted(
            tuple(sorted(extract_ki(graph, m).interface_bond_set()))
            for m in matchings
        )
        poset_kis = sorted(
            tuple(sorted(ka.interface_bond_set())) for _, ka in enumerated
        )
        if oracle_kis != poset_kis:
            ok = False
            break
        if any(
            map_from_kekule(spec, ka, poset=poset) != om for om, ka in enumerated
        ):
            ok = False
            break
        for matching in matchings:
            ka = extract_ki(graph, matching)
            om = map_from_kekule(spec, ka, poset=poset)
            if kekule_from_map(spec, om, poset=poset) != ka:
                ok = False
                break
        if not ok:
            break
    _report(5, "Kekule enumeration matches the oracle and round-trips", ok)


def test_criterion_6_route_agreement_and_labeling_invariance(acceptance_catalog):
    rng = random.Random(13)
    posets = [build_poset(spec) for spec in acceptance_catalog]
    posets += [chain_poset(p) for p in range(0, 7)]
    posets += [antichain_poset(p) for p in range(0, 7)]
    posets += [fence_poset(p) for p in range(1, 7)]
    seen = set()
    ok = True
    for poset in posets:
        key = (poset.elements, poset.covers)
        if key in seen:
            continue
        seen.add(key)
        labeling = natural_labeling(poset)
        for n in range(1, 7):
            reference = extended_poly_extension_formula(poset, labeling, n)
            if extended_poly_subposet_sum(poset, n) != reference:
                ok = False
                break
            for _ in range(5):
                rand_lab = random_natural_labeling(poset, rng)
                if extended_poly_extension_formula(poset, rand_lab, n) != reference:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    _report(6, "subposet sum equals extension formula, under 5 random labelings", ok)


def test_criterion_7_non_kekulean():
    spec = StripSpec(tuple("WNNWWN"), 4)
    ok = zz_polynomial(spec).is_zero
    ok = ok and enumerate_perfect_matchings(build_graph(spec)) == []
    _report(7, "negative interface order gives ZZ = 0 and no matchings", ok)


def test_criterion_8_clar_cover_generation(acceptance_catalog):
    records = list(generate_clar_covers(StripSpec(tuple("WRN"), 2)))
    histogram = [sum(1 for r in records if r.order == k) for k in range(3)]
    ok = len(records) == 13 and histogram == [6, 6, 1]

    for spec in acceptance_catalog:
        zz = zz_polynomial(spec)
        poset = build_poset(spec)
        per_pair: dict[tuple, int] = {}
        total = 0
        for rec in generate_clar_covers(spec):
            total += 1
            om = map_from_kekule(spec, rec.base, poset=poset)
            sub = poset.subposet(om.elements)
            sub_lab = natural_labeling(sub)
            ranked = sorted(
                om.elements, key=lambda e: (om.value_of(e), -sub_lab.label_of(e))
            )
            word = tuple(sub_lab.label_of(e) for e in ranked)
            per_pair[(om.elements, word)] = per_pair.get((om.elements, word), 0) + 1
        if total != zz.evaluate(1):
            ok = False
            break
        for (members, word), count in per_pair.items():
            _, des = descent_stats(word)
            if count != (1 << len(members)) * binom(spec.n + des, len(members)):
                ok = False
                break
        if not ok:
            break
    _report(8, "Clar streams have length ZZ(1) and per-extension counts", ok)


def test_criterion_9_sextet_orientation_falsifiable(acceptance_catalog):
    """The sextet orientation is pinned per matching, never in aggregate.

    The mirrored pattern (left vertical, NE, SE) is the other Kekule
    configuration of the same hexagon as the proper pattern (right
    vertical, NW, SW). For any set S of vertex-disjoint hexagons,
    swapping the three double bonds of every ring in S maps the
    structures in which all of S is proper onto those in which all of S
    is mirrored, so both number #PM(G - S). By inclusion-exclusion the
    two orientations give the same distribution of exact sextet sets on
    every strip; the strip's left-right reflection leads to the same
    conclusion. No statistic of the unlabelled matchings can tell the
    orientations apart, so this criterion asserts two things:

    (a) the mirrored sextet histogram reproduces the ZZ polynomial on
        every strip (a pattern that is not a Kekule configuration of the
        ring, such as left vertical, NW, SW, breaks this);
    (b) on some strip, some matching has a mirrored sextet count that
        differs from |A| of its (A, mu) under the bijection, so an
        orientation bug is still caught.
    """
    aggregate_blind = True
    per_matching_detected = False
    for spec in acceptance_catalog:
        graph = build_graph(spec)
        matchings = enumerate_perfect_matchings(graph)
        if zz_from_matchings(graph, matchings, mirrored=True) != zz_polynomial(spec):
            aggregate_blind = False
            break
        if not per_matching_detected:
            poset = build_poset(spec)
            per_matching_detected = any(
                count_proper_sextets(graph, matching, mirrored=True)
                != map_from_kekule(spec, extract_ki(graph, matching), poset=poset).size
                for matching in matchings
            )
    _report(
        9,
        "mirrored sextets keep every aggregate ZZ but miss |A| on some matching",
        aggregate_blind and per_matching_detected,
    )


def test_criterion_9_companion_per_matching_detection(acceptance_catalog):
    """The working pin on the sextet orientation: per matching, the
    proper-sextet count must equal the size of the deconstructed domain.
    That the mirrored pattern breaks this on some strip is criterion 9
    (b), so the catalog is not scanned for it a second time."""
    ok = True
    for spec in acceptance_catalog:
        graph = build_graph(spec)
        poset = build_poset(spec)
        ok = all(
            count_proper_sextets(graph, matching)
            == map_from_kekule(spec, extract_ki(graph, matching), poset=poset).size
            for matching in enumerate_perfect_matchings(graph)
        )
        if not ok:
            break
    _report(9, "per-matching sextet counts match the bijection", ok)
