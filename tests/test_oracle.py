import sys

import pytest

from zzstrips import (
    StripSpec,
    build_graph,
    build_poset,
    count_clar_covers,
    count_proper_sextets,
    count_sextet_matchings,
    enumerate_clar_covers,
    enumerate_kekule,
    enumerate_perfect_matchings,
    extract_ki,
    iter_clar_covers,
    map_from_kekule,
    zz_from_covers,
    zz_from_matchings,
    parse_strip,
    validate,
    zz_polynomial,
)
from zzstrips.strip_geometry import catalog_shapes


PARA = StripSpec(tuple("WRN"), 2)
BENZENE = StripSpec(tuple("WN"), 1)


class TestMatchings:
    def test_benzene(self):
        assert len(enumerate_perfect_matchings(build_graph(BENZENE))) == 2

    def test_parallelogram(self):
        assert len(enumerate_perfect_matchings(build_graph(PARA))) == 6

    def test_non_kekulean(self):
        graph = build_graph(StripSpec(tuple("WNNWWN"), 4))
        assert enumerate_perfect_matchings(graph) == []

    def test_matchings_are_perfect(self, small_catalog):
        for spec in small_catalog[:10]:
            graph = build_graph(spec)
            for matching in enumerate_perfect_matchings(graph):
                covered = [v for e in matching for v in e]
                assert sorted(covered) == list(range(graph.num_vertices))

    def test_deterministic(self):
        graph = build_graph(PARA)
        assert enumerate_perfect_matchings(graph) == enumerate_perfect_matchings(graph)


class TestProperSextets:
    def test_benzene_split(self):
        graph = build_graph(BENZENE)
        counts = sorted(
            count_proper_sextets(graph, m)
            for m in enumerate_perfect_matchings(graph)
        )
        assert counts == [0, 1]

    def test_parallelogram_histogram(self):
        graph = build_graph(PARA)
        counts = [
            count_proper_sextets(graph, m)
            for m in enumerate_perfect_matchings(graph)
        ]
        histogram = [counts.count(k) for k in range(3)]
        assert histogram == [1, 4, 1]

    def test_sextet_count_equals_domain_size(self, small_catalog):
        # the proper sextets of a matching are exactly the DIBs selected
        # by the bijection's deconstruction
        for spec in small_catalog:
            graph = build_graph(spec)
            poset = build_poset(spec)
            for matching in enumerate_perfect_matchings(graph):
                om = map_from_kekule(spec, extract_ki(graph, matching), poset=poset)
                assert count_proper_sextets(graph, matching) == om.size


class TestClarCovers:
    def test_parallelogram_13(self):
        covers = enumerate_clar_covers(build_graph(PARA))
        assert len(covers) == 13
        histogram = [sum(1 for c in covers if c.order == k) for k in range(3)]
        assert histogram == [6, 6, 1]

    def test_benzene_3(self):
        assert len(enumerate_clar_covers(build_graph(BENZENE))) == 3

    def test_non_kekulean_none(self):
        graph = build_graph(StripSpec(tuple("WNNWWN"), 4))
        assert enumerate_clar_covers(graph) == []

    def test_aromatic_hexagons_vertex_disjoint(self):
        graph = build_graph(StripSpec(tuple("WWRNN"), 2))
        for cover in enumerate_clar_covers(graph):
            seen: set[int] = set()
            for i in cover.hexagons:
                vertices = set(graph.hexagons[i].vertices)
                assert not (vertices & seen)
                seen |= vertices
            matched = [v for e in cover.matching for v in e]
            assert sorted(matched) == sorted(set(range(graph.num_vertices)) - seen)


class TestZzRoutes:
    def test_parallelogram_both_routes(self):
        graph = build_graph(PARA)
        assert zz_from_covers(enumerate_clar_covers(graph)).coeffs == (6, 6, 1)
        assert zz_from_matchings(graph).coeffs == (6, 6, 1)

    def test_no_matchings_give_zero(self):
        assert zz_from_matchings(build_graph(PARA), []).is_zero

    def test_triple_agreement(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            zz = zz_polynomial(spec)
            assert zz_from_covers(enumerate_clar_covers(graph)) == zz
            assert zz_from_matchings(graph) == zz

    def test_mirrored_orientation_detectable_per_matching(self, small_catalog):
        # left-right reflection is a graph isomorphism, so the two sextet
        # orientations can never disagree in aggregate; the real pin on
        # the orientation is per matching, against the bijection's domain
        found_mismatch = False
        for spec in small_catalog:
            graph = build_graph(spec)
            poset = build_poset(spec)
            for matching in enumerate_perfect_matchings(graph):
                om = map_from_kekule(spec, extract_ki(graph, matching), poset=poset)
                mirrored = count_proper_sextets(graph, matching, mirrored=True)
                if mirrored != om.size:
                    found_mismatch = True
        assert found_mismatch

    def test_mirrored_orientation_invisible_in_aggregate(self, small_catalog):
        # documents why the aggregate route cannot catch orientation bugs
        for spec in small_catalog:
            graph = build_graph(spec)
            assert zz_from_matchings(graph, mirrored=True) == zz_polynomial(spec)


class TestCountClarCovers:
    def test_equals_enumeration_on_catalog(self, catalog):
        for spec in catalog:
            graph = build_graph(spec)
            assert count_clar_covers(graph) == zz_from_covers(enumerate_clar_covers(graph))

    @pytest.mark.parametrize("text", ["WWWRRRNNN 3", "WWWWRNNNN 3"])
    def test_equals_poset_route_past_the_guard(self, text):
        spec = parse_strip(text)
        graph = build_graph(spec)
        assert graph.num_vertices > 60
        assert count_clar_covers(graph) == zz_polynomial(spec)

    def test_deeper_than_the_recursion_limit(self):
        # one DP layer per vertex, none of them a Python frame
        spec = parse_strip("WRN 200")
        graph = build_graph(spec)
        assert graph.num_vertices > sys.getrecursionlimit()
        assert count_clar_covers(graph) == zz_polynomial(spec)

    def test_non_kekulean_zero(self):
        graph = build_graph(StripSpec(tuple("WNNWWN"), 4))
        assert count_clar_covers(graph).is_zero


class TestCountSextetMatchings:
    def test_equals_enumeration_on_small_catalog(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            for mirrored in (False, True):
                assert count_sextet_matchings(graph, mirrored=mirrored) == zz_from_matchings(
                    graph, mirrored=mirrored
                ), (spec, mirrored)

    def test_three_routes_agree_up_to_seven_tiers(self):
        # the 353 families with m <= 7, each at its first four valid n:
        # 1,412 strips, 637 of them past the enumeration's 60 vertices
        for shapes in catalog_shapes(7):
            lengths = [n for n in range(1, 8) if validate(StripSpec(shapes, n)).is_valid][:4]
            assert len(lengths) == 4, shapes
            for n in lengths:
                spec = StripSpec(shapes, n)
                graph = build_graph(spec)
                zz = zz_polynomial(spec)
                assert count_sextet_matchings(graph) == zz, spec
                assert count_clar_covers(graph) == zz, spec

    def test_long_rows(self):
        # a row of 200 hexagons: bits of broken patterns must leave the
        # key at once, or the states grow with the square of the row
        spec = parse_strip("WRN 200")
        assert count_sextet_matchings(build_graph(spec)) == zz_polynomial(spec)

    def test_non_kekulean_zero(self):
        graph = build_graph(StripSpec(tuple("WNNWWN"), 4))
        assert count_sextet_matchings(graph).is_zero


class TestExtractKi:
    def test_parallelogram_injective(self):
        graph = build_graph(PARA)
        kis = [
            extract_ki(graph, m).interface_bond_set()
            for m in enumerate_perfect_matchings(graph)
        ]
        assert len(set(kis)) == 6

    def test_injective_on_catalog(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            matchings = enumerate_perfect_matchings(graph)
            kis = {extract_ki(graph, m).interface_bond_set() for m in matchings}
            assert len(kis) == len(matchings)

    def test_rejects_matching_short_of_the_orders(self):
        with pytest.raises(ValueError, match="interface 1 holds 0 double bonds"):
            extract_ki(build_graph(PARA), frozenset())

    def test_counts_per_interface_match_orders(self):
        spec = StripSpec(tuple("WWRNN"), 3)
        graph = build_graph(spec)
        for matching in enumerate_perfect_matchings(graph):
            ka = extract_ki(graph, matching)
            per_interface = {}
            for e in ka.elements:
                per_interface[e.k] = per_interface.get(e.k, 0) + 1
            assert per_interface == {1: 1, 2: 2, 3: 2, 4: 1}


class TestSecondRule:
    def test_double_bonds_alternate_in_fragments(self, small_catalog):
        # within every fragment the double interface bonds alternate
        # between the two interfaces, starting and ending on the side
        # that holds the fragment's first and last interface bonds
        for spec in small_catalog[:12]:
            graph = build_graph(spec)
            m_count = graph.profile.m
            for matching in enumerate_perfect_matchings(graph):
                for kappa in range(1, m_count + 2):
                    upper = graph.interface_bonds[kappa - 2] if kappa >= 2 else ()
                    lower = graph.interface_bonds[kappa - 1] if kappa <= m_count else ()
                    bonds = [(graph.coords[e[0]][0], "u", e) for e in upper]
                    bonds += [(graph.coords[e[0]][0], "l", e) for e in lower]
                    bonds.sort()
                    doubles = [(x, side) for x, side, e in bonds if e in matching]
                    if not doubles:
                        continue
                    assert doubles[0][1] == bonds[0][1]
                    assert doubles[-1][1] == bonds[-1][1]
                    for (_, s1), (_, s2) in zip(doubles, doubles[1:]):
                        assert s1 != s2


def _reference_matchings(graph):
    # branch on the lowest uncovered vertex, neighbours in adjacency order
    found = []

    def branch(covered, chosen):
        free = [v for v in range(graph.num_vertices) if v not in covered]
        if not free:
            found.append(frozenset(chosen))
            return
        v = free[0]
        for u in graph.adjacency[v]:
            if u not in covered:
                branch(covered | {v, u}, chosen + [(min(u, v), max(u, v))])

    branch(frozenset(), [])
    return found


class TestStreamingOracle:
    def test_matchings_follow_reference_order(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            assert enumerate_perfect_matchings(graph) == _reference_matchings(graph)

    def test_stream_equals_list(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            assert list(iter_clar_covers(graph)) == enumerate_clar_covers(graph)

    def test_zz_from_generator_equals_list(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            covers = enumerate_clar_covers(graph)
            assert zz_from_covers(c for c in covers) == zz_from_covers(covers)
        assert zz_from_covers(iter(())).is_zero
