import random
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zzstrips import (
    Dib,
    DibPoset,
    OrderMap,
    StripSpec,
    build_graph,
    build_poset,
    enumerate_kekule,
    enumerate_perfect_matchings,
    extract_ki,
    generate_clar_covers,
    kekule_from_map,
    map_from_kekule,
    natural_labeling,
    zz_polynomial,
)
from zzstrips.kekule_bijection import CELLS_HELD, CellTable, KekuleAssignment, kekule_walk

from reference import binom, brute_force_strict_maps, descent_stats, linear_extensions


PARA = StripSpec(tuple("WRN"), 2)

# m = 4 and 5 strips at n = 1, 2, where most subsets are taller than n
# and so are no A of any structure
PRUNED = [StripSpec(tuple(shapes), n) for shapes in ("WWRNN", "WWRRNN", "WWWNNN") for n in (1, 2)]


class TestKekuleFromMap:
    def test_empty_domain_pins_leftmost(self):
        ka = kekule_from_map(PARA, OrderMap((), ()))
        assert ka.positions == (1, 1)

    def test_full_domain(self):
        om = OrderMap((Dib(1, 1), Dib(2, 1)), (1, 2))
        ka = kekule_from_map(PARA, om)
        assert ka.positions == (2, 3)

    def test_partial_domain_spreads_zero(self):
        om = OrderMap((Dib(2, 1),), (1,))
        ka = kekule_from_map(PARA, om)
        assert ka.pos_of(Dib(1, 1)) == 1
        assert ka.pos_of(Dib(2, 1)) == 2

    def test_spread_takes_max_below(self):
        # flake poset: s(2,2) sits above s(1,1), s(2,1), s(3,1)
        spec = StripSpec(tuple("WWRNN"), 3)
        om = OrderMap((Dib(1, 1), Dib(3, 1)), (1, 3))
        ka = kekule_from_map(spec, om)
        assert ka.pos_of(Dib(2, 2)) == 3 + 2  # max mu below + j

    def test_rejects_non_strict_map(self):
        om = OrderMap((Dib(1, 1), Dib(2, 1)), (2, 2))
        with pytest.raises(ValueError):
            kekule_from_map(PARA, om)

    def test_strictness_holds_on_a_pair_that_is_no_cover(self):
        # flake poset: s(2,1) < s(1,1) < s(2,2), and s(2,1) < s(2,2) is
        # not a cover
        spec = StripSpec(tuple("WWRNN"), 3)
        poset = build_poset(spec)
        low, high = Dib(2, 1), Dib(2, 2)
        assert poset.less(low, high) and (low, high) not in poset.covers
        with pytest.raises(ValueError, match=r"s\(2,1\) < s\(2,2\) but 2 >= 2"):
            kekule_from_map(spec, OrderMap((low, high), (2, 2)), poset=poset)
        ka = kekule_from_map(spec, OrderMap((low, high), (1, 2)), poset=poset)
        assert map_from_kekule(spec, ka, poset=poset) == OrderMap((low, high), (1, 2))

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            kekule_from_map(PARA, OrderMap((Dib(1, 1),), (3,)))

    def test_rejects_foreign_dib(self):
        # WRN has interfaces 1 and 2 only
        with pytest.raises(ValueError, match="not a DIB of this strip"):
            kekule_from_map(PARA, OrderMap((Dib(3, 1),), (1,)))


class TestOrderMapChecks:
    def test_misaligned_values_rejected(self):
        with pytest.raises(ValueError, match="align"):
            OrderMap((Dib(1, 1), Dib(2, 1)), (1,))

    def test_out_of_order_elements_rejected(self):
        with pytest.raises(ValueError, match="canonical"):
            OrderMap((Dib(2, 1), Dib(1, 1)), (1, 2))

    def test_repeated_element_rejected(self):
        # no subset A holds an element twice; kekule_from_map would
        # otherwise give a structure with two bonds at one position
        with pytest.raises(ValueError, match="distinct"):
            OrderMap((Dib(1, 1), Dib(1, 1)), (1, 2))

    @pytest.mark.parametrize("elements, values, message", [
        ((Dib(1, 1), Dib(2, 1)), (1,), "align"),
        ((Dib(2, 1), Dib(1, 1)), (1, 2), "canonical"),
        ((Dib(1, 1), Dib(1, 1)), (1, 2), "distinct"),
    ])
    def test_keyword_construction_checks(self, elements, values, message):
        with pytest.raises(ValueError, match=message):
            OrderMap(elements=elements, values=values)

    def test_enumerated_maps_equal_checked_ones(self, small_catalog):
        # enumerate_kekule reads its maps off the walk's masks and
        # offsets; they must be the maps the checked constructor gives
        for spec in small_catalog:
            for om, _ in enumerate_kekule(spec):
                checked = OrderMap(om.elements, om.values)
                assert om == checked and hash(om) == hash(checked)


class TestMapFromKekule:
    def test_all_leftmost_gives_empty_domain(self):
        poset = build_poset(PARA)
        ka = KekuleAssignment(poset.elements, (1, 1))
        om = map_from_kekule(PARA, ka)
        assert om.elements == ()

    def test_equal_offsets_exclude_upper(self):
        poset = build_poset(PARA)
        ka = KekuleAssignment(poset.elements, (2, 2))
        om = map_from_kekule(PARA, ka)
        assert om.elements == (Dib(1, 1),)
        assert om.values == (1,)

    def test_rejects_alternation_violation(self):
        poset = build_poset(PARA)
        # offsets 1 then 0 decrease along the cover s(1,1) < s(2,1)
        ka = KekuleAssignment(poset.elements, (2, 1))
        with pytest.raises(ValueError):
            map_from_kekule(PARA, ka)

    @pytest.mark.parametrize("positions", [(), (1,), (1, 1, 1)])
    def test_rejects_positions_not_aligned_with_dibs(self, positions):
        poset = build_poset(PARA)
        ka = KekuleAssignment(poset.elements, positions)
        with pytest.raises(ValueError, match=f"{len(positions)} positions .* 2 DIBs"):
            map_from_kekule(PARA, ka, poset=poset)

    def test_rejects_assignment_over_other_dibs(self):
        ka = KekuleAssignment((Dib(1, 1), Dib(3, 1)), (1, 1))
        with pytest.raises(ValueError, match="does not cover the DIBs"):
            map_from_kekule(PARA, ka)

    def test_rejects_position_out_of_interface(self):
        poset = build_poset(PARA)
        ka = KekuleAssignment(poset.elements, (4, 1))
        with pytest.raises(ValueError):
            map_from_kekule(PARA, ka)


class TestDirectionsMatchDefinitions:
    """Both directions against their pairwise definitions, read through
    poset.less, on seeded random inputs. A range error takes precedence
    over an order error, and an order error names a violating pair."""

    TRIALS = 300

    def test_kekule_from_map(self, small_catalog):
        rng = random.Random(30)
        for spec in small_catalog:
            poset, n = build_poset(spec), spec.n
            for _ in range(self.TRIALS):
                members = tuple(e for e in poset.elements if rng.random() < 0.5)
                mu = {e: rng.randint(0, n + 1) for e in members}
                om = OrderMap(members, tuple(mu.values()))
                violations = {
                    f"{a} < {b} but {mu[a]} >= {mu[b]}"
                    for a in members
                    for b in members
                    if poset.less(a, b) and mu[a] >= mu[b]
                }
                if any(not 1 <= v <= n for v in mu.values()):
                    with pytest.raises(ValueError, match=f"outside 1..{n}"):
                        kekule_from_map(spec, om, poset=poset)
                elif violations:
                    with pytest.raises(ValueError, match="not strictly order-preserving") as err:
                        kekule_from_map(spec, om, poset=poset)
                    assert str(err.value).split(": ")[1] in violations
                else:
                    expected = tuple(
                        s.j + max((v for a, v in mu.items() if a == s or poset.less(a, s)), default=0)
                        for s in poset.elements
                    )
                    assert kekule_from_map(spec, om, poset=poset).positions == expected

    def test_map_from_kekule(self, small_catalog):
        rng = random.Random(31)
        for spec in small_catalog:
            poset, n = build_poset(spec), spec.n
            elements = poset.elements
            for _ in range(self.TRIALS):
                # a random order-preserving map, then at times one offset
                # moved by one, which may break the order or the range
                offset: dict[Dib, int] = {}
                for s in sorted(elements, key=lambda s: len(poset.below(s))):
                    offset[s] = max([rng.randint(0, n), *(offset[a] for a in poset.below(s))])
                if rng.random() < 0.5:
                    s = rng.choice(elements)
                    offset[s] += rng.choice((-1, 1))
                ka = KekuleAssignment(elements, tuple(offset[s] + s.j for s in elements))
                violations = {
                    f"{a} < {b} but offsets {offset[a]} > {offset[b]}"
                    for a in elements
                    for b in elements
                    if poset.less(a, b) and offset[a] > offset[b]
                }
                if any(not 0 <= v <= n for v in offset.values()):
                    with pytest.raises(ValueError, match=f"outside 0..{n}"):
                        map_from_kekule(spec, ka, poset=poset)
                elif violations:
                    with pytest.raises(ValueError, match="violate alternation") as err:
                        map_from_kekule(spec, ka, poset=poset)
                    assert str(err.value).split(": ")[1] in violations
                else:
                    # members take values in 1..n, so an offset of 0 never selects
                    chosen = tuple(
                        s
                        for s in elements
                        if all(offset[s] > offset[a] for a in elements if poset.less(a, s))
                        and offset[s] > 0
                    )
                    expected = OrderMap(chosen, tuple(offset[s] for s in chosen))
                    assert map_from_kekule(spec, ka, poset=poset) == expected


class TestEnumeration:
    @pytest.mark.parametrize(
        "shapes,n,count",
        [("WRN", 2, 6), ("WN", 3, 4), ("WN", 1, 2)],
    )
    def test_counts(self, shapes, n, count):
        spec = StripSpec(tuple(shapes), n)
        assert sum(1 for _ in enumerate_kekule(spec)) == count

    def test_flake_count_matches_formula(self):
        spec = StripSpec(tuple("WWRNN"), 3)
        expected = sum(
            binom(6, k) * binom(3, k)
            + 3 * binom(4, k - 2) * binom(4, k)
            + binom(2, k - 4) * binom(5, k)
            for k in range(7)
        )
        assert sum(1 for _ in enumerate_kekule(spec)) == expected

    def test_count_equals_zz_at_zero(self, small_catalog):
        for spec in small_catalog:
            count = sum(1 for _ in enumerate_kekule(spec))
            assert count == zz_polynomial(spec).evaluate(0)

    def test_structures_distinct(self, small_catalog):
        for spec in small_catalog:
            seen = [ka.interface_bond_set() for _, ka in enumerate_kekule(spec)]
            assert len(seen) == len(set(seen))

    def test_round_trip_map_side(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            for om, ka in enumerate_kekule(spec):
                assert map_from_kekule(spec, ka, poset=poset) == om

    def test_offsets_order_preserving_into_0n(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            for _, ka in enumerate_kekule(spec):
                offsets = {e: p - e.j for e, p in zip(ka.elements, ka.positions)}
                assert all(0 <= v <= spec.n for v in offsets.values())
                for a, b in poset.covers:
                    assert offsets[a] <= offsets[b]

    def test_positions_increase_within_interface(self, small_catalog):
        for spec in small_catalog:
            for _, ka in enumerate_kekule(spec):
                per_interface: dict[int, list[tuple[int, int]]] = {}
                for e, p in zip(ka.elements, ka.positions):
                    per_interface.setdefault(e.k, []).append((e.j, p))
                for pairs in per_interface.values():
                    pairs.sort()
                    positions = [p for _, p in pairs]
                    assert positions == sorted(set(positions))


class TestOracleAgreement:
    def test_ki_sets_match_oracle(self, small_catalog):
        for spec in small_catalog:
            graph = build_graph(spec)
            oracle_side = {
                extract_ki(graph, m).interface_bond_set()
                for m in enumerate_perfect_matchings(graph)
            }
            poset_side = {
                ka.interface_bond_set() for _, ka in enumerate_kekule(spec)
            }
            assert oracle_side == poset_side

    def test_round_trip_kekule_side(self):
        spec = StripSpec(tuple("WWRNN"), 2)
        graph = build_graph(spec)
        poset = build_poset(spec)
        for matching in enumerate_perfect_matchings(graph):
            ka = extract_ki(graph, matching)
            om = map_from_kekule(spec, ka, poset=poset)
            assert kekule_from_map(spec, om, poset=poset) == ka

    def test_fig2_structure_present(self):
        # the two-sextet Kekule structure of the 2x2 parallelogram uses
        # interface bonds (1,2) and (2,3)
        graph = build_graph(PARA)
        kis = {
            extract_ki(graph, m).interface_bond_set()
            for m in enumerate_perfect_matchings(graph)
        }
        assert frozenset({(1, 2), (2, 3)}) in kis


class TestClarCovers:
    def test_parallelogram_13_covers(self):
        records = list(generate_clar_covers(PARA))
        assert len(records) == 13
        histogram = [0, 0, 0]
        for rec in records:
            histogram[rec.order] += 1
        assert histogram == [6, 6, 1]

    def test_benzene_three_covers(self):
        records = list(generate_clar_covers(StripSpec(tuple("WN"), 1)))
        assert len(records) == 3
        assert sorted(r.order for r in records) == [0, 0, 1]

    def test_order_zero_records_are_the_kekule_structures(self, small_catalog):
        for spec in small_catalog:
            kekule = [ka for _, ka in enumerate_kekule(spec)]
            zero_order = [r.base for r in generate_clar_covers(spec) if r.order == 0]
            assert zero_order == kekule

    def test_stream_length_is_zz_at_one(self, small_catalog):
        for spec in small_catalog:
            total = sum(1 for _ in generate_clar_covers(spec))
            assert total == zz_polynomial(spec).evaluate(1)

    def test_aromatic_subset_of_domain(self):
        spec = StripSpec(tuple("WWRNN"), 2)
        poset = build_poset(spec)
        for rec in generate_clar_covers(spec):
            om = map_from_kekule(spec, rec.base, poset=poset)
            assert set(rec.aromatic) <= set(om.elements)

    def test_per_extension_counts(self, small_catalog):
        # each extension v of each subposet A accounts for
        # 2^|A| * C(n + des(v), |A|) covers
        for spec in small_catalog[:14]:
            poset = build_poset(spec)
            per_pair: dict[tuple, int] = {}
            for rec in generate_clar_covers(spec):
                om = map_from_kekule(spec, rec.base, poset=poset)
                sub = poset.subposet(om.elements)
                lab = natural_labeling(sub)
                # attribute mu to the extension that sorts by value,
                # ties broken by decreasing label
                ranked = sorted(
                    om.elements,
                    key=lambda e: (om.value_of(e), -lab.label_of(e)),
                )
                word = tuple(lab.label_of(e) for e in ranked)
                key = (om.elements, word)
                per_pair[key] = per_pair.get(key, 0) + 1
            for (members, word), count in per_pair.items():
                size = len(members)
                _, des = descent_stats(word)
                assert count == (1 << size) * binom(spec.n + des, size)
            # and every pair's word really is an extension of its subposet
            for members, word in per_pair:
                sub = poset.subposet(members)
                assert word in linear_extensions(sub, natural_labeling(sub))


class TestEnumerationOrder:
    def test_parallelogram_order_pinned(self):
        s11, s21 = Dib(1, 1), Dib(2, 1)
        # s(1,1) carries label 1 and s(2,1) label 2, so the offset
        # vectors run (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
        pairs = [(om.elements, om.values) for om, _ in enumerate_kekule(PARA)]
        assert pairs == [
            ((), ()),
            ((s21,), (1,)),
            ((s21,), (2,)),
            ((s11,), (1,)),
            ((s11, s21), (1, 2)),
            ((s11,), (2,)),
        ]

    def test_masks_ascend_and_values_follow_brute_force(self, small_catalog):
        # the independent brute-force (A, mu) list, sorted by the offset
        # vector read in natural-label order
        for spec in [*small_catalog, *PRUNED]:
            poset = build_poset(spec)
            got = [(om.elements, om.values, ka.positions) for om, ka in enumerate_kekule(spec)]
            assert got == _walk_order(poset, _brute_force_groups(poset, spec.n)), spec

    @pytest.mark.parametrize("spec", PRUNED, ids=str)
    def test_subsets_are_those_no_taller_than_n(self, spec):
        # a strictly order-preserving map into [n] exists exactly when
        # the longest chain has at most n elements
        poset = build_poset(spec)
        height = _heights(poset)
        short = {
            tuple(e for i, e in enumerate(poset.elements) if mask >> i & 1)
            for mask in range(1 << poset.p)
            if height[mask] <= spec.n
        }
        assert {om.elements for om, _ in enumerate_kekule(spec)} == short
        assert len(short) < 1 << poset.p

    def test_assignment_is_spread_of_map(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            for om, ka in enumerate_kekule(spec):
                assert ka == kekule_from_map(spec, om, poset=poset)


def _offset_renders(poset):
    """Renders whose walk rows hold the offsets and then the positions:
    DIB i's cell at offset v is (v, v + j), in A or not."""
    return [(lambda v, j=e.j: (v, v + j),) * 2 for e in poset.elements]


def _walk_triples(poset, n):
    """Copies of the walk's yields as (A, mu, positions) triples."""
    elements, p = poset.elements, poset.p
    triples = []
    for mask, values in kekule_walk(poset, n, _offset_renders(poset)):
        idx = [i for i in range(p) if mask >> i & 1]
        triples.append(
            (tuple(elements[i] for i in idx), tuple(values[i] for i in idx), tuple(values[p:]))
        )
    return triples


def _walk_order(poset, triples):
    """(A, mu, positions) triples sorted by their offsets pos - j, read
    in natural-label order."""
    index = {e: i for i, e in enumerate(poset.elements)}
    labels = [index[e] for e in natural_labeling(poset).elements_by_label]
    js = [e.j for e in poset.elements]
    return sorted(triples, key=lambda t: [t[2][i] - js[i] for i in labels])


class TestKekuleWalk:
    def test_copied_yields_equal_enumeration(self, small_catalog):
        for spec in small_catalog:
            expected = [(om.elements, om.values, ka.positions) for om, ka in enumerate_kekule(spec)]
            assert _walk_triples(build_poset(spec), spec.n) == expected, spec

    def test_offset_vectors_strictly_ascend(self, small_catalog):
        # in natural-label order, so each structure comes exactly once
        for spec in small_catalog:
            poset = build_poset(spec)
            index = {e: i for i, e in enumerate(poset.elements)}
            labels = [index[e] for e in natural_labeling(poset).elements_by_label]
            walk = kekule_walk(poset, spec.n, _offset_renders(poset))
            vectors = [[values[i] for i in labels] for _, values in walk]
            assert all(a < b for a, b in zip(vectors, vectors[1:])), spec

    def test_kept_copies_stay_valid(self, small_catalog):
        # every yield copied first, checked after the walk has ended: each
        # copy's mask and offsets are the (A, mu) of its positions
        for spec in small_catalog:
            poset = build_poset(spec)
            p, elements = poset.p, poset.elements
            walk = kekule_walk(poset, spec.n, _offset_renders(poset))
            kept = [(mask, values.copy()) for mask, values in walk]
            for mask, values in kept:
                ka = KekuleAssignment(elements, tuple(values[p:]))
                om = map_from_kekule(spec, ka, poset=poset)
                idx = [i for i in range(p) if mask >> i & 1]
                assert om == OrderMap(tuple(elements[i] for i in idx), tuple(values[i] for i in idx))
                assert values[:p] == [pos - e.j for e, pos in zip(elements, ka.positions)]


# The brute force below tries n^|A| values on every subset A, (n + 1)^p
# in all; n stops where that would pass this many.
BRUTE_FORCE_ASSIGNMENTS = 20_000


@st.composite
def posets_and_lengths(draw):
    """A random poset on p <= 8 DIBs with a length n in 0..p+1, cut to
    the brute force's budget. The edges follow a random topological
    order, so they run both ways against the canonical (k, j) order."""
    p = draw(st.integers(0, 8))
    topo = draw(st.permutations(range(p)))
    pairs = [(topo[a], topo[b]) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    elements = [Dib(t % 3 + 1, t // 3 + 1) for t in range(p)]
    poset = DibPoset(elements, [(elements[a], elements[b]) for a, b in edges])
    top = max(n for n in range(p + 2) if (n + 1) ** p <= BRUTE_FORCE_ASSIGNMENTS)
    return poset, draw(st.integers(0, top))


def _brute_force_groups(poset, n):
    """Every (A, mu, positions) triple: every mask in ascending order,
    the brute-force strict maps of its induced subposet in lexicographic
    order, and each DIB at j plus the largest value of A at or below it."""
    elements = poset.elements
    triples = []
    for mask in range(1 << poset.p):
        members = tuple(e for i, e in enumerate(elements) if mask >> i & 1)
        maps = brute_force_strict_maps(poset.subposet(members), n)
        for values in sorted(tuple(m[e] for e in members) for m in maps):
            mu = dict(zip(members, values))
            positions = tuple(
                e.j + max((v for a, v in mu.items() if a == e or poset.less(a, e)), default=0)
                for e in elements
            )
            triples.append((members, values, positions))
    return triples


# an antichain, where no bound binds; and s(2,1) above the incomparable
# s(1,1) and s(1,2), which are its two maximal members of A below it
# whenever A holds both and not s(2,1)
ANTICHAIN = DibPoset([Dib(1, 1), Dib(1, 2), Dib(2, 1), Dib(3, 1)], [])
TWO_TOPS = DibPoset(
    [Dib(1, 1), Dib(1, 2), Dib(2, 1), Dib(2, 2)],
    [(Dib(1, 1), Dib(2, 1)), (Dib(1, 2), Dib(2, 1)), (Dib(2, 1), Dib(2, 2))],
)


class TestKekuleWalkBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(posets_and_lengths())
    @example((ANTICHAIN, 2))
    @example((TWO_TOPS, 2))
    @example((TWO_TOPS, 3))
    def test_walk_equals_brute_force(self, case):
        poset, n = case
        assert _walk_triples(poset, n) == _walk_order(poset, _brute_force_groups(poset, n))
        # cells tagged by membership: every row's tags are its mask's bits,
        # and its values the offsets of the walk with int cells
        p = poset.p
        tagged = [(lambda v: ("out", v), lambda v: ("in", v))] * p
        rows = [(mask, row.copy()) for mask, row in kekule_walk(poset, n, tagged)]
        walk = kekule_walk(poset, n, _offset_renders(poset))
        ints = [(mask, values.copy()) for mask, values in walk]
        assert [mask for mask, _ in rows] == [mask for mask, _ in ints]
        for (mask, row), (_, values) in zip(rows, ints):
            assert row[:p] == ["in" if mask >> i & 1 else "out" for i in range(p)]
            assert row[p:] == values[:p]


class TestCellTables:
    # at p = 1 the walk runs the DIB's 5,001 offsets of WN 5000 in turn,
    # so a table that never cleared would hold every one of them
    def test_table_keeps_within_bound(self):
        rendered = []

        def render(v):
            rendered.append(v)
            return v, v + 1

        table = CellTable(render, 5000)
        for v in range(5001):
            assert table[v] == (v, v + 1)
            assert len(table) <= CELLS_HELD
        assert rendered == list(range(5001))

    def test_walk_rows_on_long_strip(self):
        spec = StripSpec(tuple("WN"), 5000)
        poset = build_poset(spec)
        walk = kekule_walk(poset, spec.n, _offset_renders(poset))
        rows = [values.copy() for _, values in walk]
        assert rows == [[v, v + 1] for v in range(spec.n + 1)]


class TestClarRecordOrderMap:
    def test_order_map_equals_reverse_map(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            for rec in generate_clar_covers(spec):
                assert rec.order_map == map_from_kekule(spec, rec.base, poset=poset)


def _heights(poset):
    """Longest-chain size of every subset, indexed by bitmask, counted
    by brute force."""
    p, below = poset.p, poset.below_masks
    heights = []
    for mask in range(1 << p):
        # longest chain ending at each member, members taken in an order
        # that lists every element after those below it
        members = sorted(
            (i for i in range(p) if mask >> i & 1),
            key=lambda i: bin(below[i]).count("1"),
        )
        ending: dict[int, int] = {}
        for i in members:
            ending[i] = 1 + max((ending[t] for t in ending if below[i] >> t & 1), default=0)
        heights.append(max(ending.values(), default=0))
    return heights


class TestShortSubsets:
    # at n = 1 every A is an antichain, a sliver of the 2^p subsets
    @pytest.mark.parametrize("shapes,count", [("WWWWWNNNNN", 252), ("WWWWWWWNNNNNNN", 3432)])
    def test_large_flakes_at_n_1(self, shapes, count):
        # p = 25 and p = 49, with 2^p subsets to the ZZ(0) structures
        # that zz_polynomial counts (about 2 s at p = 49, so not here)
        structures = {ka for _, ka in enumerate_kekule(StripSpec(tuple(shapes), 1))}
        assert len(structures) == count


# generate_clar_covers doubles out A's first BLOCK_BITS members; at 2
# the structures of WWRNN 3, with |A| from 0 to 5, give every case
PATCHED_BITS = 2


class TestClarCoverOrder:
    @pytest.mark.parametrize("size", [0, 1, 3, PATCHED_BITS, PATCHED_BITS + 3])
    def test_aromatic_sets_in_ascending_mask_order(self, monkeypatch, size):
        monkeypatch.setattr("zzstrips.kekule_bijection.BLOCK_BITS", PATCHED_BITS)
        structures = 0
        for om, records in groupby(generate_clar_covers(StripSpec(tuple("WWRNN"), 3)),
                                   key=lambda r: r.order_map):
            if om.size == size:
                structures += 1
                assert [r.aromatic for r in records] == [
                    tuple(om.elements[i] for i in range(size) if mask >> i & 1)
                    for mask in range(1 << size)
                ]
        assert structures

    def test_clar_records_follow_enumeration(self):
        spec = StripSpec(tuple("WWRNN"), 3)
        records = list(generate_clar_covers(spec))
        expected = [
            (ka, tuple(om.elements[i] for i in range(om.size) if mask >> i & 1))
            for om, ka in enumerate_kekule(spec)
            for mask in range(1 << om.size)
        ]
        assert [(r.base, r.aromatic) for r in records] == expected
