import pytest

from zzstrips import (
    Dib,
    OrderMap,
    StripSpec,
    binom,
    brute_force_strict_maps,
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
from zzstrips.extension_engine import descent_stats, linear_extensions
from zzstrips.kekule_bijection import (
    BLOCK_BITS,
    KekuleAssignment,
    _chain_heights,
    subset_blocks,
)


PARA = StripSpec(tuple("WRN"), 2)

# m = 4 and 5 strips at n = 1, 2, where most subsets are taller than n
# and the height table skips them
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

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            kekule_from_map(PARA, OrderMap((Dib(1, 1),), (3,)))


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

    def test_rejects_position_out_of_interface(self):
        poset = build_poset(PARA)
        ka = KekuleAssignment(poset.elements, (4, 1))
        with pytest.raises(ValueError):
            map_from_kekule(PARA, ka)


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
        pairs = [(om.elements, om.values) for om, _ in enumerate_kekule(PARA)]
        assert pairs == [
            ((), ()),
            ((s11,), (1,)),
            ((s11,), (2,)),
            ((s21,), (1,)),
            ((s21,), (2,)),
            ((s11, s21), (1, 2)),
        ]

    def test_masks_ascend_and_values_follow_brute_force(self, small_catalog):
        # within each subset A (ascending bitmask over the canonical DIB
        # order) the maps come in the lexicographic order of the
        # independent brute-force enumeration over the induced subposet
        for spec in [*small_catalog, *PRUNED]:
            poset = build_poset(spec)
            elements = poset.elements
            expected = []
            for mask in range(1 << poset.p):
                members = tuple(elements[i] for i in range(poset.p) if mask >> i & 1)
                sub = poset.subposet(members)
                for m in brute_force_strict_maps(sub, spec.n):
                    expected.append((members, tuple(m[e] for e in members)))
            got = [(om.elements, om.values) for om, _ in enumerate_kekule(spec)]
            assert got == expected, spec

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


class TestClarRecordOrderMap:
    def test_order_map_equals_reverse_map(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            for rec in generate_clar_covers(spec):
                assert rec.order_map == map_from_kekule(spec, rec.base, poset=poset)


def _heights(poset):
    p, below = poset.p, poset.below_masks
    above = [sum(1 << t for t in range(p) if below[t] >> i & 1) for i in range(p)]
    return _chain_heights(below, above)


class TestChainHeights:
    def test_heights_equal_longest_chains(self, small_catalog):
        for spec in [*small_catalog[:20], *PRUNED]:
            poset = build_poset(spec)
            p, below = poset.p, poset.below_masks
            height = _heights(poset)
            for mask in range(1 << p):
                # longest chain ending at each member, members taken in
                # an order that lists every element after those below it
                members = sorted(
                    (i for i in range(p) if mask >> i & 1),
                    key=lambda i: bin(below[i]).count("1"),
                )
                ending: dict[int, int] = {}
                for i in members:
                    ending[i] = 1 + max((ending[t] for t in ending if below[i] >> t & 1), default=0)
                assert height[mask] == max(ending.values(), default=0), (spec, mask)


class TestSubsetBlocks:
    @pytest.mark.parametrize("size", [0, 1, 3, BLOCK_BITS, BLOCK_BITS + 3])
    def test_blocks_list_subsets_in_ascending_mask_order(self, size):
        items = [f"x{i}" for i in range(size)]
        blocks = list(subset_blocks(items))
        assert all(len(block) <= 1 << BLOCK_BITS for block in blocks)
        flat = [subset for block in blocks for subset in block]
        assert flat == [
            tuple(items[i] for i in range(size) if mask >> i & 1) for mask in range(1 << size)
        ]

    def test_clar_records_follow_blocks(self):
        spec = StripSpec(tuple("WWRNN"), 3)
        records = list(generate_clar_covers(spec))
        expected = [
            (ka, tuple(om.elements[i] for i in range(om.size) if mask >> i & 1))
            for om, ka in enumerate_kekule(spec)
            for mask in range(1 << om.size)
        ]
        assert [(r.base, r.aromatic) for r in records] == expected
