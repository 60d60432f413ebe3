import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzstrips import (
    StripParseError,
    InvalidStripError,
    StripSpec,
    build_graph,
    interface_profile,
    parse_strip,
    shapes_from_graph,
    validate,
)
from zzstrips.strip_geometry import (
    SHAPE_LETTERS,
    _canonical_shapes,
    catalog_shapes,
    parallelogram,
    tier_offsets,
)

from conftest import all_strips


class TestParse:
    def test_named_constructor_text(self):
        assert parse_strip("M 2 2") == StripSpec(("W", "R", "N"), 2)

    def test_letter_sequence(self):
        assert parse_strip("WWRNN 3") == StripSpec(("W", "W", "R", "N", "N"), 3)

    def test_single_tier(self):
        assert parse_strip("WN 5") == StripSpec(("W", "N"), 5)

    def test_lowercase_accepted(self):
        assert parse_strip("wrn 2") == StripSpec(("W", "R", "N"), 2)

    def test_parallelogram_expansion(self):
        assert parallelogram(4, 3).shapes == ("W", "R", "R", "R", "N")

    @pytest.mark.parametrize(
        "text",
        ["", "WRN", "WXN 3", "WRN zero", "M 2", "M two 2", "WRN 0", "WRN -1"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(StripParseError):
            parse_strip(text)

    def test_json_round_trip(self):
        spec = StripSpec(("W", "W", "R", "N", "N"), 3)
        assert StripSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("n", ["2.9", '"3"', "true", "null", "[3]"])
    def test_json_rejects_non_integer_n(self, n):
        # int() would truncate 2.9 to 2 and accept the string "3"
        with pytest.raises(StripParseError, match="positive integer"):
            StripSpec.from_json('{"shapes": ["W", "N"], "n": %s}' % n)

    @pytest.mark.parametrize(
        "text", ["[1]", '{"shapes": "WN", "n": 2}', '{"n": 2}', '{"shapes": ["W", "N"]}']
    )
    def test_json_rejects_malformed_structure(self, text):
        # a string of letters is not split into shapes
        with pytest.raises(StripParseError):
            StripSpec.from_json(text)

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    def test_constructor_rejects_non_int_n(self, n):
        with pytest.raises(StripParseError):
            StripSpec(("W", "N"), n)
        with pytest.raises(StripParseError):
            StripSpec(shapes=("W", "N"), n=n)

    @pytest.mark.parametrize("shapes", [["W", "N"], "WN", ("W", "N")])
    def test_constructor_stores_shapes_as_tuple(self, shapes):
        spec = StripSpec(shapes, 2)
        assert type(spec.shapes) is tuple and spec.shapes == ("W", "N")
        assert spec == StripSpec(("W", "N"), 2)
        assert hash(spec) == hash(StripSpec(("W", "N"), 2))
        assert StripSpec(shapes=shapes, n=2) == spec


class TestProfile:
    def test_hexagonal_flake_orders(self):
        profile = interface_profile(StripSpec(tuple("WWRNN"), 3))
        assert profile.orders == (1, 2, 2, 1)
        assert profile.sizes == (4, 5, 5, 4)

    def test_parallelogram_orders(self):
        profile = interface_profile(StripSpec(tuple("WRN"), 2))
        assert profile.orders == (1, 1)

    def test_negative_order(self):
        profile = interface_profile(StripSpec(tuple("WNNWWN"), 4))
        assert profile.orders == (1, 0, -1, 0, 1)

    @given(
        st.lists(st.sampled_from("WNRL"), min_size=0, max_size=8),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=200)
    def test_size_minus_order_is_n(self, interior, n):
        # the size and order recursions are anchored independently, so
        # this is the interface-order criterion, not a tautology
        spec = StripSpec(("W", *interior, "N"), n)
        profile = interface_profile(spec)
        assert all(s - o == n for s, o in zip(profile.sizes, profile.orders))
        assert profile.m == 0 or profile.orders[0] == 1

    @pytest.mark.parametrize("shapes, m", [("", 0), ("W", 0), ("WN", 1), ("WWRNN", 4)])
    def test_tier_count_matches_profile(self, shapes, m):
        # a strip with no fragments has no tiers, not -1 of them
        spec = StripSpec(tuple(shapes), 2)
        assert spec.m == interface_profile(spec).m == m

    @given(st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=60)
    def test_parallelogram_orders_all_one(self, tiers, n):
        profile = interface_profile(parallelogram(tiers, n))
        assert profile.orders == (1,) * tiers


class TestValidate:
    def test_canonical_parallelogram(self):
        report = validate(StripSpec(tuple("WRN"), 2))
        assert report.is_valid and report.is_kekulean

    def test_valid_geometry_non_kekulean(self):
        report = validate(StripSpec(tuple("WNNWWN"), 4))
        assert report.is_valid
        assert not report.is_kekulean
        assert "non-Kekulean: ord(i_3) = -1" in report.problems

    def test_first_fragment_not_wide(self):
        report = validate(StripSpec(tuple("RWN"), 2))
        assert not report.is_valid
        assert not report.first_shape_wide

    def test_bottom_order_must_be_one(self):
        # [W, W, N]: orders 1, 2
        report = validate(StripSpec(tuple("WWN"), 2))
        assert not report.is_valid
        assert not report.bottom_order_one

    def test_empty_tier_rejected(self):
        # orders 1, 0 at n = 1 leaves tier 2 hexagon-free
        report = validate(StripSpec(tuple("WNWN"), 1))
        assert not report.is_valid
        assert not report.tiers_nonempty
        assert validate(StripSpec(tuple("WNWN"), 2)).is_valid

    def test_validity_monotone_in_n(self):
        # |i_k| = ord(i_k) + n: a strip valid at n stays valid at n + 1,
        # and Kekulean-ness reads the orders alone, so one check at the
        # first n of a range covers the whole range
        for length in range(1, 6):
            for shapes in itertools.product("WNRL", repeat=length):
                reports = [validate(StripSpec(shapes, n)) for n in range(1, 8)]
                for before, after in zip(reports, reports[1:]):
                    assert after.is_valid or not before.is_valid, shapes
                assert len({r.is_kekulean for r in reports}) == 1, shapes


class TestGraph:
    def test_single_hexagon(self):
        g = build_graph(StripSpec(tuple("WN"), 1))
        assert g.num_vertices == 6
        assert len(g.edges) == 6
        assert len(g.interface_bonds[0]) == 2
        assert len(g.hexagons) == 1

    def test_parallelogram_counts(self):
        g = build_graph(StripSpec(tuple("WRN"), 2))
        assert g.num_vertices % 2 == 0
        assert all(g.degree(v) in (2, 3) for v in range(g.num_vertices))
        assert [len(bonds) for bonds in g.interface_bonds] == [3, 3]
        assert len(g.hexagons) == 4

    def test_flake_tier_hexagon_counts(self):
        g = build_graph(StripSpec(tuple("WWRNN"), 3))
        by_tier = [sum(1 for h in g.hexagons if h.tier == k) for k in (1, 2, 3, 4)]
        assert by_tier == [3, 4, 4, 3]

    def test_interface_bond_counts_match_profile(self, small_catalog):
        for spec in small_catalog:
            g = build_graph(spec)
            profile = interface_profile(spec)
            assert [len(b) for b in g.interface_bonds] == list(profile.sizes)

    def test_every_hexagon_holds_two_consecutive_interface_bonds(self, small_catalog):
        for spec in small_catalog:
            g = build_graph(spec)
            for hexagon in g.hexagons:
                left = g.interface_of[hexagon.left_vertical]
                right = g.interface_of[hexagon.right_vertical]
                assert left[0] == right[0] == hexagon.tier
                assert right[1] == left[1] + 1
                inside = [e for e in hexagon.edges if g.edge_kind[e] == "interface"]
                assert sorted(inside) == sorted({hexagon.left_vertical, hexagon.right_vertical})

    def test_degrees_and_parity(self, small_catalog):
        for spec in small_catalog:
            g = build_graph(spec)
            assert g.num_vertices % 2 == 0
            assert all(g.degree(v) in (2, 3) for v in range(g.num_vertices))

    def test_shape_round_trip(self, catalog):
        for spec in catalog:
            assert shapes_from_graph(build_graph(spec)) == spec.shapes

    def test_offsets_follow_shapes(self):
        assert tier_offsets(StripSpec(tuple("WRN"), 2)) == (0, 1)
        assert tier_offsets(StripSpec(tuple("WWRNN"), 3)) == (0, -1, 0, 1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidStripError):
            build_graph(StripSpec(tuple("RWN"), 2))

    def test_non_kekulean_graph_still_builds(self):
        # geometry exists even when no matching does
        g = build_graph(StripSpec(tuple("WNNWWN"), 4))
        assert g.num_vertices % 2 == 0


def test_all_strips_helper_counts():
    # m = 1 gives the single-tier chain only; every interior letter combination
    # that keeps orders nonnegative and ends at order 1 appears for m <= 3
    specs = all_strips(2, (2,))
    assert {s.shapes for s in specs} == {("W", "N"), ("W", "R", "N"), ("W", "L", "N")}


def _catalog_by_definition(max_tiers, dedup):
    """Every letter sequence, kept when valid and Kekulean at n = 2."""
    out = []
    for m in range(1, max_tiers + 1):
        for interior in itertools.product(SHAPE_LETTERS, repeat=m - 1):
            shapes = ("W",) + interior + ("N",)
            report = validate(StripSpec(shapes, 2))
            if not (report.is_valid and report.is_kekulean):
                continue
            if dedup and shapes != _canonical_shapes(shapes):
                continue
            out.append(shapes)
    return out


class TestCatalogShapes:
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("max_tiers", range(0, 8))
    def test_walk_equals_definition(self, max_tiers, dedup):
        assert catalog_shapes(max_tiers, dedup) == _catalog_by_definition(max_tiers, dedup)

    @pytest.mark.parametrize("length", range(1, 8))
    def test_canonical_is_least_orbit_member_by_rank(self, length):
        # the orbit spelled out letter by letter: left-right mirror swaps
        # R and L, upside down reverses and swaps W and N
        lr = {"R": "L", "L": "R"}
        wn = {"W": "N", "N": "W"}
        for shapes in itertools.product(SHAPE_LETTERS, repeat=length):
            mirrored = tuple(lr.get(c, c) for c in shapes)
            orbit = [shapes, mirrored]
            orbit += [tuple(wn.get(c, c) for c in reversed(s)) for s in orbit]
            least = min(orbit, key=lambda s: [SHAPE_LETTERS.index(c) for c in s])
            assert _canonical_shapes(shapes) == least

    def test_family_counts_through_nine_tiers(self):
        # cumulative counts of mirror-deduped families, m = 1..9
        families = catalog_shapes(9)
        counts = [sum(len(s) <= m + 1 for s in families) for m in range(1, 10)]
        assert counts == [1, 2, 6, 13, 39, 107, 353, 1148, 4026]
