import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzstrips import (
    Dib,
    DibPoset,
    InvalidStripError,
    NaturalLabeling,
    NonKekuleanError,
    StripSpec,
    build_poset,
    interface_profile,
    natural_labeling,
    validate,
)
from zzstrips.dib_poset import induced_subposets

from conftest import antichain_poset, chain_poset


FLAKE = StripSpec(tuple("WWRNN"), 3)

# the seven covers of the 6-element flake poset, fragment by fragment
FLAKE_COVERS = {
    (Dib(2, 1), Dib(1, 1)),
    (Dib(1, 1), Dib(2, 2)),
    (Dib(2, 1), Dib(3, 1)),
    (Dib(3, 1), Dib(2, 2)),
    (Dib(2, 2), Dib(3, 2)),
    (Dib(3, 1), Dib(4, 1)),
    (Dib(4, 1), Dib(3, 2)),
}


class TestBuildPoset:
    def test_parallelogram_single_cover(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        assert poset.elements == (Dib(1, 1), Dib(2, 1))
        assert poset.covers == ((Dib(1, 1), Dib(2, 1)),)

    def test_flake_seven_covers(self):
        poset = build_poset(FLAKE)
        assert poset.p == 6
        assert set(poset.covers) == FLAKE_COVERS

    def test_order_zero_interface_contributes_nothing(self):
        poset = build_poset(StripSpec(tuple("WNWN"), 2))
        assert poset.elements == (Dib(1, 1), Dib(3, 1))
        assert poset.covers == ()

    def test_non_kekulean_has_no_poset(self):
        with pytest.raises(NonKekuleanError):
            build_poset(StripSpec(tuple("WNNWWN"), 4))

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidStripError):
            build_poset(StripSpec(tuple("WWN"), 2))

    def test_element_count_per_interface(self, catalog):
        for spec in catalog:
            profile = interface_profile(spec)
            poset = build_poset(spec)
            for k in range(1, profile.m + 1):
                count = sum(1 for e in poset.elements if e.k == k)
                assert count == profile.order(k)

    def test_cover_count_per_interior_fragment(self, catalog):
        for spec in catalog:
            profile = interface_profile(spec)
            poset = build_poset(spec)
            for kappa in range(2, profile.m + 1):
                a, b = profile.order(kappa - 1), profile.order(kappa)
                expected = a + b - 1 if a >= 1 and b >= 1 else 0
                got = sum(
                    1 for x, y in poset.covers if {x.k, y.k} == {kappa - 1, kappa}
                )
                assert got == expected

    def test_strict_partial_order(self, catalog):
        for spec in catalog:
            poset = build_poset(spec)
            for a in poset.elements:
                assert not poset.less(a, a)
                for b in poset.elements:
                    assert not (poset.less(a, b) and poset.less(b, a))

    def test_poset_independent_of_n(self):
        p2 = build_poset(StripSpec(tuple("WWRNN"), 2))
        p5 = build_poset(StripSpec(tuple("WWRNN"), 5))
        assert p2 == p5

    def test_cyclic_covers_rejected(self):
        a, b = Dib(1, 1), Dib(2, 1)
        with pytest.raises(ValueError):
            DibPoset([a, b], [(a, b), (b, a)])

    @pytest.mark.parametrize(
        "cover, message",
        [
            ((Dib(1, 1), Dib(9, 9)), "unknown element"),
            ((Dib(1, 1), Dib(1, 1)), "reflexive cover"),
        ],
    )
    def test_malformed_cover_rejected(self, cover, message):
        with pytest.raises(ValueError, match=message):
            DibPoset([Dib(1, 1), Dib(2, 1)], [cover])


class TestSubposets:
    def test_power_set_sizes(self):
        chain = chain_poset(2)
        assert sum(1 for _ in induced_subposets(chain)) == 4
        assert sum(1 for _ in induced_subposets(build_poset(FLAKE))) == 64
        assert sum(1 for _ in induced_subposets(chain_poset(1))) == 2

    def test_bitmask_order(self):
        chain = chain_poset(2)
        sizes = [sub.p for sub in induced_subposets(chain)]
        assert sizes == [0, 1, 1, 2]

    def test_inherited_order_collapses_chains(self):
        chain = chain_poset(3)
        ends = chain.subposet([Dib(1, 1), Dib(3, 1)])
        # a < c survives and becomes a cover once b is gone
        assert ends.covers == ((Dib(1, 1), Dib(3, 1)),)

    def test_foreign_element_rejected(self):
        with pytest.raises(ValueError):
            chain_poset(2).subposet([Dib(9, 9)])


class TestNaturalLabeling:
    def test_two_chain(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        lab = natural_labeling(poset)
        assert lab.label_of(Dib(1, 1)) == 1
        assert lab.label_of(Dib(2, 1)) == 2

    def test_antichain_tie_break_by_k(self):
        poset = build_poset(StripSpec(tuple("WNWN"), 2))
        lab = natural_labeling(poset)
        assert lab.label_of(Dib(1, 1)) == 1
        assert lab.label_of(Dib(3, 1)) == 2

    def test_flake_removal_order(self):
        lab = natural_labeling(build_poset(FLAKE))
        assert lab.elements_by_label == (
            Dib(2, 1), Dib(1, 1), Dib(3, 1), Dib(4, 1), Dib(2, 2), Dib(3, 2),
        )

    def test_order_preserving(self, catalog):
        for spec in catalog:
            poset = build_poset(spec)
            lab = natural_labeling(poset)
            for a, b in poset.covers:
                assert lab.label_of(a) < lab.label_of(b)

    def test_rejects_non_order_preserving(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        from zzstrips import NaturalLabeling

        with pytest.raises(ValueError):
            NaturalLabeling(poset, (Dib(2, 1), Dib(1, 1)))

    @pytest.mark.parametrize("by_label", [(Dib(1, 1), Dib(1, 1)), (Dib(1, 1),)])
    def test_rejects_non_bijection(self, by_label):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        with pytest.raises(ValueError, match="bijection"):
            NaturalLabeling(poset, by_label)


class TestSerialization:
    def test_json_round_trip(self):
        poset = build_poset(FLAKE)
        assert DibPoset.from_json(poset.to_json()) == poset

    def test_dot_mentions_every_cover(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        dot = poset.to_dot()
        assert '"s1_1" -> "s2_1";' in dot

    def test_antichain_equality(self):
        assert antichain_poset(3) == antichain_poset(3)
        assert antichain_poset(3) != chain_poset(3)


@st.composite
def dags_with_implied_covers(draw):
    """(p, elements, covers) for a random DAG on p <= 10 elements. The
    edges follow a random topological order, so they run both ways
    against the (k, j) order of the elements, and whenever the DAG has a
    path of two steps the cover list also carries some pair it implies."""
    p = draw(st.integers(0, 10))
    topo = draw(st.permutations(range(p)))
    pairs = [(topo[i], topo[j]) for i in range(p) for j in range(i + 1, p)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    two_steps = sorted({(a, c) for a, b in edges for b2, c in edges if b == b2} - edges)
    if two_steps:
        edges |= draw(st.sets(st.sampled_from(two_steps), min_size=1))
    elements = [Dib(t % 3 + 1, t // 3 + 1) for t in range(p)]
    return p, elements, [(elements[a], elements[b]) for a, b in sorted(edges)]


def reachable(elements, covers, start):
    """Elements reachable from start along covers, by depth-first search."""
    succs = {e: [b for a, b in covers if a == e] for e in elements}
    seen, stack = set(), [start]
    while stack:
        for b in succs[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def rescan_labeling(poset):
    """The labeling rule spelled out: rescan every remaining element for
    the minimal ones and take the smallest (j, k)."""
    remaining = set(poset.elements)
    order = []
    while remaining:
        candidates = [e for e in remaining if not (poset.below(e) & remaining)]
        pick = min(candidates, key=lambda e: (e.j, e.k))
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)


class TestStoredOrder:
    @settings(max_examples=200, deadline=None)
    @given(dags_with_implied_covers())
    def test_less_is_reachability(self, dag):
        p, elements, covers = dag
        poset = DibPoset(elements, covers)
        for a in elements:
            above = reachable(elements, covers, a)
            for b in elements:
                assert poset.less(a, b) == (b in above), (a, b)
                assert (a in poset.below(b)) == (b in above)

    @pytest.mark.parametrize(
        "cycle",
        [
            [(Dib(1, 1), Dib(2, 1)), (Dib(2, 1), Dib(3, 1)), (Dib(3, 1), Dib(1, 1))],
            [(Dib(3, 1), Dib(2, 1)), (Dib(2, 1), Dib(1, 1)), (Dib(1, 1), Dib(3, 1))],
        ],
    )
    def test_three_cycle_rejected(self, cycle):
        with pytest.raises(ValueError, match="cyclic"):
            DibPoset([Dib(1, 1), Dib(2, 1), Dib(3, 1), Dib(4, 1)], cycle)

    def test_cycle_through_implied_relation_rejected(self):
        a, b, c, d = Dib(1, 1), Dib(1, 2), Dib(2, 1), Dib(2, 2)
        # a < b < c < d carries the implied a < d, which d < a contradicts
        covers = [(a, b), (b, c), (c, d), (a, c), (d, a)]
        with pytest.raises(ValueError, match="cyclic"):
            DibPoset([a, b, c, d], covers)

    def test_subposet_covers_on_catalog(self, catalog):
        rng = random.Random(7)
        for spec in catalog:
            poset = build_poset(spec)
            for _ in range(4):
                kept = [e for e in poset.elements if rng.random() < 0.6]
                expected = {
                    (a, b)
                    for a in kept
                    for b in kept
                    if poset.less(a, b)
                    and not any(poset.less(a, c) and poset.less(c, b) for c in kept)
                }
                sub = poset.subposet(kept)
                assert set(sub.covers) == expected, (spec, kept)
                assert sub.elements == tuple(kept)

    def test_natural_labeling_matches_rescan_on_catalog(self, catalog):
        for spec in catalog:
            poset = build_poset(spec)
            assert natural_labeling(poset).elements_by_label == rescan_labeling(poset), spec


class TestDibTuple:
    """Dib is a named tuple: the poset, the labeling and the CLI sort it,
    key dicts by it and print it through its repr."""

    def test_sorts_by_k_then_j(self):
        dibs = [Dib(2, 1), Dib(1, 2), Dib(1, 1), Dib(3, 1), Dib(2, 2)]
        assert sorted(dibs) == [Dib(1, 1), Dib(1, 2), Dib(2, 1), Dib(2, 2), Dib(3, 1)]
        assert Dib(1, 9) < Dib(2, 1)

    def test_repr(self):
        assert repr(Dib(3, 12)) == "s(3,12)"
        assert f"{Dib(1, 2)} < {Dib(2, 1)}" == "s(1,2) < s(2,1)"

    def test_repr_in_cycle_error(self):
        a, b = Dib(1, 1), Dib(2, 1)
        with pytest.raises(ValueError, match=r"relation is cyclic at s\(1,1\)"):
            DibPoset([a, b], [(a, b), (b, a)])

    def test_immutable(self):
        dib = Dib(1, 2)
        with pytest.raises(AttributeError):
            dib.k = 5
        with pytest.raises(AttributeError):
            dib.extra = 0
        assert dib == Dib(1, 2)

    def test_dict_key(self):
        table = {Dib(k, j): 10 * k + j for k in range(1, 4) for j in range(1, 3)}
        assert len(table) == 6
        assert table[Dib(2, 1)] == 21
        assert Dib(3, 2) in table and Dib(2, 3) not in table

    def test_equals_plain_tuple(self):
        # the documented tuple semantics: Dib(k, j) and (k, j) are one key
        assert Dib(1, 2) == (1, 2)
        assert hash(Dib(1, 2)) == hash((1, 2))
        assert Dib(1, 2).k == 1 and Dib(1, 2).j == 2


class TestFromJsonIndices:
    TWO = '{"elements": [{"k": 1, "j": 1}, {"k": 2, "j": 1}], "covers": %s}'

    def test_negative_index_rejected(self):
        # a wrapped -1 would read as s(1,1) < s(2,1)
        with pytest.raises(ValueError, match=r"cover \[0, -1\]"):
            DibPoset.from_json(self.TWO % "[[0, -1]]")

    def test_index_past_end_rejected(self):
        with pytest.raises(ValueError, match=r"cover \[0, 2\]"):
            DibPoset.from_json(self.TWO % "[[0, 2]]")

    def test_valid_indices_accepted(self):
        poset = DibPoset.from_json(self.TWO % "[[0, 1]]")
        assert poset.covers == ((Dib(1, 1), Dib(2, 1)),)

    @pytest.mark.parametrize(
        "covers", ["[[0, 1.0]]", "[[0.5, 1]]", "[[false, true]]", '[["0", 1]]']
    )
    def test_non_integer_index_rejected(self, covers):
        with pytest.raises(ValueError, match="cover index must be an integer"):
            DibPoset.from_json(self.TWO % covers)

    @pytest.mark.parametrize("k", ["1.5", "true", '"1"'])
    def test_non_integer_element_rejected(self, k):
        # int() would read 1.5 as s(1, 1)
        text = '{"elements": [{"k": %s, "j": 1}], "covers": []}' % k
        with pytest.raises(ValueError, match="k must be an integer"):
            DibPoset.from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"elements": [{"k": 1}], "covers": []}',
            '{"elements": [[1, 1]], "covers": []}',
            '{"elements": [{"k": 1, "j": 1}]}',
            '{"elements": 5, "covers": []}',
            '{"elements": [{"k": 1, "j": 1}, {"k": 2, "j": 1}], "covers": [5]}',
            "[]",
        ],
    )
    def test_malformed_structure_rejected(self, text):
        with pytest.raises(ValueError):
            DibPoset.from_json(text)


class TestNonKekuleanReport:
    def test_valid_reports_list_only_non_kekulean_problems(self):
        # build_poset passes a valid report's problems on as the
        # NonKekuleanError message without filtering them
        valid = non_kekulean = 0
        for length in range(1, 8):
            for shapes in itertools.product("WNRL", repeat=length):
                for n in (1, 2, 3):
                    report = validate(StripSpec(shapes, n))
                    if not report.is_valid:
                        continue
                    valid += 1
                    if not report.is_kekulean:
                        non_kekulean += 1
                        assert report.problems
                    assert all(p.startswith("non-Kekulean: ") for p in report.problems)
        assert (valid, non_kekulean) == (887, 11)

    def test_error_message_is_the_report(self):
        spec = StripSpec(tuple("WNNWWN"), 4)
        with pytest.raises(NonKekuleanError) as info:
            build_poset(spec)
        assert str(info.value) == "; ".join(validate(spec).problems)
        assert str(info.value).startswith("non-Kekulean: ")
