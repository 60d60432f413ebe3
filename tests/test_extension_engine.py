import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzstrips import (
    Dib,
    DibPoset,
    LinearExtensionRecord,
    NaturalLabeling,
    StripSpec,
    build_poset,
    closed_form,
    extension_records,
    natural_labeling,
    parse_strip,
)
from zzstrips.extension_engine import des_fix_counts

from conftest import (
    all_strips,
    antichain_poset,
    chain_poset,
    fence_poset,
    random_natural_labeling,
)
from reference import descent_stats, fixed_labels, linear_extensions


FLAKE_POSET = build_poset(StripSpec(tuple("WWRNN"), 3))

# the labeling under which the five flake extensions read
# 123456, 123546, 132456, 135246, 132546
FLAKE_ALT_LABELING = NaturalLabeling(
    FLAKE_POSET,
    (Dib(2, 1), Dib(1, 1), Dib(3, 1), Dib(2, 2), Dib(4, 1), Dib(3, 2)),
)


class TestLinearExtensions:
    def test_two_chain_single_extension(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        assert linear_extensions(poset, natural_labeling(poset)) == [(1, 2)]

    def test_two_antichain(self):
        poset = antichain_poset(2)
        assert linear_extensions(poset, natural_labeling(poset)) == [(1, 2), (2, 1)]

    def test_flake_has_five(self):
        words = linear_extensions(FLAKE_POSET, natural_labeling(FLAKE_POSET))
        assert len(words) == 5
        assert words == sorted(words)

    def test_flake_alt_labeling_word_set(self):
        words = linear_extensions(FLAKE_POSET, FLAKE_ALT_LABELING)
        assert set(words) == {
            (1, 2, 3, 4, 5, 6),
            (1, 2, 3, 5, 4, 6),
            (1, 3, 2, 4, 5, 6),
            (1, 3, 5, 2, 4, 6),
            (1, 3, 2, 5, 4, 6),
        }

    def test_empty_poset_one_empty_word(self):
        poset = antichain_poset(0)
        assert linear_extensions(poset, natural_labeling(poset)) == [()]

    @pytest.mark.parametrize("p", range(1, 7))
    def test_chain_and_antichain_counts(self, p):
        chain = chain_poset(p)
        assert len(linear_extensions(chain, natural_labeling(chain))) == 1
        anti = antichain_poset(p)
        assert len(linear_extensions(anti, natural_labeling(anti))) == math.factorial(p)

    def test_words_respect_poset_order(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            lab = natural_labeling(poset)
            for word in linear_extensions(poset, lab):
                position = {lbl: i for i, lbl in enumerate(word)}
                for a, b in poset.covers:
                    assert position[lab.label_of(a)] < position[lab.label_of(b)]


class TestDescents:
    def test_examples(self):
        assert descent_stats((1, 2, 3, 5, 4, 6)) == (frozenset({4}), 1)
        assert descent_stats((1, 2)) == (frozenset(), 0)
        assert descent_stats((1, 3, 2, 5, 4, 6)) == (frozenset({2, 4}), 2)

    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=100)
    def test_descents_match_definition(self, word):
        descents, des = descent_stats(tuple(word))
        assert des == len(descents)
        for i in range(1, len(word)):
            assert (i in descents) == (word[i - 1] > word[i])


class TestFixedLabels:
    def test_two_chain_identity_has_none(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        fixed, fix = fixed_labels((1, 2), poset, natural_labeling(poset))
        assert fixed == frozenset() and fix == 0

    def test_flake_fix_multiset(self):
        records = list(extension_records(natural_labeling(FLAKE_POSET)))
        assert sorted(r.fix for r in records) == [0, 2, 2, 2, 4]
        assert sorted(r.des for r in records) == [0, 1, 1, 1, 2]

    def test_flake_alt_labeling_135246(self):
        # both fixed labels come from the descent at position 3; label 4
        # fails the second condition because its forced-below positions
        # reach further than its preceding larger labels
        fixed, fix = fixed_labels((1, 3, 5, 2, 4, 6), FLAKE_POSET, FLAKE_ALT_LABELING)
        assert fixed == frozenset({5, 2})
        assert fix == 2

    def test_descent_adjacent_labels_always_fixed(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            lab = natural_labeling(poset)
            for rec in extension_records(lab):
                for i in rec.descents:
                    assert rec.word[i - 1] in rec.fixed
                    assert rec.word[i] in rec.fixed

    def test_invalid_word_rejected(self):
        poset = build_poset(StripSpec(tuple("WRN"), 2))
        lab = natural_labeling(poset)
        with pytest.raises(ValueError):
            fixed_labels((2, 1), poset, lab)
        with pytest.raises(ValueError):
            fixed_labels((1, 1), poset, lab)

    def test_statistics_labeling_invariant(self, small_catalog):
        rng = random.Random(20210308)
        for spec in small_catalog:
            poset = build_poset(spec)
            base = extension_records(natural_labeling(poset))
            base_stats = sorted((r.des, r.fix) for r in base)
            for _ in range(3):
                lab = random_natural_labeling(poset, rng)
                stats = sorted((r.des, r.fix) for r in extension_records(lab))
                assert stats == base_stats


def test_fence_extension_count():
    # fences alternate up and down; their extension counts follow the
    # boustrophedon (zigzag) numbers 1, 1, 2, 5, 16, 61
    expected = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61}
    for p, count in expected.items():
        fence = fence_poset(p)
        assert len(linear_extensions(fence, natural_labeling(fence))) == count


class TestStreamingWalk:
    """The walk carries des and fix along each prefix; these checks hold
    it to the per-word definitions in descent_stats and fixed_labels."""

    @staticmethod
    def per_word_counts(poset, lab):
        counts = {}
        for word in linear_extensions(poset, lab):
            _, des = descent_stats(word)
            _, fix = fixed_labels(word, poset, lab)
            counts[(des, fix)] = counts.get((des, fix), 0) + 1
        return counts

    def test_des_fix_counts_match_per_word_on_strips(self, small_catalog):
        rng = random.Random(3)
        for spec in small_catalog:
            poset = build_poset(spec)
            labelings = [natural_labeling(poset)]
            labelings += [random_natural_labeling(poset, rng) for _ in range(3)]
            for lab in labelings:
                assert des_fix_counts(lab) == self.per_word_counts(poset, lab)

    @pytest.mark.parametrize("p", range(0, 7))
    def test_des_fix_counts_match_per_word_on_synthetic_posets(self, p):
        for poset in (chain_poset(p), antichain_poset(p), fence_poset(p)):
            lab = natural_labeling(poset)
            assert des_fix_counts(lab) == self.per_word_counts(poset, lab)

    def test_records_equal_per_word_statistics(self, small_catalog):
        rng = random.Random(5)
        for spec in small_catalog:
            poset = build_poset(spec)
            labelings = [natural_labeling(poset)]
            labelings += [random_natural_labeling(poset, rng) for _ in range(2)]
            for lab in labelings:
                for record in extension_records(lab):
                    assert record.fixed == tuple(sorted(fixed_labels(record.word, poset, lab)[0]))
                    assert record.descents == tuple(sorted(descent_stats(record.word)[0]))

    def test_records_stream(self):
        # the p=20 flake has 1,662,804 extensions: a listing that built
        # them all before returning would take seconds and hold them all
        poset = build_poset(parse_strip("WWWWRNNNN 3"))
        records = extension_records(natural_labeling(poset))
        assert iter(records) is records
        first = next(records)
        # a natural labeling is itself an extension, the first in
        # lexicographic order, with no descent and no fixed label
        assert first.word == tuple(range(1, 21))
        assert first.des == first.fix == 0

    def test_engine_takes_the_labeling_alone(self):
        # the labeling carries its poset, so no (poset, labeling) pair
        # that disagrees can be passed
        lab = natural_labeling(FLAKE_POSET)
        with pytest.raises(TypeError):
            des_fix_counts(FLAKE_POSET, lab)
        with pytest.raises(TypeError):
            extension_records(FLAKE_POSET, lab)


def walk_tally(lab):
    """(des, fix) tally of the extension walk, one word at a time. The
    walk takes the same moves and flags as des_fix_counts, unmerged, so
    equality checks the DP's merging and packed slots; the per-word
    definition in tests/reference.py is the independent check."""
    return Counter((r.des, r.fix) for r in extension_records(lab))


@st.composite
def posets_with_implied_covers(draw):
    """Random posets on p <= 8 elements. Whenever the order has a chain
    of three, the cover list also carries some relation it implies."""
    p = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    relation = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    closure = set(relation)
    for k in range(p):
        for i in range(p):
            for j in range(p):
                if (i, k) in closure and (k, j) in closure:
                    closure.add((i, j))
    implied = sorted(closure - relation)
    if implied:
        relation |= draw(st.sets(st.sampled_from(implied), min_size=1))
    elements = [Dib(i + 1, 1) for i in range(p)]
    return DibPoset(elements, [(elements[i], elements[j]) for i, j in sorted(relation)])


class TestOrderIdealDp:
    """des_fix_counts merges prefixes by state instead of walking every
    extension; it must give exactly the walk's tally."""

    def test_equals_walk_on_catalog(self):
        # every family with m <= 6 (340 of them, all with p <= 12); the
        # poset depends on the shapes only, so one n per family
        rng = random.Random(11)
        shapes = {spec.shapes: spec for spec in all_strips(6, (1, 2, 3))}
        assert len(shapes) >= 300
        for spec in shapes.values():
            poset = build_poset(spec)
            assert poset.p <= 15
            labelings = [natural_labeling(poset)]
            labelings += [random_natural_labeling(poset, rng) for _ in range(2)]
            for lab in labelings:
                assert des_fix_counts(lab) == walk_tally(lab), spec

    @settings(max_examples=120, deadline=None)
    @given(posets_with_implied_covers(), st.randoms(use_true_random=False))
    def test_equals_walk_on_random_posets(self, poset, rnd):
        # the per-word count lists every extension: an 8-antichain's
        # 40,320 would take most of a second per example
        per_word = ideal_chain_count(poset) <= 5_040
        for lab in (natural_labeling(poset), random_natural_labeling(poset, rnd)):
            assert des_fix_counts(lab) == walk_tally(lab)
            if per_word:
                assert des_fix_counts(lab) == TestStreamingWalk.per_word_counts(poset, lab)

    def test_flake_p20_extension_count(self):
        # 1,662,804 extensions, which the walk needs seconds to visit
        form = closed_form(parse_strip("WWWWRNNNN 3"))
        assert form.p == 20
        assert form.extension_count == 1_662_804

    def test_p18_groups_equal_walk(self):
        spec = parse_strip("WWWRRRNNN 3")
        poset = build_poset(spec)
        tally = walk_tally(natural_labeling(poset))
        assert sum(tally.values()) == 87_516
        assert closed_form(spec).groups == tuple((d, f, tally[(d, f)]) for d, f in sorted(tally))


def eulerian_numbers(p):
    """A(p, d), the permutations of p letters with d descents, by the
    recurrence A(n, d) = (d + 1) A(n - 1, d) + (n - d) A(n - 1, d - 1)."""
    row = [1]
    for n in range(1, p + 1):
        row = [
            (d + 1) * (row[d] if d < len(row) else 0) + (n - d) * (row[d - 1] if d else 0)
            for d in range(n)
        ]
    return row


def ideal_chain_count(poset):
    """Extensions counted as maximal chains of order ideals, one layer of
    ideals (bitmasks) at a time, with no (des, fix) bookkeeping."""
    layer = {0: 1}
    for _ in range(poset.p):
        nxt = {}
        for ideal, count in layer.items():
            for i, below in enumerate(poset.below_masks):
                if not ideal >> i & 1 and below & ideal == below:
                    nxt[ideal | 1 << i] = nxt.get(ideal | 1 << i, 0) + count
        layer = nxt
    return sum(layer.values())


def assert_listing_complete_and_ordered(poset, lab):
    """The records' words strictly increase, so none repeats, and they
    number e(P) as counted from below_masks, apart from any move table."""
    words = [record.word for record in extension_records(lab)]
    assert all(a < b for a, b in zip(words, words[1:]))
    assert len(words) == ideal_chain_count(poset)


class TestListingComplete:
    """A depth-first pass that skipped or repeated a move would list too
    few extensions, or one twice."""

    def test_catalog_natural_and_random_labelings(self, small_catalog):
        rng = random.Random(7)
        for spec in small_catalog:
            poset = build_poset(spec)
            assert_listing_complete_and_ordered(poset, natural_labeling(poset))
            for _ in range(2):
                assert_listing_complete_and_ordered(poset, random_natural_labeling(poset, rng))

    @settings(max_examples=120, deadline=None)
    @given(posets_with_implied_covers(), st.randoms(use_true_random=False))
    def test_random_posets_with_implied_covers(self, poset, rnd):
        # redundant relations in the cover list must not add moves
        assert_listing_complete_and_ordered(poset, natural_labeling(poset))
        assert_listing_complete_and_ordered(poset, random_natural_labeling(poset, rnd))


class TestPackedCounts:
    """des_fix_counts packs each state's counts into one int; a slot too
    narrow for its count would carry into its neighbour."""

    @pytest.mark.parametrize("p", range(0, 11))
    def test_antichain_des_sums_are_eulerian(self, p):
        # every permutation is an extension; at p = 10 the largest single
        # (des, fix) count is 607,009, beyond 16 bits
        poset = antichain_poset(p)
        counts = des_fix_counts(natural_labeling(poset))
        by_des = Counter()
        for (des, _), mult in counts.items():
            assert mult > 0
            by_des[des] += mult
        assert [by_des[d] for d in range(max(p, 1))] == eulerian_numbers(p)
        assert sum(counts.values()) == math.factorial(p)

    # The slots are as wide as the extension count e needs, not p!.
    def test_chain_of_40_has_one_bit_slots(self):
        # e = 1: each slot is one bit, and the one count sits in slot 0
        lab = natural_labeling(chain_poset(40))
        assert des_fix_counts(lab) == walk_tally(lab) == {(0, 0): 1}

    def test_antichain_of_7_has_slots_as_wide_as_7_factorial(self):
        lab = natural_labeling(antichain_poset(7))
        counts = des_fix_counts(lab)
        assert counts == walk_tally(lab)
        assert sum(counts.values()) == math.factorial(7)

    def test_empty_poset_has_the_empty_extension(self):
        lab = natural_labeling(antichain_poset(0))
        assert list(extension_records(lab)) == [LinearExtensionRecord((), (), ())]
        assert des_fix_counts(lab) == walk_tally(lab) == {(0, 0): 1}

    def test_p30_count_beyond_32_bits(self):
        spec = parse_strip("WWWWWRNNNNN 3")
        expected = ideal_chain_count(build_poset(spec))
        assert expected == 396_499_770_810 > 2**32
        form = closed_form(spec)
        assert form.p == 30
        assert form.extension_count == expected


def assert_label_covers(poset, lab):
    """lower_covers and upper_covers are poset.covers in label space
    (label - 1 throughout), and each is the other transposed."""
    expected = sorted((lab.label_of(a) - 1, lab.label_of(b) - 1) for a, b in poset.covers)
    lower, upper = lab.lower_covers, lab.upper_covers
    assert isinstance(lower, tuple) and isinstance(upper, tuple)
    assert len(lower) == len(upper) == poset.p
    assert all(isinstance(row, tuple) for row in lower + upper)
    # read by rows, the pairs (i, j) of both are poset.covers' pairs, so
    # each is the other transposed
    assert sorted((i, j) for j, row in enumerate(lower) for i in row) == expected
    assert sorted((i, j) for i, row in enumerate(upper) for j in row) == expected


class TestLabelSpaceCovers:
    """The walk and the DP read their covers straight off the labeling."""

    def test_catalog_natural_and_random_labelings(self, small_catalog):
        rng = random.Random(5)
        for spec in small_catalog:
            poset = build_poset(spec)
            assert_label_covers(poset, natural_labeling(poset))
            for _ in range(2):
                assert_label_covers(poset, random_natural_labeling(poset, rng))

    @settings(max_examples=120, deadline=None)
    @given(posets_with_implied_covers(), st.randoms(use_true_random=False))
    def test_random_posets_with_implied_covers(self, poset, rnd):
        # redundant relations in the cover list appear in label space too
        assert_label_covers(poset, natural_labeling(poset))
        for _ in range(2):
            assert_label_covers(poset, random_natural_labeling(poset, rnd))

    def test_flake_alt_labeling(self):
        # FLAKE_ALT_LABELING reads s(2,1) s(1,1) s(3,1) s(2,2) s(4,1) s(3,2)
        assert FLAKE_ALT_LABELING.lower_covers == ((), (0,), (0,), (1, 2), (2,), (3, 4))
        assert FLAKE_ALT_LABELING.upper_covers == ((1, 2), (3,), (3, 4), (5,), (5,), ())
