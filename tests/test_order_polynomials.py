import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzstrips import (
    Dib,
    GuardExceeded,
    InvalidStripError,
    NonKekuleanError,
    StripSpec,
    ZzPolynomial,
    build_poset,
    closed_form,
    extended_poly_subposet_sum,
    natural_labeling,
    parse_strip,
    zz_polynomial,
)
from zzstrips import order_polynomials
from zzstrips.extension_engine import des_fix_counts
from zzstrips.order_polynomials import ROW_BLOCK, ClosedForm, strict_order_poly
from zzstrips.strip_geometry import catalog_shapes

from conftest import (
    all_strips,
    antichain_poset,
    chain_poset,
    fence_poset,
    random_natural_labeling,
)
from reference import (
    a_coefficients,
    binom,
    brute_force_strict_maps,
    evaluate_form,
    extended_poly_extension_formula,
)


class TestBinom:
    def test_zero_outside_range(self):
        assert binom(4, -1) == 0
        assert binom(4, 5) == 0
        assert binom(0, 0) == 1
        assert binom(6, 2) == 15

    @given(st.integers(0, 30), st.integers(-5, 35))
    def test_pascal(self, n, k):
        assert binom(n + 1, k) == binom(n, k) + binom(n, k - 1)


class TestZzPolynomial:
    def test_normalization(self):
        assert ZzPolynomial.from_coeffs([6, 6, 1, 0, 0]).coeffs == (6, 6, 1)
        assert ZzPolynomial.from_coeffs([0, 0]).is_zero

    def test_str(self):
        assert str(ZzPolynomial((6, 6, 1))) == "x^2 + 6x + 6"
        assert str(ZzPolynomial((2, 1))) == "x + 2"
        assert str(ZzPolynomial.zero()) == "0"
        assert str(ZzPolynomial((5,))) == "5"

    def test_str_skips_zero_terms(self):
        assert str(ZzPolynomial((1, 0, 1))) == "x^2 + 1"

    def test_evaluate(self):
        poly = ZzPolynomial((6, 6, 1))
        assert poly.evaluate(0) == 6
        assert poly.evaluate(1) == 13
        assert poly.kekule_count == 6
        assert poly.clar_number == 2

    def test_json_round_trip(self):
        poly = ZzPolynomial((6, 6, 1))
        assert ZzPolynomial.from_json(poly.to_json()) == poly

    @pytest.mark.parametrize("coeffs", ["[1.5, 2]", "[6, 6.0, 1]", "[true]", '["6"]'])
    def test_json_rejects_non_integer_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            ZzPolynomial.from_json('{"coeffs": %s}' % coeffs)

    @pytest.mark.parametrize("text", ['{"coeffs": 5}', "{}", "[6, 6, 1]"])
    def test_json_rejects_malformed_structure(self, text):
        with pytest.raises(ValueError):
            ZzPolynomial.from_json(text)


class TestStrictOrderPoly:
    def test_empty_poset(self):
        empty = antichain_poset(0)
        for n in range(0, 5):
            assert strict_order_poly(empty, n) == 1

    def test_singleton(self):
        single = antichain_poset(1)
        for n in range(0, 6):
            assert strict_order_poly(single, n) == n

    def test_two_chain_n2(self):
        assert strict_order_poly(chain_poset(2), 2) == 1

    def test_nonempty_poset_at_n0(self):
        assert strict_order_poly(chain_poset(3), 0) == 0

    def test_matches_brute_force(self, small_catalog):
        from zzstrips.dib_poset import induced_subposets

        for spec in small_catalog[:12]:
            poset = build_poset(spec)
            if poset.p > 4:
                continue
            for sub in induced_subposets(poset):
                for n in (1, 2, 3):
                    assert strict_order_poly(sub, n) == len(brute_force_strict_maps(sub, n))


class TestBruteForceMaps:
    def test_two_chain_n3(self):
        maps = brute_force_strict_maps(chain_poset(2), 3)
        pairs = sorted((m[Dib(1, 1)], m[Dib(2, 1)]) for m in maps)
        assert pairs == [(1, 2), (1, 3), (2, 3)]

    def test_two_antichain_n2(self):
        assert len(brute_force_strict_maps(antichain_poset(2), 2)) == 4

    def test_singleton_n1(self):
        assert len(brute_force_strict_maps(antichain_poset(1), 1)) == 1

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            brute_force_strict_maps(antichain_poset(6), 100, max_assignments=1000)


class TestExtendedPolynomials:
    def test_two_chain_subposet_sum(self):
        assert extended_poly_subposet_sum(chain_poset(2), 2) == (1, 4, 1)

    def test_empty_poset(self):
        assert extended_poly_subposet_sum(antichain_poset(0), 3) == (1,)
        lab = natural_labeling(antichain_poset(0))
        assert extended_poly_extension_formula(antichain_poset(0), lab, 3) == (1,)

    def test_two_antichain_n1(self):
        assert extended_poly_subposet_sum(antichain_poset(2), 1) == (1, 2, 1)

    def test_two_chain_formula_binomials(self):
        chain = chain_poset(2)
        lab = natural_labeling(chain)
        for n in range(1, 7):
            expected = tuple(binom(2, k) * binom(n, k) for k in range(3))
            assert extended_poly_extension_formula(chain, lab, n) == expected

    def test_flake_formula_binomials(self):
        poset = build_poset(StripSpec(tuple("WWRNN"), 3))
        lab = natural_labeling(poset)
        for n in range(1, 7):
            expected = tuple(
                binom(6, k) * binom(n, k)
                + 3 * binom(4, k - 2) * binom(n + 1, k)
                + binom(2, k - 4) * binom(n + 2, k)
                for k in range(7)
            )
            assert extended_poly_extension_formula(poset, lab, n) == expected

    def test_routes_agree_on_synthetic_posets(self):
        posets = (
            [chain_poset(p) for p in range(0, 7)]
            + [antichain_poset(p) for p in range(0, 7)]
            + [fence_poset(p) for p in range(1, 7)]
        )
        for poset in posets:
            lab = natural_labeling(poset)
            for n in range(1, 7):
                assert extended_poly_subposet_sum(poset, n) == (
                    extended_poly_extension_formula(poset, lab, n)
                )

    def test_routes_agree_on_strip_posets(self, small_catalog):
        for spec in small_catalog:
            poset = build_poset(spec)
            lab = natural_labeling(poset)
            for n in range(1, 5):
                assert extended_poly_subposet_sum(poset, n) == (
                    extended_poly_extension_formula(poset, lab, n)
                )

    def test_labeling_invariance(self, small_catalog):
        rng = random.Random(1996)
        for spec in small_catalog[:10]:
            poset = build_poset(spec)
            reference = extended_poly_extension_formula(
                poset, natural_labeling(poset), spec.n
            )
            for _ in range(5):
                lab = random_natural_labeling(poset, rng)
                assert extended_poly_extension_formula(poset, lab, spec.n) == reference

    def test_subset_guard(self):
        with pytest.raises(GuardExceeded):
            extended_poly_subposet_sum(chain_poset(4), 2, max_p=3)
        assert extended_poly_subposet_sum(chain_poset(4), 2)[0] == 1

    def test_negative_n_rejected(self):
        poset = build_poset(StripSpec(tuple("WWRNN"), 3))
        with pytest.raises(ValueError, match="n must be nonnegative"):
            closed_form(StripSpec(tuple("WWRNN"), 3)).evaluate(-1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            extended_poly_extension_formula(poset, natural_labeling(poset), -1)

    def test_strict_order_poly_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            strict_order_poly(build_poset(StripSpec(tuple("WWRNN"), 3)), -1)


class TestZzPolynomialOfStrip:
    def test_parallelogram_2_2(self):
        assert zz_polynomial(StripSpec(tuple("WRN"), 2)).coeffs == (6, 6, 1)

    def test_single_tier_family(self):
        for n in range(1, 9):
            assert zz_polynomial(StripSpec(tuple("WN"), n)).coeffs == (n + 1, n)

    def test_non_kekulean_is_zero(self):
        assert zz_polynomial(StripSpec(tuple("WNNWWN"), 4)).is_zero

    def test_invalid_raises(self):
        with pytest.raises(InvalidStripError):
            zz_polynomial(StripSpec(tuple("RWN"), 2))

    def test_equals_closed_form_evaluation(self, catalog):
        for spec in catalog:
            assert zz_polynomial(spec) == closed_form(spec).evaluate(spec.n)


class TestACoefficients:
    def test_parallelogram(self):
        assert a_coefficients(StripSpec(tuple("WRN"), 2)) == (1, 4, 1)

    def test_single_tier(self):
        for n in (1, 3, 5):
            assert a_coefficients(StripSpec(tuple("WN"), n)) == (1, n)

    def test_expansion_matches_zz(self, small_catalog):
        for spec in small_catalog:
            a = a_coefficients(spec)
            assert a[0] == 1
            zz = zz_polynomial(spec)
            expanded = [0] * len(a)
            for k, a_k in enumerate(a):
                for i in range(k + 1):
                    expanded[i] += a_k * binom(k, i)
            assert ZzPolynomial.from_coeffs(expanded) == zz

    def test_non_kekulean_rejected(self):
        with pytest.raises(NonKekuleanError):
            a_coefficients(StripSpec(tuple("WNNWWN"), 4))


class TestClosedForm:
    def test_parallelogram_single_group(self):
        cf = closed_form(StripSpec(tuple("WRN"), 2))
        assert cf.p == 2
        assert cf.groups == ((0, 0, 1),)

    def test_flake_groups(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        assert cf.p == 6
        assert cf.groups == ((0, 0, 1), (1, 2, 3), (2, 4, 1))
        assert cf.extension_count == 5

    def test_single_tier_evaluates(self):
        cf = closed_form(StripSpec(tuple("WN"), 1))
        assert cf.p == 1 and cf.groups == ((0, 0, 1),)
        for n in range(1, 9):
            assert cf.evaluate(n).coeffs == (n + 1, n)

    def test_evaluation_reproduces_zz(self, small_catalog):
        for spec in small_catalog:
            cf = closed_form(spec)
            for n in range(1, 9):
                probe = StripSpec(spec.shapes, n)
                from zzstrips import validate

                if validate(probe).is_valid:
                    assert cf.evaluate(n) == zz_polynomial(probe)

    def test_form_independent_of_n(self):
        forms = {closed_form(StripSpec(tuple("WWRNN"), n)) for n in range(1, 6)}
        assert len(forms) == 1

    def test_text_and_latex(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        text = cf.as_text()
        assert "C(6,k)C(n,k)" in text
        assert "3C(4,k-2)C(n+1,k)" in text
        assert "C(2,k-4)C(n+2,k)" in text
        latex = cf.as_latex()
        assert r"\binom{6}{k}\binom{n}{k}" in latex

    def test_empty_poset_renders_one(self):
        # p = 0: the one empty extension, so the form is the constant 1
        cf = ClosedForm(0, ((0, 0, 1),))
        assert cf.as_text() == cf.as_latex() == "1"

    def test_json_round_trip(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        assert ClosedForm.from_json(cf.to_json()) == cf

    def test_to_json_equals_json_dumps(self):
        # to_json builds its string by hand, and zz, closed-form and
        # catalog write it into their json lines
        forms = [ClosedForm(0, ((0, 0, 1),))]
        forms += [closed_form(StripSpec(shapes, 2)) for shapes in catalog_shapes(6)]
        assert len(forms) > 100
        for cf in forms:
            groups = [{"des": d, "fix": f, "mult": m} for d, f, m in cf.groups]
            assert cf.to_json() == json.dumps({"p": cf.p, "groups": groups})

    @pytest.mark.parametrize(
        "field, value", [("p", 1.7), ("p", True), ("des", "0"), ("fix", 0.0), ("mult", 1.5)]
    )
    def test_json_rejects_non_integers(self, field, value):
        # int() would turn "p": 1.7 into 1
        data = {"p": 1, "groups": [{"des": 0, "fix": 0, "mult": 1}]}
        (data if field == "p" else data["groups"][0])[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ClosedForm.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "text",
        [
            '{"p": 1}',
            '{"groups": []}',
            '{"p": 1, "groups": 5}',
            '{"p": 1, "groups": [[0, 0, 1]]}',
            '{"p": 1, "groups": [{"des": 0, "fix": 0}]}',
            "[1]",
        ],
    )
    def test_json_rejects_malformed_structure(self, text):
        with pytest.raises(ValueError):
            ClosedForm.from_json(text)

    @pytest.mark.parametrize(
        "p, groups",
        [
            (-1, ((0, 0, 1),)),
            (1, ()),
            (1, ((-1, 0, 1),)),
            (1, ((0, -1, 1),)),
            (1, ((0, 5, 1),)),
            (1, ((0, 0, 0),)),
            (1, ((0, 0, -3),)),
            (2, ((0, 0, 1), (1, 1, -1))),
        ],
    )
    def test_rejects_groups_outside_domain(self, p, groups):
        # row_blocks relies on nonnegative terms that never decrease in n
        with pytest.raises(ValueError):
            ClosedForm(p, groups)
        with pytest.raises(ValueError):
            ClosedForm(p=p, groups=groups)
        data = {"p": p, "groups": [{"des": d, "fix": f, "mult": m} for d, f, m in groups]}
        with pytest.raises(ValueError):
            ClosedForm.from_json(json.dumps(data))


def _weak_maps(poset, n):
    """Brute-force count of the weakly order-preserving maps into {1, .., n}."""
    pairs = [(i, j) for i, a in enumerate(poset.elements)
             for j, b in enumerate(poset.elements) if poset.less(a, b)]
    return sum(
        all(values[i] <= values[j] for i, j in pairs)
        for values in itertools.product(range(1, n + 1), repeat=poset.p)
    )


_SMALL_STRIPS = all_strips(3, (1, 2, 3))


@st.composite
def _small_subposets(draw):
    spec = draw(st.sampled_from(_SMALL_STRIPS))
    poset = build_poset(spec)
    members = draw(st.lists(st.sampled_from(poset.elements), unique=True, max_size=6))
    return poset.subposet(members)



class TestValuesAtMinusOne:
    """At z = 1 + x = 0 the sum E(n, z) = sum over A of the strict order
    polynomial of A at n times z^|A| keeps two terms: the empty A gives
    1, and each of the p one-element A gives n strict maps. So
    ZZ(S_n, -1) = 1 (Zhang and Zhang) and ZZ'(S_n, -1) = p n."""

    def test_closed_forms_of_the_catalog(self):
        checks = 0
        for shapes in catalog_shapes(8):
            cf = closed_form(StripSpec(shapes, 2))
            for n in (2, 5, 11):
                coeffs = cf.evaluate(n).coeffs
                assert sum(c * (-1) ** k for k, c in enumerate(coeffs)) == 1, (shapes, n)
                slope = sum(k * c * (-1) ** (k - 1) for k, c in enumerate(coeffs))
                assert slope == cf.p * n, (shapes, n)
                checks += 1
        assert checks == 3 * 1148

class TestReciprocity:
    """Stanley, EC1 3.15: the strict order polynomial at -n is (-1)^p
    times the order polynomial at n, which counts weakly
    order-preserving maps."""

    @settings(max_examples=60, deadline=None)
    @given(_small_subposets(), st.integers(1, 4))
    def test_strict_at_minus_n_counts_weak_maps(self, sub, n):
        p = sub.p
        des_mults = [(des, mult) for (des, _), mult
                     in des_fix_counts(natural_labeling(sub)).items()]
        # the des-group sum of strict_order_poly, at n and continued to -n
        # through C(-n + des, p) = (-1)^p C(n - des + p - 1, p)
        assert sum(m * math.comb(n + d, p) for d, m in des_mults) == strict_order_poly(sub, n)
        at_minus_n = sum(m * (-1) ** p * math.comb(n - d + p - 1, p) for d, m in des_mults)
        assert (-1) ** p * at_minus_n == _weak_maps(sub, n)


def _block_rows(cf, lo, hi):
    """The rows of cf.row_blocks(lo, hi), each checked to sit in a block
    of at most ROW_BLOCK rows that no row spans."""
    slots = cf.p + 2
    rows = []
    for block in cf.row_blocks(lo, hi):
        assert len(block) % slots == 0
        assert 0 < len(block) // slots <= ROW_BLOCK
        rows += [block[i : i + slots] for i in range(0, len(block), slots)]
    return rows


def _reference_rows(cf, lo, hi):
    """The rows (n, c_0, .., c_p) for n = lo..hi by the reference
    evaluation, c_p = 0 included."""
    rows = []
    for n in range(lo, hi + 1):
        coeffs = evaluate_form(cf, n).coeffs
        rows.append((n, *coeffs) + (0,) * (cf.p + 1 - len(coeffs)))
    return rows


def _check_values(cf, lo, hi):
    # the packed rows, and evaluate, which is one row of them, each
    # against the reference's binomial expansion
    expected = _reference_rows(cf, lo, hi)
    assert _block_rows(cf, lo, hi) == expected
    assert [cf.evaluate(n) for n in range(lo, hi + 1)] == [
        ZzPolynomial.from_coeffs(row[1:]) for row in expected
    ]


class TestFormValues:
    @pytest.mark.parametrize("shapes", catalog_shapes(6))
    def test_equals_reference_on_catalog(self, shapes):
        cf = closed_form(StripSpec(shapes, 2))
        p = cf.p
        for lo, hi in ((1, 1), (1, p), (2, 121), (10**6, 10**6 + p + 2)):
            _check_values(cf, lo, hi)

    def test_empty_poset(self):
        cf = ClosedForm(0, ((0, 0, 1),))
        assert _block_rows(cf, 0, 4) == [(n, 1) for n in range(5)]
        assert [cf.evaluate(n) for n in range(5)] == [ZzPolynomial((1,))] * 5

    def test_empty_range(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        assert list(cf.row_blocks(5, 4)) == []

    def test_negative_n_rejected(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        with pytest.raises(ValueError):
            cf.evaluate(-1)
        with pytest.raises(ValueError):
            list(cf.row_blocks(-1, 3))

    @pytest.mark.parametrize(
        "strip",
        [
            "WRN 8",
            "WRRRRRRRRN 4",
            "WWRNN 20",
            "WWWRNNN 3",
            "WWWRNNN 20",
            "WWWNWNNN 3",
            "WWWRRRNNN 3",
            "WWWWRNNNN 3",
        ],
    )
    def test_packed_table_equals_reference(self, strip):
        # slots from a few bits wide at small n to hundreds of bits at
        # n = 10**12 and p = 20
        cf = closed_form(parse_strip(strip))
        p = cf.p
        for lo, hi in ((0, 3 * p), (1, 400), (10**12, 10**12 + 2 * p)):
            _check_values(cf, lo, hi)

    @pytest.mark.parametrize(
        "hi, bits", [(2**62, 64), (2**63, 65), (2**64 - 1, 65)], ids=["2^62", "2^63", "2^64-1"]
    )
    def test_slot_width_boundary(self, hi, bits):
        # ZZ(S_hi, 1) of WN, (n + 1) + nx at n = hi, fills exactly 64 bits
        # at hi = 2^62, the widest that 64-bit slots take, and 65 bits at
        # hi = 2^63, which takes shift and mask; at hi = 2^64 - 1 its
        # constant term needs 65 bits itself
        cf = closed_form(StripSpec(tuple("WN"), 2))
        assert evaluate_form(cf, hi).evaluate(1).bit_length() == bits
        _check_values(cf, hi - cf.p - 3, hi)

    def test_group_sum_calls(self, monkeypatch):
        # one _group_sum per seed row, and one more at hi for the slot
        # width when hi is past the seeds: 1 call for a single n, k for a
        # range of k <= max(p, 1) + 1 values, max(p, 1) + 2 beyond that
        cf = closed_form(StripSpec(tuple("WWWNNN"), 2))
        assert cf.p == 9
        group_sum = order_polynomials._group_sum
        calls = []

        def counting(p, groups, n):
            calls.append(n)
            return group_sum(p, groups, n)

        monkeypatch.setattr(order_polynomials, "_group_sum", counting)
        for lo, hi, count in ((7, 7, 1), (2, 5, 4), (2, 11, 10), (2, 121, 11)):
            calls.clear()
            assert _block_rows(cf, lo, hi) == _reference_rows(cf, lo, hi)
            assert len(calls) == count, (lo, hi)
        calls.clear()
        assert cf.evaluate(7) == evaluate_form(cf, 7)
        assert calls == [7]


class TestRowBlocks:
    @pytest.mark.parametrize(
        "shapes, lo, hi",
        [
            ("WWWRNNN", 1, 600),  # across two block boundaries
            # 133-bit slots; the second block, of 5 rows, is shorter than
            # the 21 seed rows of the difference table it carries on
            ("WWWWRNNNN", 250, 510),
            ("WWWNNN", 1, 12),  # n = 1-4 lack the x^9 term
            ("WWWWRNNNN", 1, 30),  # n = 1-7 lack the x^20 term
            ("WN", 5, 5),
        ],
    )
    def test_rows_equal_reference(self, shapes, lo, hi):
        # n in slot 0 and every c_i, c_p = 0 included, as the CLI reads them
        cf = closed_form(StripSpec(tuple(shapes), 2))
        assert _block_rows(cf, lo, hi) == _reference_rows(cf, lo, hi)

    @pytest.mark.parametrize("shapes, short", [("WWWNNN", 4), ("WWWWRNNNN", 7)])
    def test_short_rows_lead_the_range(self, shapes, short):
        cf = closed_form(StripSpec(tuple(shapes), 2))
        rows = _block_rows(cf, 1, 30)
        assert [row[0] for row in rows if not row[-1]] == list(range(1, short + 1))

    def test_block_sizes(self):
        cf = closed_form(StripSpec(tuple("WWRNN"), 2))
        slots = cf.p + 2
        assert [len(b) // slots for b in cf.row_blocks(1, 600)] == [256, 256, 88]
        assert list(cf.row_blocks(5, 4)) == []

    def test_empty_poset_slot_zero_holds_n(self):
        # E(hi, 2) = 1 gives one bit; slot 0 must still be as wide as n,
        # here past 2^64, and n steps although no coefficient moves
        cf = ClosedForm(0, ((0, 0, 1),))
        lo, hi = 2**64 - 3, 2**64 + 3
        assert _block_rows(cf, lo, hi) == [(n, 1) for n in range(lo, hi + 1)]
        assert [cf.evaluate(n) for n in range(lo, hi + 1)] == [ZzPolynomial((1,))] * 7
