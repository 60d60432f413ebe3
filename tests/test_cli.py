import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zzstrips import (
    DibPoset,
    NonKekuleanError,
    StripSpec,
    ZzPolynomial,
    build_graph,
    build_poset,
    closed_form,
    enumerate_kekule,
    extension_records,
    generate_clar_covers,
    map_from_kekule,
    natural_labeling,
    parse_strip,
    validate,
    zz_polynomial,
)
from zzstrips.cli import OPTIONS, catalog_shapes, main, parse_args
from zzstrips.strip_geometry import mirror_orbit

from reference import enumerate_clar_covers, evaluate_form, zz_from_covers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZzMode:
    def test_parallelogram_text(self, capsys):
        code, out, _ = run_cli(capsys, "zz", "--shapes", "WRN", "--length", "2")
        assert code == 0
        assert out.strip() == "x^2 + 6x + 6"

    def test_positional_strip(self, capsys):
        code, out, _ = run_cli(capsys, "zz", "M 2 2")
        assert code == 0
        assert out.strip() == "x^2 + 6x + 6"

    def test_non_kekulean_warns(self, capsys):
        code, out, err = run_cli(capsys, "zz", "--shapes", "WNNWWN", "--length", "4")
        assert code == 0
        assert out.strip() == "0"
        assert "non-Kekulean: ord(i_3) = -1" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "zz", "--shapes", "WRN", "--length", "2",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        spec = StripSpec.from_json(json.dumps({"shapes": data["shapes"], "n": data["n"]}))
        assert spec == StripSpec(tuple("WRN"), 2)
        zz = ZzPolynomial.from_json(json.dumps(data["zz"]))
        assert zz.coeffs == (6, 6, 1)

    def test_n_range(self, capsys):
        code, out, _ = run_cli(capsys, "zz", "--shapes", "WN", "--n-range", "1..3")
        assert code == 0
        assert out.splitlines() == ["x + 2", "2x + 3", "3x + 4"]

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "zz", "--shapes", "WRN", "--length", "2",
                               "--format", "latex")
        assert out.strip() == "x^{2} + 6x + 6"

    def test_invalid_strip_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "zz", "--shapes", "RWN", "--length", "2")
        assert code == 2
        assert "first fragment" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize("shapes", ["WN", "WRN", "WWRNN", "WLRN", "WNWN", "WNNWWN"])
    def test_n_range_matches_single_runs(self, capsys, shapes, fmt):
        # WNNWWN is non-Kekulean, and valid only from n=3 on
        code, out, err = run_cli(capsys, "zz", "--shapes", shapes, "--n-range", "3..7",
                                 "--format", fmt)
        assert code == 0
        singles = []
        for n in range(3, 8):
            single = run_cli(capsys, "zz", "--shapes", shapes, "--length", str(n),
                             "--format", fmt)
            assert single[0] == 0
            singles.append(single)
        assert out == "".join(single_out for _, single_out, _ in singles)
        assert err == "".join(single_err for _, _, single_err in singles)

    def test_n_range_stops_at_invalid_n(self, capsys):
        # WNWN has an empty second tier at n=1, the first n of the range
        code, out, err = run_cli(capsys, "zz", "--shapes", "WNWN", "--n-range", "1..3")
        assert code == 2
        assert out == ""
        assert err == "error: tier 2 has no hexagons (|i_2| = 1)\n"
        single_code, single_out, _ = run_cli(capsys, "zz", "--shapes", "WNWN",
                                             "--length", "1")
        assert (single_code, single_out) == (2, "")

    def test_positional_strip_with_n_range(self, capsys):
        # WNWN is invalid at the strip's own n=1 but valid from n=2 on,
        # where the range starts
        positional = run_cli(capsys, "zz", "WNWN 1", "--n-range", "2..4")
        by_shapes = run_cli(capsys, "zz", "--shapes", "WNWN", "--n-range", "2..4")
        assert positional == by_shapes
        assert positional[0] == 0
        assert len(positional[1].splitlines()) == 3

    def test_parse_error_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "zz", "WXN 3")
        assert code == 2
        code, _, _ = run_cli(capsys, "zz", "--shapes", "WRN")
        assert code == 2

    @pytest.mark.parametrize("shapes", ["WN", "WRN", "WWRNN", "WLRN", "WRRRRRRRRN"])
    def test_n_range_json_lines_equal_json_dumps(self, capsys, shapes):
        # p runs from 1 to 9 over these families
        code, out, err = run_cli(capsys, "zz", "--shapes", shapes, "--n-range", "1..30",
                                 "--format", "json")
        assert (code, err) == (0, "")
        cf = closed_form(StripSpec(tuple(shapes), 1))
        expected = [
            json.dumps({
                "shapes": list(shapes),
                "n": n,
                "zz": {"coeffs": list(evaluate_form(cf, n).coeffs)},
                "closed_form": json.loads(cf.to_json()),
            })
            for n in range(1, 31)
        ]
        assert out.splitlines() == expected

    @pytest.mark.parametrize("argv, shapes, ns", [
        (["WRN 2"], "WRN", [2]),
        (["--shapes", "WWRNN", "--n-range", "1..5"], "WWRNN", [1, 2, 3, 4, 5]),
        # non-Kekulean: no closed form, and ZZ = 0
        (["WNNWWN 4"], "WNNWWN", [4]),
    ])
    def test_json_lines_equal_json_dumps(self, capsys, argv, shapes, ns):
        # the lines are built by hand, without json.dumps
        code, out, _ = run_cli(capsys, "zz", *argv, "--format", "json")
        assert code == 0
        expected = []
        for n in ns:
            data = {"shapes": list(shapes), "n": n}
            try:
                cf = closed_form(StripSpec(tuple(shapes), n))
            except NonKekuleanError:
                data["zz"] = {"coeffs": []}
            else:
                data["zz"] = {"coeffs": list(evaluate_form(cf, n).coeffs)}
                data["closed_form"] = json.loads(cf.to_json())
            expected.append(json.dumps(data) + "\n")
        assert out == "".join(expected)

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_n_range_across_write_blocks(self, capsys, fmt):
        # 600 lines fill two blocks of lines and part of a third
        code, out, err = run_cli(capsys, "zz", "--shapes", "WWWRNNN", "--n-range", "1..600",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        singles = []
        for n in range(1, 601):
            single = run_cli(capsys, "zz", "--shapes", "WWWRNNN", "--length", str(n),
                             "--format", fmt)
            assert single[0] == 0
            singles.append(single[1])
        assert out == "".join(singles)

    @pytest.mark.parametrize(
        "shapes, lo, hi", [("WWWWRNNNN", 1, 300), ("WWWWRNNNN", 170, 200), ("WWWNNN", 1, 600)]
    )
    def test_n_range_block_lines_equal_json_dumps(self, capsys, shapes, lo, hi):
        # WWWWRNNNN from 1: rows without the x^20 term, slots wider than
        # 64 bits and one block boundary; from 170: 133-bit slots with
        # seed rows of their own; WWWNNN: 64-bit slots, two boundaries
        code, out, err = run_cli(capsys, "zz", "--shapes", shapes, "--n-range", f"{lo}..{hi}",
                                 "--format", "json")
        assert (code, err) == (0, "")
        cf = closed_form(StripSpec(tuple(shapes), lo))
        expected = [
            json.dumps({
                "shapes": list(shapes),
                "n": n,
                "zz": {"coeffs": list(evaluate_form(cf, n).coeffs)},
                "closed_form": json.loads(cf.to_json()),
            })
            for n in range(lo, hi + 1)
        ]
        assert out.splitlines() == expected

    def test_n_range_json_non_kekulean(self, capsys):
        code, out, err = run_cli(capsys, "zz", "--shapes", "WNNWWN", "--n-range", "4..6",
                                 "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["n"] for line in lines] == [4, 5, 6]
        for line in lines:
            assert "closed_form" not in line
            assert line["zz"] == {"coeffs": []}
        warnings = err.splitlines()
        assert len(warnings) == 3
        assert all(w.startswith("warning: ") for w in warnings)


class TestProfileMode:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "WWRNN 3")
        assert code == 0
        assert "i_2: size 5, order 2" in out
        assert "valid: yes" in out

    def test_empty_shapes_have_no_tiers(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--shapes", "", "--length", "2")
        assert code == 0
        assert out.splitlines()[0] == "shapes   n=2  m=0"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "WNNWWN 4", "--format", "json")
        data = json.loads(out)
        assert data["orders"] == [1, 0, -1, 0, 1]
        assert data["valid"] is True
        assert data["kekulean"] is False


class TestPosetMode:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "WWRNN 3", "--format", "json")
        assert code == 0
        assert DibPoset.from_json(out) == build_poset(StripSpec(tuple("WWRNN"), 3))

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "WRN 2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph hasse {")

    def test_non_kekulean_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "poset", "WNNWWN 4")
        assert code == 2
        assert "non-Kekulean" in err


class TestExtensionsMode:
    def test_line_format(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "WWRNN 3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "123456 des=0 fix=0 descents={} fixed={}"
        assert any(line.startswith("132546 des=2 fix=4") for line in lines)

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "WRN 5", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"word": [1, 2], "des": 0, "fix": 0, "descents": [], "fixed": []}
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "text, p, count", [("WWRNN 3", 6, 5), ("WWWRNNN 3", 12, 462), ("WWWNWNNN 3", 14, 24024)]
    )
    def test_lines_equal_the_records(self, capsys, text, p, count, fmt):
        # 462 lines are two blocks of writes, 24,024 many; past p = 9 the
        # word's labels are separated by spaces
        poset = build_poset(parse_strip(text))
        assert poset.p == p
        records = list(extension_records(natural_labeling(poset)))
        if fmt == "json":
            expected = [
                json.dumps({"word": r.word, "des": r.des, "fix": r.fix,
                            "descents": r.descents, "fixed": r.fixed})
                for r in records
            ]
        else:
            sep = " " if p > 9 else ""
            expected = [
                f"{sep.join(map(str, r.word))} des={r.des} fix={r.fix} "
                f"descents={{{','.join(map(str, r.descents))}}} "
                f"fixed={{{','.join(map(str, r.fixed))}}}"
                for r in records
            ]
        code, out, _ = run_cli(capsys, "extensions", text, "--format", fmt)
        assert code == 0
        assert len(expected) == count
        assert out.splitlines() == expected


class TestClosedFormMode:
    def test_symbolic_text(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--shapes", "WWRNN")
        assert code == 0
        assert out.strip() == (
            "sum_{k=0..6} [ C(6,k)C(n,k) + 3C(4,k-2)C(n+1,k) + C(2,k-4)C(n+2,k) ] (1+x)^k"
        )

    def test_symbolic_json(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--shapes", "WRN",
                               "--format", "json")
        data = json.loads(out)
        assert data["closed_form"] == {"p": 2, "groups": [{"des": 0, "fix": 0, "mult": 1}]}
        assert "zz" not in data

    def test_with_length_includes_zz(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--shapes", "WRN",
                               "--length", "2", "--format", "json")
        data = json.loads(out)
        assert data["zz"]["coeffs"] == [6, 6, 1]


class TestEnumerationModes:
    def test_kekule_lines(self, capsys):
        code, out, _ = run_cli(capsys, "kekule", "WRN 2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 6
        assert rows[0] == {"A": [], "mu": [], "pos": [[1, 1], [2, 1]]}
        full = {"A": [{"k": 1, "j": 1}, {"k": 2, "j": 1}], "mu": [1, 2],
                "pos": [[1, 2], [2, 3]]}
        assert full in rows

    def test_clar_lines(self, capsys):
        code, out, _ = run_cli(capsys, "clar", "WRN 2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 13
        orders = sorted(len(r["aromatic"]) for r in rows)
        assert orders == [0] * 6 + [1] * 6 + [2]

    def test_kekule_p49_exits_0(self, capsys):
        # 2^49 subsets of DIBs, 3,432 structures: as many as ZZ(0) of the
        # packed (des, fix) DP, whose slots are about 210 bits wide here
        code, out, err = run_cli(capsys, "kekule", "WWWWWWWNNNNNNN 1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3432
        assert zz_polynomial(parse_strip("WWWWWWWNNNNNNN 1")).kekule_count == 3432

    @pytest.mark.parametrize("mode", ["kekule", "clar"])
    def test_format_is_json_only(self, capsys, mode):
        # both modes always write JSON lines; a text format would be ignored
        default = run_cli(capsys, mode, "WRN 2")
        assert default[0] == 0
        assert run_cli(capsys, mode, "WRN 2", "--format", "json") == default
        code, out, err = run_cli(capsys, mode, "WRN 2", "--format", "text")
        assert (code, out) == (2, "")
        assert "invalid choice: 'text'" in err


class TestKekuleLineEncoding:
    # WWRNN 5 has 1,176 structures: five blocks of writes; WRN 12 has
    # two-digit offsets and positions, WWWRNNN 3 16 DIBs
    @pytest.mark.parametrize(
        "text", ["WN 1", "WRN 2", "WWRNN 2", "WWRNN 5", "WRN 12", "WWWRNNN 3"]
    )
    def test_lines_equal_json_dumps(self, capsys, text):
        expected = [
            json.dumps({
                "A": [{"k": d.k, "j": d.j} for d in om.elements],
                "mu": list(om.values),
                "pos": [[e.k, p] for e, p in zip(ka.elements, ka.positions)],
            })
            for om, ka in enumerate_kekule(parse_strip(text))
        ]
        code, out, _ = run_cli(capsys, "kekule", text)
        assert code == 0
        assert out.splitlines() == expected


def _clar_lines(spec):
    """json.dumps of each generate_clar_covers record, with the (A, mu)
    that map_from_kekule reads off its structure."""
    lines = []
    for rec in generate_clar_covers(spec):
        om = map_from_kekule(spec, rec.base)
        lines.append(json.dumps({
            "A": [{"k": d.k, "j": d.j} for d in om.elements],
            "mu": list(om.values),
            "pos": [[e.k, p] for e, p in zip(rec.base.elements, rec.base.positions)],
            "aromatic": [{"k": d.k, "j": d.j} for d in rec.aromatic],
        }))
    return lines


class TestClarLineEncoding:
    # WWRNN 5: 14,921 covers in many blocks of writes
    @pytest.mark.parametrize("text", ["WN 1", "WRN 2", "WWRNN 2", "WRN 12", "WWRNN 5"])
    def test_lines_equal_json_dumps(self, capsys, text):
        code, out, _ = run_cli(capsys, "clar", text)
        assert code == 0
        assert out.splitlines() == _clar_lines(parse_strip(text))

    def test_tail_loop_follows_library_order(self, capsys, monkeypatch, small_catalog):
        # at ROW_BLOCK 2 clar doubles out one member of A, so every A of
        # two or more members writes its covers through the tail loop
        monkeypatch.setattr("zzstrips.cli.ROW_BLOCK", 2)
        for spec in small_catalog:
            code, out, _ = run_cli(capsys, "clar", f"{''.join(spec.shapes)} {spec.n}")
            assert code == 0
            assert out.splitlines() == _clar_lines(spec), spec

    @pytest.mark.parametrize("row_block", [2, 4])
    def test_structures_split_into_blocks_write_the_same_lines(
        self, capsys, monkeypatch, row_block
    ):
        # at ROW_BLOCK 2 and 4 clar doubles out one and two members of A,
        # so every structure with a larger A writes several blocks
        _, whole, _ = run_cli(capsys, "clar", "WWRNN 3")
        monkeypatch.setattr("zzstrips.cli.ROW_BLOCK", row_block)
        code, split, _ = run_cli(capsys, "clar", "WWRNN 3")
        assert code == 0
        assert split == whole


class TestSubsetEntryBounds:
    # WWRNN 3 and 5 do not fill clar's cache at the default bound (56 and
    # 64 subsets A); at 1 every entry is dropped before each new A
    @pytest.mark.parametrize("text", ["WWRNN 3", "WWRNN 5"])
    @pytest.mark.parametrize("mode", ["kekule", "clar"])
    def test_bounds_of_one_write_the_same_lines(self, capsys, monkeypatch, mode, text):
        _, whole, _ = run_cli(capsys, mode, text)
        monkeypatch.setattr("zzstrips.cli._TAILS_HELD", 1)
        code, bounded, _ = run_cli(capsys, mode, text)
        assert code == 0
        assert bounded == whole


class TestCellBounds:
    # at a bound and a run of 1 every cell table drops its one cell
    # before it renders the next
    @pytest.mark.parametrize("mode", ["kekule", "clar"])
    def test_bound_of_one_writes_the_same_lines(self, capsys, monkeypatch, mode):
        _, whole, _ = run_cli(capsys, mode, "WWRNN 5")
        monkeypatch.setattr("zzstrips.kekule_bijection.CELLS_HELD", 1)
        monkeypatch.setattr("zzstrips.kekule_bijection.CELL_RUN", 1)
        code, bounded, _ = run_cli(capsys, mode, "WWRNN 5")
        assert code == 0
        assert bounded == whole


class TestOracleMode:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "WRN 2")
        assert code == 0
        assert "DIFF: none" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "WN 1", "--format", "json")
        data = json.loads(out)
        assert data["agree"] is True
        assert data["poset"] == data["covers"] == data["sextets"] == {"coeffs": [2, 1]}

    def test_guard_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "WWRNN 3", "--max-vertices", "10")
        assert code == 3
        assert "guard" in err

    def test_covers_equal_enumeration(self, capsys, small_catalog):
        for spec in small_catalog:
            text = f"{''.join(spec.shapes)} {spec.n}"
            code, out, _ = run_cli(capsys, "oracle", text, "--format", "json")
            assert code == 0
            expected = zz_from_covers(enumerate_clar_covers(build_graph(spec)))
            assert json.loads(out)["covers"] == {"coeffs": list(expected.coeffs)}

    def test_guard_hit_before_any_output(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "WWWRNNN 3", "--max-vertices", "10")
        assert code == 3
        assert err.startswith("guard exceeded:")
        assert out == ""

    def test_no_guard_by_default(self, capsys):
        # 94 vertices: past the old default guard of 60, which no route
        # needs any more
        code, out, err = run_cli(capsys, "oracle", "WWWWRNNNN 3", "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["agree"] is True
        assert data["sextets"] == {"coeffs": list(zz_polynomial(parse_strip("WWWWRNNNN 3")).coeffs)}

    def test_negative_limit_exits_2_before_the_graph(self, capsys, monkeypatch):
        def no_graph(spec):
            raise AssertionError("graph built before the limit was checked")

        monkeypatch.setattr("zzstrips.cli.build_graph", no_graph)
        code, out, err = run_cli(capsys, "oracle", "WRN 2", "--max-vertices", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_zero_limit_is_a_guard(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "WN 1", "--max-vertices", "0")
        assert code == 3
        assert out == "" and err.startswith("guard exceeded:")

    def test_limit_equal_to_vertex_count_passes(self, capsys):
        # WWWRNNN 3 has exactly 66 vertices: the limit allows that many
        code, out, _ = run_cli(capsys, "oracle", "WWWRNNN 3", "--max-vertices", "66",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_limit_one_below_vertex_count_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "WWWRNNN 3", "--max-vertices", "65")
        assert code == 3
        assert out == "" and err.startswith("guard exceeded:")


class TestCatalogMode:
    @pytest.mark.parametrize("tiers", ["0", "-1"])
    def test_tiers_below_one_exit_2(self, capsys, tiers):
        code, out, err = run_cli(capsys, "catalog", "--tiers", tiers)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_bad_length_exits_2_before_the_listing(self, capsys):
        # listing 14 tiers takes minutes, so this returns at once only
        # when n is checked first
        code, out, err = run_cli(capsys, "catalog", "--tiers", "14", "--length", "0")
        assert code == 2
        assert out == ""
        assert err == "error: strip length must be a positive integer, got 0\n"

    def test_tiers_2_contains_parallelogram(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--tiers", "2")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("WRN ") and "C(2,k)C(n,k)" in line for line in lines)
        # mirror twin suppressed by default
        assert not any(line.startswith("WLN") for line in lines)

    def test_no_dedup_keeps_mirrors(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--tiers", "2", "--no-dedup")
        lines = out.splitlines()
        assert any(line.startswith("WLN") for line in lines)

    def test_json_with_length(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--tiers", "2", "--length", "2",
                               "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        para = next(r for r in rows if r["shapes"] == "WRN")
        assert para["zz"]["coeffs"] == [6, 6, 1]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_short_length_skips_invalid_families(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "catalog", "--tiers", "4", "--length", "1",
                               "--format", fmt)
        assert code == 0
        if fmt == "json":
            listed = [tuple(json.loads(line)["shapes"]) for line in out.splitlines()]
        else:
            listed = [tuple(line.split()[0]) for line in out.splitlines()]
        families = catalog_shapes(4)
        valid = [s for s in families if validate(StripSpec(s, 1)).is_valid]
        assert listed == valid
        assert len(valid) < len(families)

    def test_catalog_shapes_helper(self):
        shapes = catalog_shapes(3, dedup=False)
        assert ("W", "N") in shapes
        assert ("W", "R", "N") in shapes and ("W", "L", "N") in shapes
        # orders 1,2,1 fails the bottom-order rule unless the middle
        # fragment brings it back down
        assert ("W", "W", "N") not in shapes

    def test_mirror_orbit(self):
        orbit = mirror_orbit(tuple("WRN"))
        assert tuple("WLN") in orbit
        # the flake is symmetric under rotation
        assert mirror_orbit(tuple("WWRNN")) == {tuple("WWRNN"), tuple("WWLNN")}


class ClosedPipe:
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fd: int | None):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        if self.fd is None:
            raise OSError("no descriptor")
        return self.fd


class TestBrokenPipe:
    @pytest.mark.parametrize("mode", ["kekule", "clar", "extensions"])
    def test_closed_stdout_exits_141_without_traceback(self, capsys, monkeypatch, mode):
        monkeypatch.setattr("sys.stdout", ClosedPipe(None))
        code = main([mode, "WRN 2"])
        monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_descriptor_is_pointed_at_devnull(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "out.txt"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fd))
            assert main(["clar", "WRN 2"]) == 141
            monkeypatch.undo()
            # a later flush to the descriptor cannot fail or land anywhere
            os.write(fd, b"late flush")
        finally:
            os.close(fd)
        assert target.read_bytes() == b""


class TestUsage:
    def test_strip_from_file(self, capsys, tmp_path):
        strip_file = tmp_path / "strip.txt"
        strip_file.write_text("\nWRN 2\n")
        code, out, _ = run_cli(capsys, "zz", "--file", str(strip_file))
        assert code == 0
        assert out.strip() == "x^2 + 6x + 6"

    def test_missing_strip_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "zz")
        assert code == 2

    def test_conflicting_sources_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "zz", "WRN 2", "--shapes", "WRN", "--length", "2")
        assert code == 2

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "no-such-strip.txt"
        code, out, err = run_cli(capsys, "zz", "--file", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read ")
        code, _, err = run_cli(capsys, "zz", "--file", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot read ")
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00WRN 2")
        code, _, err = run_cli(capsys, "zz", "--file", str(binary))
        # a parse error instead where the locale encoding accepts the bytes
        assert code == 2
        assert err.startswith("error: ")

    def test_unknown_mode_exits_2(self, capsys):
        assert main(["no-such-mode"]) == 2

    def test_calls_share_no_parse_state(self, capsys):
        # main() reuses one parser per process; a failed or help call
        # must leave nothing behind for the next one
        first = run_cli(capsys, "zz", "--shapes", "WRN", "--length", "2")
        assert run_cli(capsys, "zz", "--format", "dot")[0] == 2
        code, out, _ = run_cli(capsys, "oracle", "--help")
        assert code == 0
        assert "--max-vertices" in out
        assert run_cli(capsys, "zz", "--shapes", "WRN", "--length", "2") == first
        code, _, err = run_cli(capsys, "zz", "--shapes", "WRN")
        assert (code, err) == (2, "error: missing --length\n")


_STRIP_FIELDS = {"strip": None, "shapes": None, "length": None, "file": None}
_DEFAULT_FIELDS = {
    "zz": {**_STRIP_FIELDS, "n_range": None, "fmt": "text"},
    "poset": {**_STRIP_FIELDS, "fmt": "text"},
    "kekule": {**_STRIP_FIELDS, "fmt": "json"},
    "oracle": {**_STRIP_FIELDS, "max_vertices": None, "fmt": "text"},
    # catalog takes no strip; its strip field stays None
    "catalog": {"strip": None, "tiers": None, "length": None, "no_dedup": False, "fmt": "text"},
}


class TestParser:
    @pytest.mark.parametrize("argv, given", [
        (["zz", "WRN 2"], {"strip": "WRN 2"}),
        (["zz", "WRN 2", "--format=json"], {"strip": "WRN 2", "fmt": "json"}),
        (["zz", "--format", "latex", "WRN 2"], {"strip": "WRN 2", "fmt": "latex"}),
        (["zz", "--shapes", "WN", "--length", "2", "--length", "3"],
         {"shapes": "WN", "length": 3}),
        (["zz", "--shapes", "WN", "--length", "-1"], {"shapes": "WN", "length": -1}),
        (["zz", "--shapes=WN", "--n-range=1..3"], {"shapes": "WN", "n_range": "1..3"}),
        # a known name before "=" makes an option, even with a space after
        (["zz", "--shapes=WN", "--length= 3"], {"shapes": "WN", "length": 3}),
        (["zz", "--file", "strip.txt"], {"file": "strip.txt"}),
        (["zz", "--", "WRN 2"], {"strip": "WRN 2"}),
        (["poset", "WRN 2", "--format", "dot"], {"strip": "WRN 2", "fmt": "dot"}),
        (["kekule", "WRN 2"], {"strip": "WRN 2", "fmt": "json"}),
        (["oracle", "WRN 2", "--max-vertices=-5"], {"strip": "WRN 2", "max_vertices": -5}),
        (["catalog", "--tiers", "3"], {"tiers": 3, "no_dedup": False}),
        (["catalog", "--no-dedup", "--tiers=2", "--length", "4", "--format", "json"],
         {"tiers": 2, "no_dedup": True, "length": 4, "fmt": "json"}),
    ])
    def test_fields(self, argv, given):
        mode = argv[0]
        assert vars(parse_args(argv)) == {"mode": mode, **_DEFAULT_FIELDS[mode], **given}

    @pytest.mark.parametrize("argv", [
        [],
        ["no-such-mode"],
        ["zz", "WRN 2", "--bogus"],
        ["zz", "WRN 2", "--bogus=1"],
        ["zz", "WRN 2", "-x"],
        # no unique-prefix abbreviations
        ["zz", "--shapes", "WN", "--len", "2"],
        ["zz", "WRN 2", "WN 1"],
        ["catalog", "--tiers", "2", "extra"],
        ["zz", "--shapes"],
        ["zz", "--shapes", "--length", "2"],
        ["zz", "--shapes", "WN", "--length", "x"],
        ["zz", "--shapes", "WN", "--length="],
        ["catalog", "--tiers", "2.5"],
        ["oracle", "WRN 2", "--max-vertices", "ten"],
        ["zz", "WRN 2", "--format", "csv"],
        ["kekule", "WRN 2", "--format=text"],
        ["catalog"],
        ["catalog", "--length", "3"],
        ["catalog", "--tiers", "2", "--no-dedup=x"],
        ["zz", "--n-range", "1..3", "--shapes", "-W"],
        # "--" as an explicit value is a value, not the end of the options
        ["zz", "--shapes=--", "--length=-1"],
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_bad_format_names_the_choice(self, capsys):
        code, _, err = run_cli(capsys, "kekule", "WRN 2", "--format=text")
        assert code == 2
        assert "invalid choice: 'text'" in err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_lists_every_mode(self, capsys, flag):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (0, "")
        for mode in OPTIONS:
            assert mode in out

    @pytest.mark.parametrize("mode", list(OPTIONS))
    def test_mode_help_lists_its_options(self, capsys, mode):
        code, out, err = run_cli(capsys, mode, "--help")
        assert (code, err) == (0, "")
        _, options, formats = OPTIONS[mode]
        for name in [*options, "--format", *formats]:
            assert name in out
        assert ("STRIP" in out) == (mode != "catalog")

    @pytest.mark.parametrize("argv", [
        ["zz", "--bogus", "-h"],
        ["zz", "WRN 2", "extra", "--help"],
        ["catalog", "--help"],
    ])
    def test_help_after_an_unknown_token_still_prints_help(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith(f"usage: zzstrips {argv[0]} ")

    def test_value_error_before_help_exits_2(self, capsys):
        assert run_cli(capsys, "zz", "--length", "x", "--help")[0] == 2

    def test_equals_form_matches_spaced_form(self, capsys):
        spaced = run_cli(capsys, "zz", "--shapes", "WWRNN", "--n-range", "1..4", "--format", "json")
        joined = run_cli(capsys, "zz", "--shapes=WWRNN", "--n-range=1..4", "--format=json")
        assert joined == spaced
        assert spaced[0] == 0

    def test_main_reads_sys_argv_without_an_argument(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["zzstrips", "zz", "--shapes", "WRN", "--length", "2"])
        assert main() == 0
        assert capsys.readouterr().out == "x^2 + 6x + 6\n"


class TestStripArguments:
    @pytest.mark.parametrize("bad, message", [
        ("x", "error: bad --n-range 'x', expected A..B\n"),
        ("3..1", "error: bad --n-range '3..1': n starts at 1 and A <= B\n"),
        ("0..2", "error: bad --n-range '0..2': n starts at 1 and A <= B\n"),
    ])
    def test_bad_n_range_exits_2(self, capsys, bad, message):
        code, out, err = run_cli(capsys, "zz", "--shapes", "WN", "--n-range", bad)
        assert (code, out, err) == (2, "", message)

    def test_file_of_blank_lines_exits_2(self, capsys, tmp_path):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n   \n\n")
        code, out, err = run_cli(capsys, "zz", "--file", str(blank))
        assert (code, out) == (2, "")
        assert err == f"error: no strip description found in {blank}\n"

    @pytest.mark.parametrize("argv", [
        ("zz", "WRN 2", "--length", "3"),
        ("closed-form", "WRN 2", "--length", "9"),
        ("profile", "WRN 2", "--length", "2"),
        ("zz", "--shapes", "WRN", "--length", "2", "--n-range", "3..3"),
        ("zz", "WRN 2", "--length", "2", "--n-range", "3..4"),
    ])
    def test_second_n_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_length_with_file_exits_2(self, capsys, tmp_path):
        strip_file = tmp_path / "strip.txt"
        strip_file.write_text("WRN 2\n")
        for mode in ("zz", "kekule"):
            code, out, err = run_cli(capsys, mode, "--file", str(strip_file),
                                     "--length", "5")
            assert (code, out) == (2, "")
            assert err.startswith("error: ")


class TestTextFormats:
    def test_closed_form_of_strip_text_ends_with_its_n(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "WWRNN 3")
        assert code == 0
        cf = closed_form(StripSpec(tuple("WWRNN"), 3))
        assert out.splitlines() == [cf.as_text(), f"n=3: {evaluate_form(cf, 3)}"]

    def test_closed_form_latex(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "WWRNN 3", "--format", "latex")
        assert code == 0
        assert out == closed_form(StripSpec(tuple("WWRNN"), 3)).as_latex() + "\n"

    def test_poset_text(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "WRN 2")
        assert code == 0
        assert out.splitlines() == ["p = 2", "elements: s(1,1), s(2,1)", "s(1,1) < s(2,1)"]

    def test_extensions_word_past_label_9_is_spaced(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "WRRRRRRRRRRN 1")
        assert code == 0
        assert out == "1 2 3 4 5 6 7 8 9 10 11 des=0 fix=0 descents={} fixed={}\n"

    def test_profile_lists_problems(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "WNWN 1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == "valid: no  kekulean: yes"
        assert lines[-1] == "  - tier 2 has no hexagons (|i_2| = 1)"


class TestOracleDisagreement:
    @pytest.fixture(autouse=True)
    def wrong_cover_route(self, monkeypatch):
        monkeypatch.setattr("zzstrips.cli.count_clar_covers",
                            lambda graph: ZzPolynomial((7, 6, 1)))

    def test_text_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "WRN 2")
        assert code == 1
        assert out.splitlines()[-4:] == [
            "DIFF: MISMATCH",
            "  poset:   (6, 6, 1)",
            "  covers:  (7, 6, 1)",
            "  sextets: (6, 6, 1)",
        ]

    def test_json_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "WRN 2", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["agree"] is False
        assert data["covers"] == {"coeffs": [7, 6, 1]}


# Generated argv for the exit-code contract. Every number that could
# parse stays at most 3 and every letter run at most 6 long, so no
# request lists much; "\u0663" is a digit three that int() accepts.
_NUMBERS = st.one_of(
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["0", "-1", "x", "2.5", "", " 3", "1e2", "\u0663"]),
)
_JUNK_LETTERS = st.lists(st.sampled_from(list("WNRLwnrl") + ["X", "1", " ", "-", "M"]), max_size=6)
_SHAPES = st.one_of(
    st.sampled_from(["".join(s) for s in catalog_shapes(5, dedup=False)]),
    _JUNK_LETTERS.map("".join),
)
_STRIP_TEXT = st.one_of(
    st.builds("{} {}".format, _SHAPES, _NUMBERS),
    st.builds("M {} {}".format, st.sampled_from(["0", "1", "2", "4", "x", "-1"]), _NUMBERS),
    _SHAPES,
)
_N_RANGES = st.sampled_from(
    ["1..3", "2..3", "1..1", "3..1", "0..2", "-1..2", "a..b", "1...3", "..", "2", "1..2..3", " 1..2"]
)


def _maybe(draw, chance: int) -> bool:
    """True about once in chance draws (the shrink target is False)."""
    return draw(st.integers(1, chance)) == chance


@st.composite
def _argv(draw):
    mode = draw(st.sampled_from(list(OPTIONS)))
    groups = []
    if mode == "catalog":
        if not _maybe(draw, 8):
            groups.append(["--tiers", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4", "x"]))])
        if _maybe(draw, 2):
            groups.append(["--no-dedup"])
        if _maybe(draw, 2):
            groups.append(["--length", draw(_NUMBERS)])
    else:
        source = draw(st.sampled_from(["text", "shapes"]))
        if _maybe(draw, 6):
            source = draw(st.sampled_from(["file", "both", "none"]))
        if source in ("text", "both"):
            groups.append([draw(_STRIP_TEXT)])
        if source in ("shapes", "both"):
            groups.append(["--shapes", draw(_SHAPES)])
        if source == "file":
            groups.append(["--file", "no-such-strip-file.txt"])
        if _maybe(draw, 1 if source == "shapes" else 8):
            groups.append(["--length", draw(_NUMBERS)])
    if mode == "zz" and _maybe(draw, 2):
        groups.append(["--n-range", draw(_N_RANGES)])
    if mode == "oracle" and _maybe(draw, 2):
        groups.append(["--max-vertices", draw(st.sampled_from(["-1", "0", "10", "66", "x"]))])
    if _maybe(draw, 3):
        groups.append(["--format", draw(st.sampled_from(["text", "json", "latex", "dot", "csv"]))])
    if _maybe(draw, 10):
        groups.append([draw(st.sampled_from(["--bogus", "-h", "--help", "extra"]))])
    order = draw(st.permutations(groups))
    # an option and its value as one --name=value token
    joined = st.booleans()
    order = [
        [f"{group[0]}={group[1]}"] if len(group) == 2 and draw(joined) else group
        for group in order
    ]
    return [mode] + [token for group in order for token in group]


class TestExitCodeContract:
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    @example(["oracle", "WRN 2", "--max-vertices", "10"])
    @example(["zz", "--shapes", "WN", "--n-range", "1..3", "--format", "latex"])
    def test_every_argv_exits_with_a_documented_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        # an exception out of main fails the test here
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        # exit 1 means the oracle's routes disagreed, and it says so
        if code == 1:
            assert argv[0] == "oracle"
            assert "DIFF: MISMATCH" in out.getvalue() or '"agree": false' in out.getvalue()
