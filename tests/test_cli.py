import json
import os

import pytest

from zzstrips import (
    DibPoset,
    StripSpec,
    ZzPolynomial,
    build_graph,
    build_poset,
    closed_form,
    enumerate_clar_covers,
    enumerate_kekule,
    generate_clar_covers,
    map_from_kekule,
    parse_strip,
    validate,
    zz_from_covers,
)
from zzstrips.cli import catalog_shapes, main
from zzstrips.strip_geometry import mirror_orbit


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


class TestProfileMode:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "WWRNN 3")
        assert code == 0
        assert "i_2: size 5, order 2" in out
        assert "valid: yes" in out

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


class TestKekuleLineEncoding:
    @pytest.mark.parametrize("text", ["WN 1", "WRN 2", "WWRNN 2"])
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


class TestClarLineEncoding:
    @pytest.mark.parametrize("text", ["WN 1", "WRN 2", "WWRNN 2"])
    def test_lines_equal_json_dumps(self, capsys, text):
        spec = parse_strip(text)
        expected = []
        for rec in generate_clar_covers(spec):
            om = map_from_kekule(spec, rec.base)
            expected.append(json.dumps({
                "A": [{"k": d.k, "j": d.j} for d in om.elements],
                "mu": list(om.values),
                "pos": [[e.k, p] for e, p in zip(rec.base.elements, rec.base.positions)],
                "aromatic": [{"k": d.k, "j": d.j} for d in rec.aromatic],
            }))
        code, out, _ = run_cli(capsys, "clar", text)
        assert code == 0
        assert out.splitlines() == expected

    def test_structures_split_into_blocks_write_the_same_lines(self, capsys, monkeypatch):
        # with one-member blocks every structure with |A| > 1 takes the
        # route that large domains take, writing several blocks
        _, whole, _ = run_cli(capsys, "clar", "WWRNN 3")
        monkeypatch.setattr("zzstrips.kekule_bijection.BLOCK_BITS", 1)
        monkeypatch.setattr("zzstrips.cli.BLOCK_BITS", 1)
        code, split, _ = run_cli(capsys, "clar", "WWRNN 3")
        assert code == 0
        assert split == whole


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


class TestCatalogMode:
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
