"""The public surface of the package: what ``import zzstrips`` offers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zzstrips
import zzstrips.cli
import zzstrips.dib_poset
import zzstrips.extension_engine
import zzstrips.oracle
import zzstrips.order_polynomials


def _bound_public_names() -> set[str]:
    """Public names the top-level statements of __init__.py bind."""
    tree = ast.parse(Path(zzstrips.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_names_resolve_once():
    assert len(zzstrips.__all__) == len(set(zzstrips.__all__))
    for name in zzstrips.__all__:
        assert getattr(zzstrips, name) is not None, name


def test_all_equals_the_bound_names():
    assert set(zzstrips.__all__) == _bound_public_names()


@pytest.mark.parametrize(
    "name",
    [
        "binom",
        "a_coefficients",
        "brute_force_strict_maps",
        "linear_extensions",
        "iter_extension_records",
        "fixed_labels",
        "descent_stats",
        "_walk",
        "extended_poly_extension_formula",
        "ExplicitClarCover",
        "_hexagon_conflicts",
        "iter_clar_covers",
        "enumerate_clar_covers",
        "zz_from_covers",
        "zz_from_matchings",
    ],
)
@pytest.mark.parametrize(
    "module",
    [zzstrips, zzstrips.order_polynomials, zzstrips.extension_engine, zzstrips.oracle],
    ids=lambda m: m.__name__,
)
def test_test_references_stay_out_of_the_package(module, name):
    assert not hasattr(module, name)


def test_one_set_bit_lister():
    assert zzstrips.extension_engine._bits is zzstrips.dib_poset._bits


def test_oracle_counts_the_proper_pattern_only():
    # the mirrored pattern is a test reference, not an option of the oracle
    graph = zzstrips.build_graph(zzstrips.parse_strip("WRN 2"))
    matching = zzstrips.enumerate_perfect_matchings(graph)[0]
    with pytest.raises(TypeError):
        zzstrips.count_proper_sextets(graph, matching, mirrored=True)
    with pytest.raises(TypeError):
        zzstrips.count_sextet_matchings(graph, mirrored=True)


def test_benchmark_recorder_imports_resolve():
    # The benchmark scripts import the package by name; a name they read
    # that the package drops would break them with no other test failing.
    perfbench = Path(zzstrips.__file__).parents[2] / "perfbench"
    imported, read = set(), set()
    for script in ("record.py", "child.py"):
        for node in ast.walk(ast.parse((perfbench / script).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "zzstrips":
                imported.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cli"
            ):
                read.add(node.attr)
    assert imported and read
    assert imported <= set(zzstrips.__all__), imported - set(zzstrips.__all__)
    assert all(hasattr(zzstrips.cli, attr) for attr in read), read


def test_cli_import_skips_argparse_and_the_dataclass_machinery():
    # Every value record is a NamedTuple and argv is read from one table,
    # so a cold CLI request pays for none of argparse, dataclasses or the
    # inspect module that dataclasses imports.
    src = str(Path(zzstrips.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, zzstrips.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout == "[]\n"
