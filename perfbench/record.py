"""Record the benchmark's expected outputs into expected.json.

Usage (from the root of a checkout; takes about two minutes):

    python3 perfbench/record.py

Run it only when a workload's requests change. Every recorded output is
first cross-checked once against a route independent of the one the
CLI request takes:

- ladder strips with p <= 12 and every family closed form: the
  definitional subposet sum ``extended_poly_subposet_sum``;
- the p = 14 and p = 18 ladder rungs: the ``enumerate_kekule`` count
  must equal zz(0) and the ``generate_clar_covers`` count zz(1);
- ``oracle`` requests exit 0 only when their three routes agree, and
  ``kekule``/``clar`` line counts must equal zz(0)/zz(1).

Finally every workload's requests run once through the benchmark's own
check against the new file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from child import run_request

ROOT = Path(__file__).resolve().parent.parent
SUBPOSET_MAX_P = 12


def fail(message: str) -> None:
    raise SystemExit(f"record: {message}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import zzstrips.cli as cli
    from zzstrips import (
        StripSpec,
        build_poset,
        closed_form,
        enumerate_kekule,
        extended_poly_subposet_sum,
        generate_clar_covers,
        parse_strip,
        zz_polynomial,
    )

    def subposet_zz(spec) -> tuple[int, ...]:
        poset = build_poset(spec)
        return workloads.z_to_x(extended_poly_subposet_sum(poset, spec.n, max_p=SUBPOSET_MAX_P))

    def groups_json(form) -> list[dict]:
        return [{"des": d, "fix": f, "mult": m} for d, f, m in form.groups]

    expected = {"families": {}, "ladder": {}, "enumerate": {}, "setup": {}}

    for shapes in cli.catalog_shapes(5):
        family = "".join(shapes)
        form = closed_form(StripSpec(shapes, 2))
        groups = tuple(sorted(form.groups))
        for n in (workloads.FAMILY_N_MIN, 3, workloads.FAMILY_N_MAX):
            mine = workloads.zz_from_groups(form.p, groups, n)
            if mine != subposet_zz(StripSpec(shapes, n)):
                fail(f"{family} n={n}: closed form disagrees with the subposet sum")
        expected["families"][family] = {"p": form.p, "groups": groups_json(form)}
    print(f"families: {len(expected['families'])} closed forms checked", flush=True)

    for strip in workloads.LADDER:
        spec = parse_strip(strip)
        result = run_request(cli, ["zz", strip, "--format", "json"], keep=True)
        if result["exit"] != 0:
            fail(f"zz {strip} exited {result['exit']}")
        (line,) = workloads.parse_zz_lines(result["out_text"])
        zz = tuple(line["zz"]["coeffs"])
        p = line["closed_form"]["p"]
        groups = workloads.groups_of(line["closed_form"])
        if workloads.zz_from_groups(p, groups, spec.n) != zz:
            fail(f"{strip}: closed form disagrees with zz")
        if p <= SUBPOSET_MAX_P:
            if subposet_zz(spec) != zz:
                fail(f"{strip}: zz disagrees with the subposet sum")
            route = "subposet sum"
        else:
            kekule = sum(1 for _ in enumerate_kekule(spec))
            clar = sum(1 for _ in generate_clar_covers(spec))
            if (kekule, clar) != (zz[0], sum(zz)):
                fail(f"{strip}: {kekule} structures and {clar} covers, zz gives "
                     f"{zz[0]} and {sum(zz)}")
            route = f"{kekule} structures, {clar} Clar covers"
        expected["ladder"][strip] = {"shapes": "".join(spec.shapes), "n": spec.n, "p": p,
                                     "zz": list(zz), "groups": line["closed_form"]["groups"]}
        print(f"ladder {strip}: p={p}, checked by {route}", flush=True)

    for argv in workloads.ENUMERATE:
        result = run_request(cli, list(argv), keep=False)
        if result["exit"] != 0 or result["err_bytes"]:
            fail(f"{' '.join(argv)} exited {result['exit']}: {result['err_text']}")
        mode, strip = argv[0], argv[1]
        if mode in ("kekule", "clar"):
            zz = zz_polynomial(parse_strip(strip)).coeffs
            want = zz[0] if mode == "kekule" else sum(zz)
            if result["out_lines"] != want:
                fail(f"{' '.join(argv)}: {result['out_lines']} lines, zz gives {want}")
        expected["enumerate"][workloads.enum_key(argv)] = {
            "lines": result["out_lines"], "digest": result["out_digest"],
            "bytes": result["out_bytes"]}
        print(f"enumerate {' '.join(argv)}: {result['out_lines']} lines", flush=True)

    result = run_request(cli, list(workloads.SETUP_ARGV), keep=True)
    if result["out_text"] != "x^2 + 6x + 6\n":
        fail(f"zz WRN 2 printed {result['out_text']!r}")
    expected["setup"]["stdout"] = result["out_text"]

    for workload in workloads.WORKLOADS:
        for request in workloads.build_requests(workload, 0, expected):
            problem = workloads.check_request(
                request, run_request(cli, request["argv"], request["keep"]), expected)
            if problem:
                fail(f"{workload} {' '.join(request['argv'])}: {problem}")
        print(f"{workload}: passes its check", flush=True)

    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
