"""Workload definitions and output checks for the zzstrips benchmark.

A request is one CLI invocation, given as the argv that
``zzstrips.cli.main`` receives. The seed picks family-sweep's n windows
and the request order of every workload; the ladder and oracle strips
are fixed. Expected outputs come from ``expected.json``, written once by
``record.py``; family-sweep's expected polynomials are evaluated here
from each family's recorded closed form, not by the library.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("poset-ladder", "family-sweep", "enumerate-verify")

# The p=20 flake WWWWRNNNN 3 is left out: one request takes about 240 s,
# too long for a timed run. WWWRRRNNN 3 (p=18) is the top rung instead.
LADDER = (
    "WRN 8",
    "WRRRRRRRRN 4",
    "WWRNN 20",
    "WWWRNNN 3",
    "WWWRNNN 20",
    "WWWNWNNN 3",
    "WWWRRRNNN 3",
)

ENUMERATE = (
    ("oracle", "WWWRNNN 3", "--max-vertices", "66"),
    ("oracle", "WWRNN 5", "--max-vertices", "62"),
    ("kekule", "WWWRNNN 3"),
    ("clar", "WWRNN 5"),
    ("clar", "WWWRNNN 3"),
)

# Every catalog family with at most 5 tiers is valid for n >= 2. Each
# family gets a window of FAMILY_WINDOW consecutive n values inside
# [FAMILY_N_MIN, FAMILY_N_MAX]; a fixed width keeps the work per pass
# nearly the same for every seed.
FAMILY_N_MIN = 2
FAMILY_N_MAX = 121
FAMILY_WINDOW = 80

SETUP_ARGV = ("zz", "WRN 2")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def enum_key(argv) -> str:
    return " ".join(argv)


def build_requests(workload: str, seed: int, expected: dict) -> list[dict]:
    """The workload's requests for this seed, in the order they run.

    Each request holds its ``argv``, whether its stdout is kept for the
    check (``keep``) and what to check it against (``check``).
    """
    rng = random.Random(seed)
    if workload == "poset-ladder":
        requests = [
            {"argv": ["zz", strip, "--format", "json"], "keep": True,
             "check": ["ladder", strip]}
            for strip in LADDER
        ]
    elif workload == "family-sweep":
        requests = []
        for family in expected["families"]:
            lo = rng.randint(FAMILY_N_MIN, FAMILY_N_MAX - FAMILY_WINDOW + 1)
            hi = lo + FAMILY_WINDOW - 1
            requests.append({
                "argv": ["zz", "--shapes", family, "--n-range", f"{lo}..{hi}",
                         "--format", "json"],
                "keep": True,
                "check": ["family", family, lo, hi],
            })
    elif workload == "enumerate-verify":
        requests = [
            {"argv": list(argv), "keep": False, "check": ["enum", enum_key(argv)]}
            for argv in ENUMERATE
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


@lru_cache(maxsize=None)
def zz_from_groups(p: int, groups: tuple[tuple[int, int, int], ...], n: int) -> tuple[int, ...]:
    """ZZ coefficients (ascending in x) from a closed form at length n:
    sum over groups of mult * C(p-fix, k-fix) * C(n+des, k) z^k, then
    z = 1 + x."""
    z = [0] * (p + 1)
    for des, fix, mult in groups:
        for k in range(fix, p + 1):
            z[k] += mult * comb(p - fix, k - fix) * comb(n + des, k)
    return z_to_x(z)


def z_to_x(z) -> tuple[int, ...]:
    """Substitute z = 1 + x; coefficients ascending, trailing zeros cut."""
    x = [0] * len(z)
    for k, c in enumerate(z):
        for i in range(k + 1):
            x[i] += c * comb(k, i)
    while x and x[-1] == 0:
        x.pop()
    return tuple(x)


def groups_of(closed: dict) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted((g["des"], g["fix"], g["mult"]) for g in closed["groups"]))


def parse_zz_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_request(request: dict, result: dict, expected: dict) -> str | None:
    """None when the request's output is right, else what is wrong."""
    if result["exit"] != 0:
        return f"exit code {result['exit']}"
    if result["err_bytes"]:
        return f"unexpected stderr: {result['err_text'][:200]!r}"
    kind = request["check"][0]
    if kind == "enum":
        want = expected["enumerate"][request["check"][1]]
        # Order-insensitive: a correct streaming or reordering change
        # keeps the line count and the line-multiset digest.
        got = {"lines": result["out_lines"], "digest": result["out_digest"]}
        if got != {"lines": want["lines"], "digest": want["digest"]}:
            return f"output {got} differs from recorded {want}"
        return None
    try:
        records = parse_zz_lines(result["out_text"])
    except ValueError as exc:
        return f"output is not JSON lines: {exc}"
    if kind == "ladder":
        want = expected["ladder"][request["check"][1]]
        cases = [(want["n"], want["p"], tuple(want["zz"]), groups_of(want))]
        shapes = want["shapes"]
    else:
        family, lo, hi = request["check"][1:]
        form = expected["families"][family]
        groups = groups_of(form)
        cases = [(n, form["p"], zz_from_groups(form["p"], groups, n), groups)
                 for n in range(lo, hi + 1)]
        shapes = family
    if len(records) != len(cases):
        return f"{len(records)} output lines, expected {len(cases)}"
    for record, (n, p, zz, groups) in zip(records, cases):
        try:
            got = ("".join(record["shapes"]), record["n"], tuple(record["zz"]["coeffs"]),
                   record["closed_form"]["p"], groups_of(record["closed_form"]))
        except (KeyError, TypeError) as exc:
            return f"output line lacks {exc}"
        if got != (shapes, n, zz, p, groups):
            return f"n={n}: got {got}, expected {(shapes, n, zz, p, groups)}"
    return None
