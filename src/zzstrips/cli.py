"""Command-line front end.

One subcommand per pipeline stage: profile, poset, extensions, zz,
closed-form, kekule, clar, oracle, catalog. Each handler reads the
parsed arguments itself. Every mode but catalog takes one strip, as
positional text ("WRN 2", "M 2 2"), the first line of --file, or
--shapes with --length. Text gives n itself, so --length goes with
--shapes only; zz --n-range replaces the strip's n, and closed-form
--shapes without --length prints the symbolic form alone. Machine
output is line-delimited JSON so enumeration modes can be
stream-processed.

Exit codes: 0 success, 1 oracle disagreement, 2 parse or validation
failure, 3 guard violation, 141 stdout closed early (128 + SIGPIPE, as
a shell reports a process that SIGPIPE ended, e.g. under ``| head``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .dib_poset import build_poset, natural_labeling
from .errors import GuardExceeded, InvalidStripError, NonKekuleanError, StripParseError
from .extension_engine import extension_records
from .kekule_bijection import BLOCK_BITS, kekule_groups, subset_blocks
from .order_polynomials import ZzPolynomial, closed_form, zz_polynomial
from .oracle import count_clar_covers, count_sextet_matchings
from .strip_geometry import (
    StripSpec,
    build_graph,
    catalog_shapes,
    interface_profile,
    parse_strip,
    validate,
)

# lines of zz --n-range per write to stdout
_N_RANGE_BLOCK = 256


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zzstrips",
        description="Zhang-Zhang polynomials of regular benzenoid strips "
        "via their DIB posets, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        if mode != "catalog":
            p.add_argument("strip", nargs="?", help="strip text, e.g. 'WRN 2' or 'M 2 2'")
            p.add_argument("--shapes", help="shape letters, e.g. WWRNN")
            p.add_argument("--length", type=int, help="strip length n")
            p.add_argument("--file", help="read the strip text from a file")
        if mode == "zz":
            p.add_argument("--n-range", help="run for each n in A..B")
        if mode == "catalog":
            p.add_argument("--tiers", type=int, required=True, help="maximum tier count")
            p.add_argument("--length", type=int, help="also evaluate at this n")
            p.add_argument("--no-dedup", action="store_true",
                           help="keep mirror-image duplicates")
        if mode == "oracle":
            p.add_argument("--max-vertices", type=int,
                           help="optional limit: exit 3 on a graph with more "
                           "vertices (no limit by default)")
        # kekule and clar write one JSON line per structure or cover only
        choices = ["json"] if mode in ("kekule", "clar") else ["text", "json"]
        if mode in ("zz", "closed-form"):
            choices.append("latex")
        if mode == "poset":
            choices.append("dot")
        p.add_argument("--format", dest="fmt", choices=choices, default=choices[0])
    return parser


def _read_strip_file(path: str) -> str:
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    return line
    except OSError as exc:
        raise StripParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise StripParseError(f"cannot read {path}: {exc.reason}") from None
    raise StripParseError(f"no strip description found in {path}")


def _spec(args: argparse.Namespace, n: int | None = None) -> StripSpec:
    """The strip of a strip mode, from positional text, --file, or
    --shapes with --length. n is the mode's own default for a missing
    --length, if it has one."""
    sources = [s for s in (args.strip, args.shapes, args.file) if s]
    if len(sources) > 1:
        raise StripParseError("give the strip once: positional text, --shapes, or --file")
    if args.strip or args.file:
        if args.length is not None:
            raise StripParseError("--length goes with --shapes; strip text gives its own n")
        return parse_strip(args.strip or _read_strip_file(args.file))
    if args.shapes is None:
        raise StripParseError("no strip given")
    if args.length is not None:
        n = args.length
    elif n is None:
        raise StripParseError("missing --length")
    return StripSpec(tuple(args.shapes.upper()), n)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = MODES[args.mode](args)
        # a closed pipe can surface at the flush, so flush while it is caught
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout's descriptor at devnull so the
        # interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stdout with no descriptor of its own
        finally:
            os.close(devnull)
        return 141
    except (StripParseError, InvalidStripError, NonKekuleanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3


def _run_profile(args: argparse.Namespace) -> int:
    spec = _spec(args)
    profile = interface_profile(spec)
    report = validate(spec)
    if args.fmt == "json":
        print(json.dumps({
            "shapes": list(spec.shapes),
            "n": spec.n,
            "sizes": list(profile.sizes),
            "orders": list(profile.orders),
            "valid": report.is_valid,
            "kekulean": report.is_kekulean,
            "problems": list(report.problems),
        }))
        return 0
    print(f"shapes {''.join(spec.shapes)}  n={spec.n}  m={spec.m}")
    for k in range(1, profile.m + 1):
        print(f"i_{k}: size {profile.size(k)}, order {profile.order(k)}")
    print(f"valid: {'yes' if report.is_valid else 'no'}  "
          f"kekulean: {'yes' if report.is_kekulean else 'no'}")
    for problem in report.problems:
        print(f"  - {problem}")
    return 0


def _run_poset(args: argparse.Namespace) -> int:
    poset = build_poset(_spec(args))
    if args.fmt == "json":
        print(poset.to_json())
    elif args.fmt == "dot":
        print(poset.to_dot())
    else:
        print(f"p = {poset.p}")
        print("elements: " + ", ".join(map(repr, poset.elements)))
        for a, b in poset.covers:
            print(f"{a!r} < {b!r}")
    return 0


def _word_str(word) -> str:
    if word and max(word) > 9:
        return " ".join(str(w) for w in word)
    return "".join(str(w) for w in word)


def _run_extensions(args: argparse.Namespace) -> int:
    for rec in extension_records(natural_labeling(build_poset(_spec(args)))):
        if args.fmt == "json":
            print(json.dumps({
                "word": list(rec.word),
                "des": rec.des,
                "fix": rec.fix,
                "descents": sorted(rec.descents),
                "fixed": sorted(rec.fixed),
            }))
        else:
            descents = "{" + ",".join(str(i) for i in sorted(rec.descents)) + "}"
            fixed = "{" + ",".join(str(i) for i in sorted(rec.fixed)) + "}"
            print(f"{_word_str(rec.word)} des={rec.des} fix={rec.fix} "
                  f"descents={descents} fixed={fixed}")
    return 0


def _run_zz(args: argparse.Namespace) -> int:
    lo = None
    if args.n_range:
        try:
            lo, hi = args.n_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise StripParseError(f"bad --n-range {args.n_range!r}, expected A..B") from None
        if lo < 1 or hi < lo:
            raise StripParseError(f"bad --n-range {args.n_range!r}")
        if args.length is not None:
            raise StripParseError("give n once: --length or --n-range")
    spec = _spec(args, lo)
    if lo is None:
        lo = hi = spec.n
    # One check at the first n covers the whole range: |i_k| = ord(i_k) + n,
    # so a strip valid at n stays valid at every larger n, and
    # Kekulean-ness depends on the orders alone. The DIB poset does not
    # depend on n either, so one closed form serves every n.
    try:
        cf = closed_form(StripSpec(spec.shapes, lo))
    except NonKekuleanError as exc:
        cf, warning = None, f"warning: {exc}"
        polys = itertools.repeat(ZzPolynomial.zero())
    else:
        polys = cf.evaluate_range(lo, hi)
    # A json line is json.dumps of {"shapes", "n", "zz", "closed_form"}
    # (no "closed_form" for a non-Kekulean strip). Only n and the
    # coefficients change with n, so the rest is encoded once.
    if args.fmt == "json":
        head = '{"shapes": ' + json.dumps(list(spec.shapes)) + ', "n": '
        tail = "]}}\n" if cf is None else ']}, "closed_form": ' + cf.to_json() + "}\n"

    def line(n: int, zz: ZzPolynomial) -> str:
        if cf is None:
            print(warning, file=sys.stderr)
        if args.fmt == "json":
            coeffs = ", ".join(map(str, zz.coeffs))
            return f'{head}{n}, "zz": {{"coeffs": [{coeffs}{tail}'
        return (zz.to_latex() if args.fmt == "latex" else str(zz)) + "\n"

    # one write per block of lines, and no more than a block held at once
    lines = map(line, range(lo, hi + 1), polys)
    while block := list(itertools.islice(lines, _N_RANGE_BLOCK)):
        sys.stdout.write("".join(block))
    return 0


def _run_closed_form(args: argparse.Namespace) -> int:
    # --shapes without --length asks for the form alone. The poset and
    # the form do not depend on n, and n = 2 keeps every Kekulean family
    # geometrically realizable.
    spec = _spec(args, 2)
    symbolic = args.length is None and not (args.strip or args.file)
    cf = closed_form(spec)
    if args.fmt == "json":
        data = {"shapes": list(spec.shapes), "closed_form": cf.to_dict()}
        if not symbolic:
            data["n"] = spec.n
            data["zz"] = {"coeffs": list(cf.evaluate(spec.n).coeffs)}
        print(json.dumps(data))
    elif args.fmt == "latex":
        print(cf.as_latex())
    else:
        print(cf.as_text())
        if not symbolic:
            print(f"n={spec.n}: {cf.evaluate(spec.n)}")
    return 0


def _kekule_lines(spec: StripSpec):
    """Per subset A, the {"k", "j"} fragments of A's members and A's
    kekule lines, one per structure, without the newline.

    A line equals json.dumps of the {"A", "mu", "pos"} dict, as an int
    prints the same under %d. Each DIB's fragment is encoded once per
    request, and the line template once per subset A.
    """
    poset = build_poset(spec)
    encoded = {d: json.dumps({"k": d.k, "j": d.j}) for d in poset.elements}
    pos = ", ".join(f"[{d.k}, %d]" for d in poset.elements)
    for members, structures in kekule_groups(poset, spec.n):
        fragments = [encoded[d] for d in members]
        template = (
            '{"A": [' + ", ".join(fragments) + '], "mu": ['
            + ", ".join(["%d"] * len(members)) + '], "pos": [' + pos + "]}"
        )
        # template.__mod__ binds this group's template now, not the last one
        yield fragments, map(template.__mod__, (v + p for v, p in structures))


def _run_kekule(args: argparse.Namespace) -> int:
    write = sys.stdout.write
    for _, lines in _kekule_lines(_spec(args)):
        for line in lines:
            write(line + "\n")
    return 0


def _aromatic_tails(fragments: list[str]):
    """Line endings of a structure's Clar covers, one list per block of
    subset_blocks: the aromatic list's contents, then "]}\n"."""
    for block in subset_blocks(fragments):
        yield [", ".join(aromatic) + "]}\n" for aromatic in block]


def _run_clar(args: argparse.Namespace) -> int:
    # A Clar cover line is its structure's kekule line, less the closing
    # brace, plus the aromatic list, which depends on A alone. So the
    # endings are built once per A when they fit in one block, and each
    # block of lines goes out in one write.
    write = sys.stdout.write
    for fragments, lines in _kekule_lines(_spec(args)):
        cached = list(_aromatic_tails(fragments)) if len(fragments) <= BLOCK_BITS else None
        for line in lines:
            prefix = line[:-1] + ', "aromatic": ['
            for tails in cached or _aromatic_tails(fragments):
                write(prefix + prefix.join(tails))
    return 0


def _run_oracle(args: argparse.Namespace) -> int:
    if (args.max_vertices or 0) < 0:
        raise StripParseError(f"--max-vertices must be nonnegative, got {args.max_vertices}")
    spec = _spec(args)
    graph = build_graph(spec)
    # both graph routes are DPs that need no guard; a given limit still
    # ends the run before any output
    if args.max_vertices is not None and graph.num_vertices > args.max_vertices:
        raise GuardExceeded(
            f"{graph.num_vertices} vertices exceed the oracle guard {args.max_vertices}"
        )
    zz_poset = zz_polynomial(spec)
    zz_covers = count_clar_covers(graph)
    zz_sextets = count_sextet_matchings(graph)
    agree = zz_poset == zz_covers == zz_sextets
    if args.fmt == "json":
        print(json.dumps({
            "shapes": list(spec.shapes),
            "n": spec.n,
            "poset": {"coeffs": list(zz_poset.coeffs)},
            "covers": {"coeffs": list(zz_covers.coeffs)},
            "sextets": {"coeffs": list(zz_sextets.coeffs)},
            "agree": agree,
        }))
    else:
        print(f"zz (poset engine):     {zz_poset}")
        print(f"zz (clar covers):      {zz_covers}")
        print(f"zz (sextet histogram): {zz_sextets}")
        if agree:
            print("DIFF: none")
        else:
            print("DIFF: MISMATCH")
            print(f"  poset:   {zz_poset.coeffs}")
            print(f"  covers:  {zz_covers.coeffs}")
            print(f"  sextets: {zz_sextets.coeffs}")
    return 0 if agree else 1


def _run_catalog(args: argparse.Namespace) -> int:
    if args.tiers < 1:
        raise StripParseError(f"--tiers must be a positive integer, got {args.tiers}")
    n = 2 if args.length is None else args.length
    StripSpec(("W", "N"), n)  # a bad n fails now, not after a long listing
    for shapes in catalog_shapes(args.tiers, dedup=not args.no_dedup):
        # every family is Kekulean; a short --length can still leave a
        # tier without hexagons
        try:
            cf = closed_form(StripSpec(shapes, n))
        except InvalidStripError:
            continue
        if args.fmt == "json":
            data = {"shapes": "".join(shapes), "closed_form": cf.to_dict()}
            if args.length is not None:
                data["n"] = n
                data["zz"] = {"coeffs": list(cf.evaluate(n).coeffs)}
            print(json.dumps(data))
        else:
            line = f"{''.join(shapes)}  p={cf.p}  {cf.as_text()}"
            if args.length is not None:
                line += f"  |  n={n}: {cf.evaluate(n)}"
            print(line)
    return 0


# One handler per subcommand, in the order --help lists them; both the
# parser and main() read this table.
MODES = {
    "profile": _run_profile,
    "poset": _run_poset,
    "extensions": _run_extensions,
    "zz": _run_zz,
    "closed-form": _run_closed_form,
    "kekule": _run_kekule,
    "clar": _run_clar,
    "oracle": _run_oracle,
    "catalog": _run_catalog,
}

# parse_args leaves the parser as it found it, so one built at import
# serves every main() call, and no call pays for building it.
_PARSER = build_parser()


if __name__ == "__main__":
    sys.exit(main())
