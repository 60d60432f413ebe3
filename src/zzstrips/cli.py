"""Command-line front end.

One subcommand per pipeline stage: profile, poset, extensions, zz,
closed-form, kekule, clar, oracle, catalog. parse_args reads argv
(--name value or --name=value) through the one OPTIONS table, which
--help prints too; each handler reads the namespace it returns. Every
mode but catalog takes one strip, as positional text ("WRN 2", "M 2
2"), the first line of --file, or --shapes with --length. Text gives
n itself, so --length goes with --shapes only; zz --n-range replaces
the strip's n, and closed-form --shapes without --length prints the
symbolic form alone. Machine output is line-delimited JSON so
enumeration modes can be stream-processed.

Exit codes: 0 success, 1 oracle disagreement, 2 parse or validation
failure (one "error:" line on stderr), 3 guard violation, 141 stdout
closed early (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended, e.g. under ``| head``).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from types import SimpleNamespace

from .dib_poset import Dib, build_poset, natural_labeling
from .errors import GuardExceeded, InvalidStripError, NonKekuleanError, StripParseError
from .extension_engine import extension_records
from .kekule_bijection import BLOCK_BITS, CellTable, kekule_walk, subset_blocks
from .order_polynomials import ROW_BLOCK, ZzPolynomial, closed_form, zz_polynomial
from .oracle import count_clar_covers, count_sextet_matchings
from .strip_geometry import (
    StripSpec,
    build_graph,
    catalog_shapes,
    interface_profile,
    parse_strip,
    validate,
)

# clar keeps the aromatic strings of at most this many subsets A, and
# about this many strings in all
_ENTRIES = 4096
_TAILS_HELD = 8192


def _help(mode: str | None) -> str:
    if mode is None:
        return ("usage: zzstrips MODE [STRIP] [--option VALUE | --option=VALUE ...]\n"
                f"modes: {', '.join(OPTIONS)}\nzzstrips MODE --help lists the options of MODE.")
    _, options, formats = OPTIONS[mode]
    rows = [("STRIP", "strip text, e.g. 'WRN 2' or 'M 2 2'")] if "--shapes" in options else []
    rows += [(n if k is bool else f"{n} {f.upper()}", t) for n, (f, k, t) in options.items()]
    rows += [(f"--format {{{','.join(formats)}}}", f"output format, default {formats[0]}"),
             ("-h, --help", "show this help and exit")]
    return f"usage: zzstrips {mode} [options]" + "".join(f"\n  {a:28}{b}" for a, b in rows)


def _is_option(token: str) -> bool:
    """A dash and more, no space, and not a negative number."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and not token[1:].replace(".", "", 1).isdecimal())


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The mode, fmt, strip and option fields argv asks for, or None
    once -h or --help has printed help. A usage error raises
    StripParseError; an unknown option or a second positional only
    after the scan, so a --help after it still prints help."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(None))
        return None
    if not argv or argv[0] not in OPTIONS:
        got = f"unknown mode {argv[0]!r}" if argv else "no mode given"
        raise StripParseError(f"{got}; choose from {', '.join(OPTIONS)}")
    mode, tokens = argv[0], iter(argv[1:])
    _, options, formats = OPTIONS[mode]
    fields = {f: False if k is bool else None for f, k, _ in options.values()}
    args = SimpleNamespace(mode=mode, strip=None, fmt=formats[0], **fields)
    takes_strip, options = "--shapes" in options, {**options, "--format": ("fmt", formats, "")}
    unknown, rest = [], False  # after "--" every token is positional
    for token in tokens:
        name, eq, value = token.partition("=")
        field, kind, _ = options.get(name, (None, None, None))
        if token == "--" and not rest:
            rest = True
        elif rest or field is None and not _is_option(token):
            if takes_strip and args.strip is None:
                args.strip = token
            else:
                unknown.append(token)
        elif token in ("-h", "--help"):
            print(_help(mode))
            return None
        elif field is None:
            unknown.append(token)
        elif kind is bool:
            if eq:
                raise StripParseError(f"{name} takes no value, got {token!r}")
            setattr(args, field, True)
        else:
            if not eq and ((value := next(tokens, None)) is None or _is_option(value)):
                raise StripParseError(f"{name} expects a value")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise StripParseError(f"{name}: invalid int value: {value!r}") from None
            elif kind is not str and value not in kind:
                choices = ", ".join(kind)
                raise StripParseError(f"{name}: invalid choice: {value!r} (choose from {choices})")
            setattr(args, field, value)
    if mode == "catalog" and args.tiers is None:
        raise StripParseError("catalog needs --tiers")
    if unknown:
        raise StripParseError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


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


def _spec(args: SimpleNamespace, n: int | None = None) -> StripSpec:
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
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = 0 if args is None else OPTIONS[args.mode][0](args)
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


def _run_profile(args: SimpleNamespace) -> int:
    spec = _spec(args)
    profile = interface_profile(spec)
    report = validate(spec)
    if args.fmt == "json":
        print(json.dumps({
            "shapes": list(spec.shapes), "n": spec.n,
            "sizes": list(profile.sizes), "orders": list(profile.orders),
            "valid": report.is_valid, "kekulean": report.is_kekulean,
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


def _run_poset(args: SimpleNamespace) -> int:
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


def _write_lines(lines) -> None:
    """Writes an iterator of newline-terminated lines, one write per
    block of ROW_BLOCK lines and no more than a block held at once."""
    while block := list(itertools.islice(lines, ROW_BLOCK)):
        sys.stdout.write("".join(block))


def _run_extensions(args: SimpleNamespace) -> int:
    # A json line equals json.dumps of the record's fields. Every word is
    # a permutation of 1..p, so one word separator serves the request.
    labeling = natural_labeling(build_poset(_spec(args)))
    if args.fmt == "json":
        sep, comma = ", ", ", "
        template = '{"word": [%s], "des": %d, "fix": %d, "descents": [%s], "fixed": [%s]}\n'
    else:
        sep, comma = " " if labeling.p > 9 else "", ","
        template = "%s des=%d fix=%d descents={%s} fixed={%s}\n"
    _write_lines(
        template % (sep.join(map(str, word)), len(descents), len(fixed),
                    comma.join(map(str, descents)), comma.join(map(str, fixed)))
        for word, descents, fixed in extension_records(labeling)
    )
    return 0


def _run_zz(args: SimpleNamespace) -> int:
    lo = None
    if args.n_range:
        try:
            lo, hi = args.n_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise StripParseError(f"bad --n-range {args.n_range!r}, expected A..B") from None
        if lo < 1 or hi < lo:
            raise StripParseError(f"bad --n-range {args.n_range!r}: n starts at 1 and A <= B")
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
    # A json line is json.dumps of {"shapes", "n", "zz", "closed_form"}
    # (no "closed_form" for a non-Kekulean strip). Only n and the
    # coefficients change with n, so the rest is encoded once; the shape
    # letters, which StripSpec checked, need no escaping.
    if args.fmt == "json":
        head = '{"shapes": [' + ", ".join(f'"{c}"' for c in spec.shapes) + '], "n": '
        tail = "]}}\n" if cf is None else ']}, "closed_form": ' + cf.to_json() + "}\n"

    def line(row: tuple[int, ...]) -> str:  # row: (n, c_0, .., c_p)
        zz = ZzPolynomial.from_coeffs(row[1:])
        if args.fmt == "json":
            return f'{head}{row[0]}, "zz": {{"coeffs": [{", ".join(map(str, zz.coeffs))}{tail}'
        return (zz.to_latex() if args.fmt == "latex" else str(zz)) + "\n"

    if cf is None:  # ZZ = 0 at every n, and a warning at each
        for n in range(lo, hi + 1):
            print(warning, file=sys.stderr)
            sys.stdout.write(line((n,)))
        return 0
    # A json block fills one %-template per row; no encoded part holds
    # a "%". Rows that the template does not fill take a line of their
    # own: every text and latex row, and a json row whose x^p
    # coefficient is still 0, which leads the range.
    slots, template = cf.p + 2, ""
    if args.fmt == "json":
        template = head + '%d, "zz": {"coeffs": [' + ", ".join(["%d"] * (slots - 1)) + tail
    for block in cf.row_blocks(lo, hi):
        short = 0
        while short < len(block) and not (template and block[short + slots - 1]):
            short += slots
        lines = "".join([line(block[i : i + slots]) for i in range(0, short, slots)])
        sys.stdout.write(lines + template * ((len(block) - short) // slots) % block[short:])
    return 0


def _run_closed_form(args: SimpleNamespace) -> int:
    # --shapes without --length asks for the form alone. The poset and
    # the form do not depend on n, and n = 2 keeps every Kekulean family
    # geometrically realizable.
    spec = _spec(args, 2)
    symbolic = args.length is None and not (args.strip or args.file)
    cf = closed_form(spec)
    if args.fmt == "json":
        data = {"shapes": list(spec.shapes), "closed_form": cf.to_dict()}
        if not symbolic:
            data.update(n=spec.n, zz={"coeffs": list(cf.evaluate(spec.n).coeffs)})
        print(json.dumps(data))
    elif args.fmt == "latex":
        print(cf.as_latex())
    else:
        print(cf.as_text())
        if not symbolic:
            print(f"n={spec.n}: {cf.evaluate(spec.n)}")
    return 0


def _dib_cells(
    dib: Dib, fragment: str, n: int, first: bool, last: bool, end: str
) -> tuple[CellTable, CellTable]:
    """DIB dib's kekule_walk cells, outside A and in A, for a line that
    ends in end: its A piece (its fragment in A), mu and pos pieces. The
    first DIB's pieces open the lists and the last DIB's close them. A
    member's A and mu pieces, and every pos piece but the first, open
    with ", ", so a joined line has "[, " where A or mu starts; replacing
    it by "[" mends the line, as no fragment, number or [k, pos] piece
    contains "[, "."""
    head = '{"A": [' if first else ""
    a_end, mu_end, pos_end = ('], "mu": [', '], "pos": [', end) if last else ("", "", "")
    pos = f"{'' if first else ', '}[{dib.k}, %d]{pos_end}"
    out_a, in_a, j = head + a_end, f"{head}, {fragment}{a_end}", dib.j
    return (CellTable(lambda v: (out_a, mu_end, pos % (v + j)), n),
            CellTable(lambda v: (in_a, f", {v}{mu_end}", pos % (v + j)), n))


def _kekule_rows(spec: StripSpec, end: str):
    """The {"k", "j"} fragments of spec's DIBs, and kekule_walk over
    spec with _dib_cells. A kekule line, the row joined and mended, is
    json.dumps of the structure's {"A", "mu", "pos"} dict."""
    poset = build_poset(spec)
    fragments = [json.dumps({"k": d.k, "j": d.j}) for d in poset.elements]
    last = poset.p - 1
    cells = [
        _dib_cells(d, f, spec.n, i == 0, i == last, end)
        for i, (d, f) in enumerate(zip(poset.elements, fragments))
    ]
    return fragments, kekule_walk(poset, spec.n, cells)


def _run_kekule(args: SimpleNamespace) -> int:
    _, rows = _kekule_rows(_spec(args), "]}\n")
    _write_lines("".join(row).replace("[, ", "[") for _, row in rows)
    return 0


def _run_clar(args: SimpleNamespace) -> int:
    # A Clar cover line is its structure's kekule line with the aromatic
    # list, which depends on A alone, before the closing brace. Each
    # structure's covers go out in one write, or one per block of
    # subset_blocks when A is too large to double out at once. The
    # bounds keep the cache's memory constant whatever the strip.
    fragments, rows = _kekule_rows(_spec(args), '], "aromatic": [')
    p = len(fragments)
    write = sys.stdout.write
    tails, held = {}, 0
    for mask, row in rows:
        prefix = "".join(row).replace("[, ", "[")
        aromatic = tails.get(mask)
        if aromatic is None:
            members = [fragments[i] for i in range(p) if mask >> i & 1]
            if len(members) > BLOCK_BITS:
                for block in subset_blocks(members):
                    write(prefix + ("]}\n" + prefix).join(map(", ".join, block)) + "]}\n")
                continue
            if len(tails) >= _ENTRIES or held >= _TAILS_HELD:
                tails.clear()
                held = 0
            aromatic = [""]
            for f in members:
                aromatic += [f] + [a + ", " + f for a in aromatic[1:]]
            tails[mask] = aromatic
            held += len(aromatic)
        write(prefix + ("]}\n" + prefix).join(aromatic) + "]}\n")
    return 0


def _run_oracle(args: SimpleNamespace) -> int:
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
            "shapes": list(spec.shapes), "n": spec.n,
            "poset": {"coeffs": list(zz_poset.coeffs)},
            "covers": {"coeffs": list(zz_covers.coeffs)},
            "sextets": {"coeffs": list(zz_sextets.coeffs)}, "agree": agree,
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


def _run_catalog(args: SimpleNamespace) -> int:
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
                data.update(n=n, zz={"coeffs": list(cf.evaluate(n).coeffs)})
            print(json.dumps(data))
        else:
            line = f"{''.join(shapes)}  p={cf.p}  {cf.as_text()}"
            if args.length is not None:
                line += f"  |  n={n}: {cf.evaluate(n)}"
            print(line)
    return 0


# The one table that parse_args, --help and main read: per mode, in
# --help's order, its handler, its options, name -> (field, int | str |
# bool for a flag, help), and its --format choices, default first. Modes
# with --shapes take a STRIP.
_STRIP = {
    "--shapes": ("shapes", str, "shape letters, e.g. WWRNN"),
    "--length": ("length", int, "strip length n"),
    "--file": ("file", str, "read the strip text from a file"),
}
OPTIONS = {
    "profile": (_run_profile, _STRIP, ("text", "json")),
    "poset": (_run_poset, _STRIP, ("text", "json", "dot")),
    "extensions": (_run_extensions, _STRIP, ("text", "json")),
    "zz": (_run_zz, {**_STRIP, "--n-range": ("n_range", str, "run for each n in A..B")},
           ("text", "json", "latex")),
    "closed-form": (_run_closed_form, _STRIP, ("text", "json", "latex")),
    # kekule and clar write one JSON line per structure or cover only
    "kekule": (_run_kekule, _STRIP, ("json",)),
    "clar": (_run_clar, _STRIP, ("json",)),
    "oracle": (_run_oracle,
               {**_STRIP, "--max-vertices": ("max_vertices", int, "exit 3 on more vertices")},
               ("text", "json")),
    "catalog": (_run_catalog, {"--tiers": ("tiers", int, "maximum tier count (required)"),
                               "--length": ("length", int, "also evaluate at this n"),
                               "--no-dedup": ("no_dedup", bool, "keep mirror images")},
                ("text", "json")),
}


if __name__ == "__main__":
    sys.exit(main())
