"""Command-line front end.

One subcommand per pipeline stage: profile, poset, extensions, zz,
closed-form, kekule, clar, oracle, catalog. Machine output is
line-delimited JSON so enumeration modes can be stream-processed.

Exit codes: 0 success, 1 oracle disagreement, 2 parse or validation
failure, 3 guard violation, 141 stdout closed early (128 + SIGPIPE, as
a shell reports a process that SIGPIPE ended, e.g. under ``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .dib_poset import build_poset, natural_labeling
from .errors import GuardExceeded, InvalidStripError, NonKekuleanError, StripParseError
from .extension_engine import iter_extension_records
from .kekule_bijection import BLOCK_BITS, enumerate_kekule, subset_blocks
from .order_polynomials import ZzPolynomial, closed_form, zz_polynomial
from .oracle import count_clar_covers, enumerate_perfect_matchings, zz_from_matchings
from .strip_geometry import (
    StripSpec,
    build_graph,
    catalog_shapes,
    interface_profile,
    parse_strip,
    validate,
)


@dataclass
class RunConfig:
    mode: str
    spec: StripSpec | None = None
    symbolic: bool = False
    n_values: tuple[int, ...] = ()
    fmt: str = "text"
    tiers: int | None = None
    max_vertices: int | None = None
    dedup: bool = True


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
            p.add_argument("--max-vertices", type=int, default=None,
                           help="override the brute-force vertex guard")
        choices = ["text", "json"]
        if mode in ("zz", "closed-form"):
            choices.append("latex")
        if mode == "poset":
            choices.append("dot")
        p.add_argument("--format", dest="fmt", choices=choices, default="text")
    return parser


def _read_strip_text(args) -> str | None:
    sources = [s for s in (args.strip, args.shapes, getattr(args, "file", None)) if s]
    if len(sources) > 1:
        raise StripParseError("give the strip once: positional text, --shapes, or --file")
    if args.strip:
        return args.strip
    if getattr(args, "file", None):
        try:
            with open(args.file) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        return line
        except OSError as exc:
            raise StripParseError(f"cannot read {args.file}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise StripParseError(f"cannot read {args.file}: {exc.reason}") from None
        raise StripParseError(f"no strip description found in {args.file}")
    return None


def _config_from_args(args) -> RunConfig:
    config = RunConfig(mode=args.mode, fmt=getattr(args, "fmt", "text"))
    if args.mode == "catalog":
        config.tiers = args.tiers
        config.dedup = not args.no_dedup
        if args.length is not None:
            config.n_values = (args.length,)
        return config

    config.max_vertices = getattr(args, "max_vertices", None)

    n_range = getattr(args, "n_range", None)
    range_values: tuple[int, ...] | None = None
    if n_range:
        try:
            lo, hi = n_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise StripParseError(f"bad --n-range {n_range!r}, expected A..B") from None
        if lo < 1 or hi < lo:
            raise StripParseError(f"bad --n-range {n_range!r}")
        range_values = tuple(range(lo, hi + 1))

    text = _read_strip_text(args)
    if text is not None:
        config.spec = parse_strip(text)
        config.n_values = (config.spec.n,)
    elif args.shapes is not None:
        shapes = tuple(args.shapes.upper())
        if args.length is not None:
            config.spec = StripSpec(shapes, args.length)
            config.n_values = (args.length,)
        elif range_values:
            config.spec = StripSpec(shapes, range_values[0])
        elif args.mode == "closed-form":
            # poset and closed form do not depend on n; 2 keeps every
            # Kekulean family geometrically realizable
            config.spec = StripSpec(shapes, 2)
            config.symbolic = True
        else:
            raise StripParseError("missing --length")
    else:
        raise StripParseError("no strip given")

    if range_values:
        config.n_values = range_values
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        code = run(config)
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


def run(config: RunConfig) -> int:
    return MODES[config.mode](config)


def _run_profile(config: RunConfig) -> int:
    spec = config.spec
    profile = interface_profile(spec)
    report = validate(spec)
    if config.fmt == "json":
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


def _run_poset(config: RunConfig) -> int:
    poset = build_poset(config.spec)
    if config.fmt == "json":
        print(poset.to_json())
    elif config.fmt == "dot":
        print(poset.to_dot())
    else:
        print(f"p = {poset.p}")
        print("elements: " + ", ".join(f"s({e.k},{e.j})" for e in poset.elements))
        for a, b in poset.covers:
            print(f"s({a.k},{a.j}) < s({b.k},{b.j})")
    return 0


def _word_str(word) -> str:
    if word and max(word) > 9:
        return " ".join(str(w) for w in word)
    return "".join(str(w) for w in word)


def _run_extensions(config: RunConfig) -> int:
    poset = build_poset(config.spec)
    labeling = natural_labeling(poset)
    for rec in iter_extension_records(poset, labeling):
        if config.fmt == "json":
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


def _zz_json(shapes: tuple[str, ...], n: int, zz: ZzPolynomial, cf_data: dict | None) -> str:
    data = {
        "shapes": list(shapes),
        "n": n,
        "zz": {"coeffs": list(zz.coeffs)},
    }
    if cf_data is not None:
        data["closed_form"] = cf_data
    return json.dumps(data)


def _run_zz(config: RunConfig) -> int:
    shapes = config.spec.shapes
    # One check at the first n covers the whole range: |i_k| = ord(i_k) + n,
    # so a strip valid at n stays valid at every larger n, and
    # Kekulean-ness depends on the orders alone. The DIB poset does not
    # depend on n either, so one closed form serves every n.
    try:
        cf = closed_form(StripSpec(shapes, config.n_values[0]))
    except NonKekuleanError as exc:
        cf, warning = None, f"warning: {exc}"
    cf_data = None if cf is None else cf.to_dict()
    for n in config.n_values:
        if cf is None:
            print(warning, file=sys.stderr)
            zz = ZzPolynomial.zero()
        else:
            zz = cf.evaluate(n)
        if config.fmt == "json":
            print(_zz_json(shapes, n, zz, cf_data))
        elif config.fmt == "latex":
            print(zz.to_latex())
        else:
            print(str(zz))
    return 0


def _run_closed_form(config: RunConfig) -> int:
    cf = closed_form(config.spec)
    if config.fmt == "json":
        data = {"shapes": list(config.spec.shapes), "closed_form": cf.to_dict()}
        if not config.symbolic:
            data["n"] = config.spec.n
            data["zz"] = {"coeffs": list(cf.evaluate(config.spec.n).coeffs)}
        print(json.dumps(data))
    elif config.fmt == "latex":
        print(cf.as_latex())
    else:
        print(cf.as_text())
        if not config.symbolic:
            print(f"n={config.spec.n}: {cf.evaluate(config.spec.n)}")
    return 0


def _kekule_templates(spec: StripSpec):
    """Each Kekule structure with the %-template of its kekule line and
    the {"k", "j"} fragments of A's members, in A's order.

    mu's values followed by the positions fill the template. A line
    equals json.dumps of the {"A", "mu", "pos"} dict, as an int prints
    the same under %d. Each DIB's fragment is encoded once per request,
    and the template and fragments once per subset A.
    """
    encoded = members = None
    for om, ka in enumerate_kekule(spec):
        if encoded is None:
            encoded = {d: json.dumps({"k": d.k, "j": d.j}) for d in ka.elements}
            pos = ", ".join(f"[{d.k}, %d]" for d in ka.elements)
        if om.elements is not members:
            members = om.elements
            fragments = [encoded[d] for d in members]
            template = (
                '{"A": [' + ", ".join(fragments) + '], "mu": ['
                + ", ".join(["%d"] * len(members)) + '], "pos": [' + pos + "]}"
            )
        yield om, ka, template, fragments


def _run_kekule(config: RunConfig) -> int:
    write = sys.stdout.write
    for om, ka, template, _ in _kekule_templates(config.spec):
        write(template % (om.values + ka.positions) + "\n")
    return 0


def _aromatic_tails(fragments: list[str]):
    """Line endings of a structure's Clar covers, one list per block of
    subset_blocks: the aromatic list's contents, then "]}\n"."""
    for block in subset_blocks(fragments):
        yield [", ".join(aromatic) + "]}\n" for aromatic in block]


def _run_clar(config: RunConfig) -> int:
    # A Clar cover line is its structure's kekule line, less the closing
    # brace, plus the aromatic list, which depends on A alone. So the
    # endings are built once per A when they fit in one block, and each
    # block of lines goes out in one write.
    write = sys.stdout.write
    last = cached = None
    for om, ka, template, fragments in _kekule_templates(config.spec):
        if fragments is not last:
            last = fragments
            cached = list(_aromatic_tails(fragments)) if len(fragments) <= BLOCK_BITS else None
        prefix = template[:-1] % (om.values + ka.positions) + ', "aromatic": ['
        for tails in cached or _aromatic_tails(fragments):
            write(prefix + prefix.join(tails))
    return 0


def _run_oracle(config: RunConfig) -> int:
    spec = config.spec
    graph = build_graph(spec)
    matchings = enumerate_perfect_matchings(graph, max_vertices=config.max_vertices)
    zz_poset = zz_polynomial(spec)
    zz_covers = count_clar_covers(graph)
    zz_sextets = zz_from_matchings(graph, matchings)
    agree = zz_poset == zz_covers == zz_sextets
    if config.fmt == "json":
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


def _run_catalog(config: RunConfig) -> int:
    n = config.n_values[0] if config.n_values else 2
    for shapes in catalog_shapes(config.tiers, dedup=config.dedup):
        # every family is Kekulean; a short --length can still leave a
        # tier without hexagons
        try:
            cf = closed_form(StripSpec(shapes, n))
        except InvalidStripError:
            continue
        if config.fmt == "json":
            data = {"shapes": "".join(shapes), "closed_form": cf.to_dict()}
            if config.n_values:
                data["n"] = n
                data["zz"] = {"coeffs": list(cf.evaluate(n).coeffs)}
            print(json.dumps(data))
        else:
            line = f"{''.join(shapes)}  p={cf.p}  {cf.as_text()}"
            if config.n_values:
                line += f"  |  n={n}: {cf.evaluate(n)}"
            print(line)
    return 0


# One handler per subcommand, in the order --help lists them; both the
# parser and run() read this table.
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
