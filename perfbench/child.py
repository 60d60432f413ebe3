"""Run one pass of benchmark requests in-process, in a child of run.py.

Usage: python3 perfbench/child.py --root DIR [--trace-out FILE] < requests.json

Each request goes through ``zzstrips.cli.main(argv)`` with stdout and
stderr sent to a ``DigestSink``, so the harness holds no copy of large
outputs and the peak RSS it reports is the program's. Request times
are rescaled by the reference slices taken during them (see
``speed.py``); the unscaled times are kept beside them. With
``--trace-out`` the span recorder is installed before the pass and its
spans are written to that file afterwards. The result is one JSON
object on the real stdout, with each request's check result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from hashlib import blake2b
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedSampler

DIGEST_MOD = 1 << 128
DRAIN_CHARS = 1 << 16


class DigestSink(io.TextIOBase):
    """Counts the bytes and lines written to it and sums a 128-bit hash
    of each line, so the digest does not depend on line order. With
    ``keep`` it also keeps the text, for outputs the check parses."""

    def __init__(self, keep: bool = False):
        self.bytes = 0
        self.lines = 0
        self.digest = 0
        self.kept: list[str] | None = [] if keep else None
        self._pending: list[str] = []
        self._pending_chars = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._pending.append(text)
        self._pending_chars += len(text)
        if self._pending_chars > DRAIN_CHARS:
            self._drain(final=False)
        return len(text)

    def _drain(self, final: bool) -> None:
        text = "".join(self._pending)
        lines = text.split("\n")
        tail = "" if final else lines.pop()
        if final and lines and lines[-1] == "":
            lines.pop()
        if self.kept is not None:
            self.kept.append(text[: len(text) - len(tail)])
        for line in lines:
            data = line.encode()
            self.bytes += len(data) + 1
            self.digest += int.from_bytes(blake2b(data, digest_size=16).digest(), "big")
        self.lines += len(lines)
        self.digest %= DIGEST_MOD
        self._pending = [tail] if tail else []
        self._pending_chars = len(tail)

    def finish(self) -> None:
        self._drain(final=True)

    @property
    def text(self) -> str:
        return "".join(self.kept or ())


def run_request(cli, argv: list[str], keep: bool) -> dict:
    out, err = DigestSink(keep), DigestSink(keep=True)
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # An uncaught exception exits 1 from the real CLI.
            traceback.print_exc()
            code = 1
        out.finish()
        err.finish()
    end = perf_counter()
    return {
        "exit": code if isinstance(code, int) else (0 if code is None else 1),
        "start": start,
        "end": end,
        "seconds": end - start,
        "out_bytes": out.bytes,
        "out_lines": out.lines,
        "out_digest": f"{out.digest:032x}",
        "out_text": out.text if keep else None,
        "err_bytes": err.bytes,
        "err_text": err.text[:2000],
    }


def run_pass(root: Path, requests: list[dict], trace_out: str | None) -> dict:
    sys.path.insert(0, str(root / "src"))
    import zzstrips.cli as cli

    expected = workloads.load_expected()

    recorder = None
    if trace_out:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    sampler = SpeedSampler(on_slice=recorder.exclude if recorder else None)
    results = []
    with sampler:
        for index, request in enumerate(requests):
            if recorder is not None:
                recorder.request = index
            # Each CLI invocation starts from a fresh heap in real use, so
            # garbage left by the previous request is collected untimed.
            gc.collect()
            # A short request holds no timed slice; the slices right
            # before and after it give its speed.
            sampler.take()
            result = run_request(cli, request["argv"], request["keep"])
            sampler.take()
            # Checked here and dropped, so no output outlives its request.
            result["problem"] = workloads.check_request(request, result, expected)
            del result["out_text"]
            results.append(result)
    for result in results:
        result["seconds"], result["raw_seconds"] = sampler.measure(
            result.pop("start"), result.pop("end"))
    report = {
        "wall_s": sum(r["seconds"] for r in results),
        "raw_wall_s": sum(r["raw_seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if recorder is not None:
        # Self times are rescaled by the pass's own speed factor.
        factor = report["wall_s"] / report["raw_wall_s"]
        layers = {name: value * factor if name.endswith(".self_s") else value
                  for name, value in recorder.summary().items()}
        layers["cli.output_bytes"] = sum(r["out_bytes"] + r["err_bytes"] for r in results)
        report["layers"] = layers
        report["missing"] = recorder.missing
        recorder.write(trace_out)
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    requests = json.load(sys.stdin)
    report = run_pass(Path(args.root), requests, args.trace_out)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
