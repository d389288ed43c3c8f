"""Benchmark of the rowfinite command line, end to end and per layer.

    python3 perfbench/run.py --workload jordan --seed 3 --seconds 25 --trace 0

Run from the root of a source checkout; rowfinite is imported from ``src/``.
One process, one thread, one closed-loop client: each op is a call to
``rowfinite.cli.main(argv)`` with stdout and stderr captured in memory, and
the next op starts when the previous one returns.  Each pass sets up afresh
(import, inputs, spec files, a warm-up op) and runs the workload's op list
once; passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics, medians over passes of times
at reference speed (see ``REF_S``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; spans go to ``.perfbench_work/``.  Either way every op's
exit code and output are checked after the timed passes (see ``oracle``),
and for the default seed stdout must match ``digests.json``.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
MIN_PASSES = 3
# The calibration loop's least time on the 2-vCPU Intel Xeon VM this
# benchmark was tuned on.  Each timing is reported at that reference speed:
# raw time divided by the calibrations taken just before and after, times
# REF_S.  Co-tenants there slow raw times by up to 1.5x for seconds to
# minutes at a time; per-op raw minima moved by half between runs a minute
# apart, while the calibrated medians moved by a few percent.
REF_S = 0.0042
LAYERS = tracing.LAYERS


def import_rowfinite() -> Dict[str, object]:
    """Import rowfinite afresh from ``src/`` and return its modules by layer."""
    for name in [m for m in sys.modules if m.split(".")[0] == "rowfinite"]:
        del sys.modules[name]
    importlib.import_module("rowfinite.cli")
    package = sys.modules["rowfinite"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rowfinite was imported from {package.__file__}, not {SRC}")
    return {layer: sys.modules[f"rowfinite.{layer}"] for layer in LAYERS}


@dataclass
class Call:
    seconds: float
    code: object
    out: str
    err: str


def call(cli, argv) -> Call:
    """One op: ``cli.main(argv)`` with output captured; a crash becomes the
    exit code ``"crash"`` with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op fails; the benchmark goes on
            code = "crash"
            traceback.print_exc(file=err)
        seconds = perf_counter() - start
    return Call(seconds, code, out.getvalue(), err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def calibrate() -> float:
    """Time a fixed stdlib-only exact-arithmetic loop, the same kind of work
    rowfinite does; its time tracks how fast the shared machine runs now."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the calibrations either side."""
    return seconds * REF_S * 2 / (before + after)


@dataclass
class Pass:
    seconds: List[float] = field(default_factory=list)     # raw, per op
    cals: List[float] = field(default_factory=list)        # around each op
    codes: List[object] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    out_bytes: int = 0
    layers: Optional[Dict[str, float]] = None

    @property
    def ref_seconds(self) -> List[float]:
        """Per op, its time at reference speed."""
        return [scaled(s, a, b) for s, a, b in zip(self.seconds, self.cals, self.cals[1:])]


def run_pass(cli, wl: workloads.Workload, keep: Optional[List[Call]] = None,
             tracer: Optional[tracing.Tracer] = None, first_op: int = 0) -> Pass:
    """Run every op once, with a calibration before the first and after
    each; with ``keep``, store each op's full result there."""
    result = Pass()
    if tracer is not None:
        tracer.reset()
    result.cals.append(calibrate())
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = first_op + i
        c = call(cli, op.argv)
        result.cals.append(calibrate())
        if tracer is not None:
            tracer.scan_states()
        result.seconds.append(c.seconds)
        result.codes.append(c.code)
        result.digests.append(digest(c.out))
        result.out_bytes += len(c.out.encode())
        if keep is not None:
            keep.append(c)
    if tracer is not None:
        result.layers = tracer.pass_metrics()
    return result


def check_ops(wl: workloads.Workload, first: List[Call],
              recorded: Optional[Dict[str, str]]) -> List[Optional[str]]:
    """Per op, None if its first-pass result is right, else the reason."""
    reasons = []
    for op, c in zip(wl.ops, first):
        reason = None
        if c.code != op.expect_exit:
            reason = f"exit {c.code}, expected {op.expect_exit}: {c.err.strip()[-300:]}"
        else:
            try:
                reason = op.check(c.out, c.err)
            except Exception as exc:  # malformed output fails the op
                reason = f"output check raised {exc!r}"
        if reason is None and recorded is not None:
            if recorded.get(op.label) != digest(c.out):
                reason = "stdout differs from the digest recorded for the default seed"
        reasons.append(reason)
    return reasons


def count_failures(wl: workloads.Workload, passes: List[Pass],
                   reasons: List[Optional[str]]) -> Tuple[int, int]:
    """An op run fails when its first-pass result failed its check, or its
    exit code or stdout differ from that first pass."""
    first = passes[0]
    attempted = failed = 0
    for p in passes:
        for i in range(len(wl.ops)):
            attempted += 1
            if (reasons[i] is not None or p.codes[i] != first.codes[i]
                    or p.digests[i] != first.digests[i]):
                failed += 1
    return attempted, failed


def load_digests(name: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[name]


def command_seconds(wl: workloads.Workload, seconds: List[float], command: str) -> float:
    return sum(s for op, s in zip(wl.ops, seconds) if op.command == command)


def median_of(passes: List[Pass], value) -> float:
    return statistics.median(value(p) for p in passes)


def end_to_end(wl: workloads.Workload, passes: List[Pass], setups: List[float],
               peak_rss_kib: int) -> Dict[str, Tuple[float, str]]:
    """Times at reference speed, medians over passes.  ``growth_exp`` pairs
    the 2H and 4H runs of one pass, which ran back to back."""
    main = wl.main
    i2, i4 = (next(i for i, op in enumerate(wl.ops) if op.label == f"{main}@{tag}")
              for tag in ("2H", "4H"))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_of(passes, lambda p: sum(p.ref_seconds)), "s"),
        "main_s": (median_of(passes, lambda p: command_seconds(wl, p.ref_seconds, main)), "s"),
        "solve_s": (median_of(passes, lambda p: command_seconds(wl, p.ref_seconds, "solve")), "s"),
        "growth_exp": (median_of(passes, lambda p: math.log2(p.seconds[i4] / p.seconds[i2])), "1"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }


def per_layer(wl: workloads.Workload, plain: List[Pass],
              traced: List[Pass]) -> Dict[str, Tuple[float, str]]:
    """Counts from the last traced pass; layer times at reference speed
    (scaled by the pass's median calibration), medians over traced passes;
    per-command times from the untraced passes."""
    values = dict(traced[-1].layers)
    for name in values:
        if tracing.METRICS[name] == "s":
            values[name] = median_of(
                traced, lambda p: p.layers[name] * REF_S / statistics.median(p.cals))
    values["cli.out_bytes"] = traced[-1].out_bytes
    for command in workloads.COMMANDS:
        values[f"cmd.{command}.s"] = median_of(
            plain, lambda p: command_seconds(wl, p.ref_seconds, command))
    untraced = median_of(plain, lambda p: sum(p.ref_seconds))
    values["trace.overhead_s"] = median_of(traced, lambda p: sum(p.ref_seconds)) - untraced
    values["raw.wall_s"] = median_of(plain, lambda p: sum(p.seconds))
    return {name: (values[name], unit) for name, unit in tracing.METRICS.items()}


def setup(name: str, seed: int, workdir: str):
    """Import rowfinite afresh, generate the inputs, write the spec files and
    run the warm-up op; returns the modules, the workload and the time at
    reference speed."""
    before = calibrate()
    start = perf_counter()
    modules = import_rowfinite()
    wl = workloads.build(name, seed, workdir)
    wl.write_files()
    call(modules["cli"], wl.warmup.argv)
    seconds = perf_counter() - start
    return modules, wl, scaled(seconds, before, calibrate())


def measure(args) -> dict:
    """Set up and run a pass until ``--seconds`` have elapsed, at least
    MIN_PASSES times; with tracing, each pass is followed by a traced one."""
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    tracer = tracing.Tracer() if args.trace else None
    setups: List[float] = []
    first: List[Call] = []
    plain: List[Pass] = []
    traced: List[Pass] = []
    deadline = perf_counter() + args.seconds
    while len(plain) < MIN_PASSES or perf_counter() < deadline:
        modules, wl, seconds = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
        plain.append(run_pass(modules["cli"], wl, keep=None if first else first))
        if tracer is not None:
            tracer.install(modules)
            try:
                traced.append(run_pass(modules["cli"], wl, tracer=tracer,
                                       first_op=len(traced) * len(wl.ops)))
            finally:
                tracer.uninstall()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reasons = check_ops(wl, first, load_digests(args.workload, args.seed))
    attempted, failed = count_failures(wl, plain + traced, reasons)
    for op, reason in zip(wl.ops, reasons):
        if reason is not None:
            print(f"FAILED {op.label}: {reason}", file=sys.stderr)
    if tracer is not None:
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = per_layer(wl, plain, traced)
    else:
        metrics = end_to_end(wl, plain, setups, peak_rss_kib)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def record_digests(name: str) -> None:
    """Store the stdout digests of one default-seed pass of ``name``."""
    modules, wl, _ = setup(name, DEFAULT_SEED, os.path.join(WORK, f"{name}-record"))
    first: List[Call] = []
    run_pass(modules["cli"], wl, keep=first)
    reasons = check_ops(wl, first, None)
    if any(reasons):
        raise SystemExit(f"refusing to record failing outputs: {reasons}")
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[name] = {op.label: digest(c.out) for op, c in zip(wl.ops, first)}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the default-seed stdout digests and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rowfinite", "cli.py")):
        print(f"error: no rowfinite sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    if args.record_digests:
        record_digests(args.workload)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
