"""Self-tests of the benchmark itself, at tiny sizes (a few seconds):

    python3 perfbench/selftest.py

* every workload passes its own output checks, traced and untraced, and
  tracing leaves stdout byte-identical;
* a corrupted term, a wrong exit code, or a later pass whose stdout drifts
  is counted as failed;
* the same seed yields byte-identical inputs, another seed other inputs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

import run
import tracing
import workloads

TINY_H = {"jordan": 6, "deficient": 8, "regular": 4, "explicit": 8}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(name: str, seed: int = 5) -> workloads.Workload:
    workdir = os.path.join(run.WORK, f"selftest-{name}-seed{seed}")
    wl = workloads.build(name, seed, workdir, h=TINY_H[name])
    wl.write_files()
    return wl


def corrupt(op: workloads.Op, out: str) -> str:
    """The same output with one solution term or reduced entry changed."""
    if op.command in ("solve", "hess"):
        values = out.strip().split(",")
        values[-1] = str(Fraction(values[-1]) + 1)
        return ",".join(values) + "\n"
    payload = json.loads(out)
    if op.command == "reduce":
        row = next(r for r in reversed(payload["rows"]) if r)
        row[0][1] = str(Fraction(row[0][1]) + 1)
    else:
        term = payload["sequences"][0]["terms"][-1]
        term["value"] = str(Fraction(term["value"]) + 1)
    return json.dumps(payload, indent=2) + "\n"


def test_tiny_passes(modules) -> None:
    cli = modules["cli"]
    for name in workloads.NAMES:
        wl = tiny(name)
        first = []
        plain = run.run_pass(cli, wl, keep=first)
        reasons = run.check_ops(wl, first, None)
        require(not any(reasons), f"{name}: {reasons}")
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            traced = run.run_pass(cli, wl, tracer=tracer)
        finally:
            tracer.uninstall()
        require(traced.digests == plain.digests, f"{name}: tracing changed stdout")
        require(run.count_failures(wl, [plain, traced], reasons) == (2 * len(wl.ops), 0),
                f"{name}: clean passes counted as failed")
        metrics = run.per_layer(wl, [plain], [traced])
        require(set(metrics) == set(tracing.METRICS), f"{name}: per-layer metrics missing")
        require(metrics["elimination.pushes"][0] > 0, f"{name}: no pushes traced")
        require(any(span is not None for span in tracer.spans), f"{name}: no spans")


def test_failures_detected(modules) -> None:
    cli = modules["cli"]
    for name in workloads.NAMES:
        wl = tiny(name)
        first = []
        clean = run.run_pass(cli, wl, keep=first)
        for i, op in enumerate(wl.ops):
            if op.command in ("solve", "hess", "reduce", "fundamental") and op.expect_exit == 0:
                bad = list(first)
                bad[i] = run.Call(0.0, 0, corrupt(op, first[i].out), "")
                reasons = run.check_ops(wl, bad, None)
                require(reasons[i] is not None, f"{name} {op.label}: corrupted term passed")
                require(run.count_failures(wl, [clean], reasons)[1] == 1,
                        f"{name} {op.label}: corrupted term not counted")
            wrong = list(first)
            wrong[i] = run.Call(0.0, 3, first[i].out, first[i].err)
            require(run.check_ops(wl, wrong, None)[i] is not None,
                    f"{name} {op.label}: wrong exit code passed")
        drift = dataclasses.replace(clean, digests=list(clean.digests))
        drift.digests[0] = run.digest("")
        reasons = run.check_ops(wl, first, None)
        require(run.count_failures(wl, [clean, drift], reasons)[1] == 1,
                f"{name}: drifting later pass not counted")
        recorded = {op.label: run.digest("not the output") for op in wl.ops}
        require(all(run.check_ops(wl, first, recorded)),
                f"{name}: digest mismatch passed")


def test_seeded_inputs() -> None:
    for name in workloads.NAMES:
        a, b, c = (workloads.build(name, seed, "w", h=TINY_H[name]) for seed in (7, 7, 8))
        inputs = lambda wl: ([op.argv for op in wl.ops], wl.files)
        require(inputs(a) == inputs(b), f"{name}: same seed, different inputs")
        require(inputs(a) != inputs(c), f"{name}: different seeds, same inputs")


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, run.SRC)
    modules = run.import_rowfinite()
    test_tiny_passes(modules)
    test_failures_detected(modules)
    test_seeded_inputs()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
