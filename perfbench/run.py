"""Seeded benchmark of multidisc: classify, symbolic and root-side paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload, one process each
    python3 perfbench/selfcheck.py --workload NAME --seed N   # traced counts repeat

One client in one process and one thread sends one operation after another
(a closed loop).  An operation is one user request: ``multidisc.cli.main``
in-process with stdout captured, or, for ``verify``, the root-side
cross-check through the library.  Inputs come from ``--seed`` and are drawn
in blocks (see workloads.py); a run stops at the first block boundary after
``--seconds``.  No input meets a library instance that has seen it: inputs
do not repeat, except in ``symbolic``, whose few distinct requests repeat
once per block with the library imported afresh before each block.  Every
output is checked against an oracle after the timed loop; an operation that
raises or fails its check counts as failed, and the share of those is
printed as ``fail_ratio`` (also carried by ``attempted``/``failed``).

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` runs a fixed, seeded list of operations twice, first plain and
then with spans around each layer (see tracing.py), and reports the
per-layer metrics, including the traced/plain time ratio.

Timing on a shared machine: the cores this was sized on change speed by up
to 1.7x for seconds at a time, because of load outside the container, which
no amount of run length averages out.  So every time the benchmark reports
is normalized by the machine's pace, measured every 0.1 s with a fixed
stdlib-only calibration kernel: a time of t seconds measured while the
kernel runs at k times its reference time is reported as t / k.  The values
read as milliseconds on an uncontended core; the raw wall-clock figures are
printed beside them (``wall.*``) and written to the result file.  The kernel
uses no library code, so a change to the library cannot move it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from math import inf
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER, REPEATABLE, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
PACE_EVERY_S = 0.1
# Time of one calibration kernel on an uncontended core of the machine the
# benchmark was sized on (Intel Xeon at 2.0 GHz, Python 3.11.7).
REF_KERNEL_S = 0.75e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(3, i)
    return acc


def machine_pace() -> float:
    """Best of three kernel times over the reference: 1.0 uncontended, higher when slowed."""
    best = inf
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best / REF_KERNEL_S


def load_library() -> SimpleNamespace:
    """Fresh import of multidisc from the checkout's src/."""
    for name in [m for m in sys.modules if m == "multidisc" or m.startswith("multidisc.")]:
        del sys.modules[name]
    package = importlib.import_module("multidisc")
    if Path(package.__file__).resolve().parent != SRC / "multidisc":
        raise ImportError(f"multidisc imported from {package.__file__}, not from {SRC}")
    mods = {}
    for name in ("cli", "engine", "partitions", "roots", "unipoly"):
        # sys.modules, not package attributes: multidisc.classify is the function
        importlib.import_module(f"multidisc.{name}")
        mods[name] = sys.modules[f"multidisc.{name}"]
    return SimpleNamespace(**mods, UniPoly=mods["unipoly"].UniPoly)


def prepare(workload, seed: int, seconds: float):
    """Import, seeded input generation and warm-up; returns (lib, ops)."""
    lib = load_library()
    ops = workload.make_ops(lib, seed, seconds)
    for op in workload.warmup(lib):
        workload.run(lib, op)
    return lib, ops


def timed_setup(workload, seed: int, seconds: float):
    """``prepare``, timed; returns (wall_s, paced_s, lib, ops)."""
    gc.collect()  # start each repetition from the same heap
    pace_before = machine_pace()
    start = perf_counter()
    lib, ops = prepare(workload, seed, seconds)
    wall = perf_counter() - start
    pace = (pace_before + machine_pace()) / 2
    return wall, wall / pace, lib, ops


def timed_pass(workload, lib, ops, seconds=None, tracer=None, fresh_lib=None):
    """Closed loop over ``ops`` until they run out, or until the first block
    boundary after ``seconds`` of wall time, so every run sees whole blocks.
    With ``fresh_lib``, the library is imported afresh (untimed) before every
    block after the first, for workloads whose blocks repeat requests.

    Returns (outputs, wall_ns, paced_ns, paces, marks): per operation run its
    output, wall time, paced time and the index of the pace sample before it.
    """
    paces = [machine_pace()]
    marks, outputs, wall = [], [], []
    start = last_pace = perf_counter()
    for idx, op in enumerate(ops):
        now = perf_counter()
        if idx and idx % workload.block_size == 0:
            if seconds is not None and now - start >= seconds:
                break
            if fresh_lib is not None:
                lib = fresh_lib()
        if now - last_pace >= PACE_EVERY_S:
            paces.append(machine_pace())
            last_pace = perf_counter()
        if tracer is not None:
            tracer.op = idx
        t0 = perf_counter_ns()
        try:
            out = workload.run(lib, op)
        except Exception:  # the loop must go on; the failure is counted at check time
            out = OpError(traceback.format_exc(limit=-1).strip().splitlines()[-1])
        wall.append(perf_counter_ns() - t0)
        marks.append(len(paces) - 1)
        outputs.append(out)
    paces.append(machine_pace())
    paced = [w / ((paces[m] + paces[m + 1]) / 2) for w, m in zip(wall, marks)]
    return outputs, wall, paced, paces, marks


class OpError:
    def __init__(self, message: str):
        self.message = message


def check_all(workload, lib, ops, outputs, label="op") -> list[str]:
    failures = []
    for idx, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, OpError):
            reason = f"raised {out.message}"
        else:
            try:
                reason = workload.check(lib, op, out)
            except Exception:  # a malformed output fails its check; keep checking the rest
                reason = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if reason:
            failures.append(f"{label} {idx}: {reason}")
    return failures


def latency_metrics(times_ns, setup_s: float) -> dict:
    ms = [t / 1e6 for t in times_ns]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_end_to_end(workload, args, lib, ops, setup_wall, setup_paced, env) -> dict:
    fresh_lib = None
    if workload.repeats_requests:
        fresh_lib = lambda: prepare(workload, args.seed, args.seconds)[0]  # noqa: E731
    outputs, wall, paced, paces, marks = timed_pass(
        workload, lib, ops, seconds=args.seconds, fresh_lib=fresh_lib)
    metrics = latency_metrics(paced, statistics.median(setup_paced))
    wall_metrics = latency_metrics(wall, statistics.median(setup_wall))
    failures = check_all(workload, lib, ops, outputs)
    env["pace_median"] = statistics.median(paces)
    print(f"samples = {len(outputs)} operations ({len(ops)} generated)")
    print(f"fail_ratio = {len(failures) / len(outputs):.6f} ratio")
    for name, value in wall_metrics.items():
        print(f"wall.{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {
        "attempted": len(outputs),
        "failures": failures,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
        "record": {"wall_metrics": wall_metrics, "latency_wall_ns": wall,
                   "latency_paced_ns": paced, "paces": paces, "pace_index": marks,
                   "setup_wall_s": setup_wall, "setup_paced_s": setup_paced},
    }


def run_traced(workload, args, lib, ops) -> dict:
    count = workload.trace_blocks * workload.block_size
    plain_ops = ops[:count]
    plain_out, _, plain_paced, _, _ = timed_pass(workload, lib, plain_ops)
    # the same seeded inputs again, for a fresh library that has not seen them
    lib, ops = prepare(workload, args.seed, args.seconds)
    ops = ops[:count]
    tracer = Tracer()
    tracer.install()
    try:
        traced_out, traced_wall, traced_paced, _, _ = timed_pass(workload, lib, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    failures = (check_all(workload, lib, plain_ops, plain_out, "plain op")
                + check_all(workload, lib, ops, traced_out, "traced op"))
    overhead = sum(traced_paced) / sum(plain_paced)
    metrics = layer_metrics(tracer, traced_wall, traced_paced, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    print(f"traced operations = {len(ops)} (each run plain, then traced)")
    print(f"spans = {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"absent wrap targets: {sorted(tracer.missing)}")
    return {
        "attempted": 2 * len(ops),
        "failures": failures,
        "metrics": metrics,
        "record": {"repeatable_counts": {k: metrics[k]["value"] for k in REPEATABLE},
                   "missing_targets": sorted(tracer.missing)},
    }


def definition_drift() -> str | None:
    """What BENCHMARK.json lists that the code does not report, or the reverse."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    for key, code in (("workloads", WORKLOADS), ("end_to_end", END_TO_END_UNITS),
                      ("per_layer", PER_LAYER)):
        listed = [entry["name"] for entry in definition[key]]
        if sorted(listed) != sorted(code):
            return f"{key}: listed {sorted(set(listed) ^ set(code))} differ"
    return None


def run_all(args) -> int:
    """Each workload in its own process, one after another; one summary line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multidisc" / "__init__.py").is_file():
        print(f"error: no multidisc sources under {SRC}", file=sys.stderr)
        return 2
    drift = definition_drift()
    if drift:
        print(f"error: BENCHMARK.json and the benchmark code disagree: {drift}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    env = environment()
    setup_wall, setup_paced = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        lib = ops = None  # drop the previous repetition's library and inputs first
        wall, paced, lib, ops = timed_setup(workload, args.seed, args.seconds)
        setup_wall.append(wall)
        setup_paced.append(paced)
    if args.trace:
        result = run_traced(workload, args, lib, ops)
    else:
        result = run_end_to_end(workload, args, lib, ops, setup_wall, setup_paced, env)
    env["loadavg_end"] = os.getloadavg()

    for line in result["failures"][:10]:
        print(f"FAIL {line}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print("environment: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "why": workload.why, "args": vars(args),
                   "environment": env, "metrics": result["metrics"],
                   "failures": result["failures"], **result["record"]}, handle)
    print(f"record written to {record_path.relative_to(ROOT)}")
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
