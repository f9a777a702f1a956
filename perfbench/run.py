"""Benchmark of the mfmls library and CLI on four fixed workloads.

Usage (from the root of a source checkout; the package need not be installed)::

    python3 perfbench/run.py --workload mls --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

Each run sets the workload up at least three times in fresh processes (the
median is ``setup_s``), then runs the timed section in one more process
against ``src/`` via ``PYTHONPATH``, so its peak RSS excludes set-up
sampling. ``wall_ref`` is the timed section's seconds divided by the median
seconds of a fixed reference loop sampled while it ran, so that drift in the
shared host's speed cancels; the raw seconds are printed as ``wall_s``.
With ``--trace 1`` set-up and timed section run once, traced, and the
per-layer metrics replace the end-to-end ones; an untraced repetition beside
it gives the tracing overhead. Human-readable lines come first; the
last line of standard output is the JSON result. Outputs, inputs, spans and
logs land in ``.perfbench_out/<workload>-seed<seed>-trace<0|1>/``.

Exit codes: 0 when every check passed, 1 when a check or operation failed
or a child process crashed, 2 when the checkout has no ``src/mfmls``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # the benchmark leaves its own directory as checked out
import tracing  # noqa: E402

WORKLOADS = ("sample", "mls", "kernel", "cli_power")
#: BLAS gets one thread so that, with the process's own threads, the
#: benchmark never asks for more than nproc (= 2 on the reference machine).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: setup_s is the median of SETUPS_MIN to SETUPS_MAX set-ups; cheap set-ups
#: repeat until they took SETUP_BUDGET_S in all.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 9, 3.0
#: Every run must end within this many seconds; children are killed past it.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    """A set-up or timed process crashed or ran out of time."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave src/ as checked out
    return env


def run_child(args, run_dir: Path, log_name: str, deadline: float) -> None:
    """Run ``workloads.py args`` to completion, its output going to a log file."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--dir", str(run_dir)]
    remaining = deadline - time.monotonic()
    with open(run_dir / f"{log_name}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{log_name}: killed after the run deadline") from None
    if proc.returncode != 0:
        tail = (run_dir / f"{log_name}.log").read_text().splitlines()[-15:]
        raise ChildFailed(f"{log_name}: exit {proc.returncode}\n" + "\n".join(tail))


def read_json(path: Path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result line dict, human-readable lines)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = ["--workload", workload]
    ledger = {"attempted": 0, "failed": 0, "messages": []}

    def child(args, name):
        run_child(args, run_dir, name, deadline)
        res = read_json(run_dir / f"{args[0]}{'_traced' if '--trace' in args else ''}.json")
        for key in ledger:
            ledger[key] += res[key]
        return res

    def check(ok, message):
        ledger["attempted"] += 1
        if not ok:
            ledger["failed"] += 1
            ledger["messages"].append(message)

    setup_args = ["setup", *base, "--seed", str(seed)] + (["--trace"] if trace else [])
    setup_walls, input_digests = [], set()
    # Cheap set-ups repeat until SETUP_BUDGET_S is spent; a traced run sets up once.
    least, most = (1, 1) if trace else (SETUPS_MIN, SETUPS_MAX)
    while len(setup_walls) < least or (
            len(setup_walls) < most and sum(setup_walls) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        res = child(setup_args, f"setup{len(setup_walls)}")
        setup_walls.append(time.perf_counter() - t0)
        input_digests.add(res["inputs_digest"])
    if None in input_digests:
        raise ChildFailed("set-up failed: " + "; ".join(ledger["messages"]))
    check(len(input_digests) == 1, "set-up produced different inputs on repetition")

    # A traced run times one repetition each way, so its counts are exact.
    timed_args = ["timed", *base, "--seconds", str(0 if trace else seconds)]
    timed = child(timed_args, "timed")
    wall = statistics.median(timed["walls"])
    wall_ref = statistics.median(w / r for w, r in zip(timed["walls"], timed["ref_s"]))
    if trace:
        traced = child([*timed_args, "--trace"], "timed_traced")
        check(traced["digest"] == timed["digest"], "traced outputs differ from untraced ones")
        span_files = [read_json(run_dir / f"spans_{p}.json") for p in ("setup", "timed")]
        with open(run_dir / "trace.json", "w", encoding="ascii") as fh:
            json.dump(span_files, fh, separators=(",", ":"))
        metrics = tracing.layer_metrics([f["spans"] for f in span_files],
                                        traced["walls"][0], wall)
    else:
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed, messages = (ledger[k] for k in ("attempted", "failed", "messages"))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    lines = [f"== {workload}  seed {seed}  trace {int(trace)}  ({run_dir.relative_to(ROOT)})"]
    lines += [f"  {name:<44} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    if not trace:
        lines.append(f"  {'wall_s':<44} {wall:>16.6g} s")
    lines.append(f"  {'fail_ratio':<44} {failed / attempted:>16.6g} ratio"
                 f"  ({failed}/{attempted})")
    lines.append(f"  repetitions {len(timed['walls'])}: "
                 + " ".join(f"{w:.4f}" for w in timed["walls"]) + " s;"
                 + " set-ups: " + " ".join(f"{w:.4f}" for w in setup_walls) + " s")
    parts = timed["parts"][0]
    lines.append("  parts (first rep): " + ", ".join(f"{k} {v:.4f} s" for k, v in parts.items()))
    lines.append(f"  output digest sha256:{timed['digest']}")
    lines.append(f"  inputs digest sha256:{input_digests.pop()}")
    machine = timed["machine"]
    lines.append("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    lines += [f"  FAILED: {msg}" for msg in messages]

    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  walls=timed["walls"], ref_s=timed["ref_s"], setup_walls=setup_walls,
                  parts=timed["parts"],
                  digest=timed["digest"], machine=machine, messages=messages)
    with open(run_dir / "result.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="minimum seconds of timed repetitions (default 8)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mfmls" / "__init__.py").is_file():
        print(f"perfbench: no src/mfmls under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result, lines = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace))
        except ChildFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[workload] = result

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
