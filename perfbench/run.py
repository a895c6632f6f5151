"""stretchlab benchmark: CLI workloads end to end, layers in a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {stretch,modes,catalog} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout. Set-up time is
the median over several processes, each timed from its start to the end
of its input generation; one of them is the workload process, which then
runs the workload in a closed loop (one caller, each CLI operation waits
for the previous one) with the BLAS thread count capped at nproc. Both
times are rescaled to the reference host speed with the yardstick of
``hostspeed.py``, which the workload process times every half second of
its run. The last line of standard output
is the result as JSON; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones. The full record (environment, per-round
times, yardstick samples, failures, defect probes) goes to
``perfbench/results/``.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("stretch", "modes", "catalog")
SETUP_PROBES = 8
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def spawn(args, extra, deadline):
    """Start a worker; return (process, seconds from start to ``ready``)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--results", str(RESULTS),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (read {line!r})")
    return proc, setup


def stop(proc):
    proc.kill()
    proc.communicate()


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = spawn(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = spawn(args, [], deadline)
    setups.append(setup)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = setups
    return report


def result(args, report):
    failed = len(report["failures"])
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in report["per_layer"].items()}
    else:
        metrics = {
            "wall_ref_s": {
                "value": to_reference(statistics.median(report["round_s"]), report["yardstick_s"]),
                "unit": "s",
            },
            "setup_s": {
                "value": to_reference(statistics.median(report["setup_s"]), report["yardstick_s"]),
                "unit": "s",
            },
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    correct = failed == 0 and report.get("counts_repeat", True)
    return {
        "correct": bool(correct),
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stretchlab" / "cli.py").is_file():
        print(f"error: no stretchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except (BenchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = result(args, report)
    report["result"] = out
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=2, sort_keys=True))
    summary = {
        "record": str(record.relative_to(ROOT)),
        "env": {k: v for k, v in report["env"].items() if k != "inputs"},
        "failed_frac": out["failed"] / out["attempted"],
        "failures": report["failures"],
        "defects_reproduced": {k: v["reproduced"] for k, v in report["probes"].items()},
        "rounds": len(report["round_s"]),
        "wall_s": statistics.median(report["round_s"]),
        "setup_raw_s": statistics.median(report["setup_s"]),
        "yardstick_s": statistics.median(report["yardstick_s"]) if report["yardstick_s"] else None,
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
