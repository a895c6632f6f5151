"""One workload process: set up, run timed rounds, check, report.

Started by ``run.py``, which times set-up from process start to the
``ready`` line. The process then runs the workload's round of CLI
operations in a closed loop, one operation at a time, for the given
number of seconds (at least one round), checks every output, runs the
known-defect probes untimed and prints its report as one JSON line.

With ``--trace 1`` it runs one untraced round first, then installs the
layer wrappers from ``tracing.py`` for the traced rounds, so the tracing
overhead is the traced round time minus the untraced one.

An untraced run samples the host's speed with the yardstick of
``hostspeed.py`` every half second while the rounds run; the sampling
time is taken out of the operation it interrupted.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import Sampler  # noqa: E402


def call_cli(cli, argv, host=None):
    """Call the CLI in-process with its output captured.

    Returns (exit code, escaped exception or None, stdout, stderr, seconds);
    only the call itself is timed, less the time the ``host`` sampler, if
    given, spent sampling during it.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sampling = host.spent if host else 0.0
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is an outcome to report
            raised = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if host:
            elapsed -= host.spent - sampling
    return rc, raised, out.getvalue(), err.getvalue(), elapsed


def run_op(cli, op, host):
    """Run one workload operation; (seconds, failure messages)."""
    rc, raised, stdout, stderr, elapsed = call_cli(cli, op.argv, host)
    if raised is not None:
        return elapsed, [f"raised {raised}"]
    try:
        return elapsed, op.check(rc, stdout, stderr)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return elapsed, [f"unreadable output: {type(exc).__name__}: {exc}"]


class Runner:
    def __init__(self, cli, workload, host):
        self.cli = cli
        self.workload = workload
        self.host = host
        self.attempted = 0
        self.failures = []

    def round(self, tracer=None):
        """Run the workload's operations once; total operation seconds."""
        total = 0.0
        for op in self.workload.ops:
            if tracer is not None:
                tracer.op_id += 1
            elapsed, errors = run_op(self.cli, op, self.host)
            total += elapsed
            self.attempted += 1
            if errors:
                self.failures.append({"op": op.label, "errors": errors})
        if tracer is not None:
            tracer.end_round()
        return total


def run_probes(cli, workdir):
    """Run each known-defect probe once; ``reproduced`` is true while the
    defect still shows."""
    from workloads import PROBES

    outcomes = {}
    for name, (argv, expected_rows) in PROBES.items():
        out_csv = workdir / f"{name}.csv"
        if expected_rows is not None:
            argv = argv + ["--out", str(out_csv)]
        rc, raised, _, stderr, elapsed = call_cli(cli, argv)
        rows = None
        if expected_rows is not None and out_csv.exists():
            rows = max(0, len(out_csv.read_text().splitlines()) - 1)
        outcomes[name] = {
            "argv": argv,
            "exit_code": rc,
            "raised": raised,
            "rows": rows,
            "expected_rows": expected_rows,
            "reproduced": raised is not None or rc != 0 or rows != expected_rows,
            "stderr_tail": stderr.strip()[-300:],
            "seconds": elapsed,
        }
    return outcomes


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args, workload):
    import numpy
    import scipy
    from workloads import mesh_sizes

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mesh": mesh_sizes(args.workload),
        "inputs": workload.inputs,
    }


def timed_rounds(runner, seconds, tracer=None, before=0.0):
    """Closed-loop rounds while another one is expected to fit in ``seconds``."""
    times = []
    begin = time.perf_counter() - before
    while True:
        times.append(runner.round(tracer))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(times) > seconds:
            return times


def traced_metrics(tracer, times, untraced):
    """Per-layer metrics per round: counts of the first traced round, times
    as the median over traced rounds."""
    per_round = []
    first_op = 0
    for last_op, counters in tracer.rounds:
        stats = tracer.layer_stats(range(first_op, last_op + 1))
        stats.update(counters)
        per_round.append(stats)
        first_op = last_op + 1
    first = per_round[0]
    counts = [k for k in first if not k.endswith("_s")]
    repeat = all(all(r[k] == first[k] for k in counts) for r in per_round)
    metrics = {}
    for key in first:
        if key.endswith("_s"):
            metrics[key] = statistics.median(r[key] for r in per_round)
        else:
            metrics[key] = first[key]
    wall = statistics.median(times)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced
    metrics["trace.accounted_frac"] = metrics.pop("accounted_s") / wall
    metrics["trace.spans"] = metrics.pop("spans")
    metrics["trace.unmeasured_layers"] = len(tracer.unmeasured)
    return metrics, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--results", type=Path, required=True)
    args = parser.parse_args(argv)

    from stretchlab import cli
    from workloads import WORKLOADS

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        host = Sampler()
        runner = Runner(cli, workload, host)
        report = {}
        if args.trace:
            from tracing import Tracer

            t0 = time.perf_counter()
            untraced = runner.round()
            tracer = Tracer()
            tracer.install()
            try:
                times = timed_rounds(runner, args.seconds, tracer, time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            report["per_layer"], report["counts_repeat"] = traced_metrics(tracer, times, untraced)
            report["unmeasured"] = tracer.unmeasured
            args.results.mkdir(parents=True, exist_ok=True)
            spans = args.results / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
        else:
            with host:
                times = timed_rounds(runner, args.seconds)
        report["yardstick_s"] = host.samples
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["round_s"] = times
        report["attempted"] = runner.attempted
        report["failures"] = runner.failures
        report["probes"] = run_probes(cli, workdir)
        report["env"] = environment(args, workload)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
