"""QCC sweep benchmark: drive the qccvqe CLI on seeded workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is generated from the seed and run as a
closed loop: one CLI command at a time, each in a fresh process, until
--seconds have passed (at least one command).

--trace 0 measures the end-to-end metrics. Before each command a fresh
process imports qccvqe.cli (setup_s); the command's wall time and peak RSS
come from wait4 on its process. Reported values are medians over the run.

--trace 1 alternates an untraced and a traced command. The traced command
wraps each layer's functions in spans (spans.py) and reports per-layer
metrics as medians over traced commands, plus the tracing overhead.

Every command's outputs are checked (checks.py). The last line of stdout is
the JSON result; the lines before it give the environment and every metric
by name and unit, failed_frac included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS to one thread, here and in every command: OpenBLAS defaults to
# nproc threads and the CLI's sweep pool already runs up to two.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

from checks import Operation, check_outputs  # noqa: E402
from spans import layer_metrics, layer_unit  # noqa: E402
from workloads import WORKLOADS, Workload, generate, spacings  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# The run must end within 180 s; commands still going after this are killed.
HARD_LIMIT_S = 165.0
# Import probes per command, and the fewest a run takes.
SETUP_PER_COMMAND = 2
MIN_SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "iterations_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "max_delta_mha": "mHa",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed import)."""


@dataclass
class Command:
    start: float
    end: float
    rss_mib: float
    exit_code: int
    operations: list[Operation]
    spans: list[dict] | None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work_dir = root / ".perfbench-work" / f"{workload.name}-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.manifest: Path | None = None
        self.labels = spacings(workload, seed)

    def setup(self) -> None:
        for required in ("src/qccvqe/cli.py", "tools/make_fixtures.py"):
            if not (self.root / required).is_file():
                raise BenchError(f"{required} not found under {self.root}")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.manifest = generate(self.root, self.workload, self.seed, self.work_dir)
        # Warm the bytecode caches once, unmeasured: users do not pay
        # compilation on every invocation.
        self.setup_probe()

    def _run(self, cmd: list[str], log: str):
        """Run cmd to completion; return (start, end, peak RSS MiB, exit code)."""
        timeout = max(self.started + HARD_LIMIT_S - time.perf_counter(), 1.0)
        with open(self.work_dir / log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=self.work_dir, stdout=out,
                stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                killer.cancel()
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return start, end, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_probe(self) -> float:
        """Fresh-process import of qccvqe.cli, in seconds."""
        start, end, _, code = self._run(
            [sys.executable, "-c", "import qccvqe.cli"], log="import.log"
        )
        if code != 0:
            raise BenchError("import qccvqe.cli failed; see import.log")
        return end - start

    def command(self, traced: bool) -> Command:
        wl = self.workload
        out_dir = self.work_dir / "out"
        spans_path = self.work_dir / "spans.json"
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd += [wl.command, str(self.manifest)]
        start, end, rss, code = self._run(cmd, log="command.log")
        ops = check_outputs(
            out_dir, self.labels, wl.summary_name, bool(wl.shots), code
        )
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        for op in ops:
            if not op.ok:
                print(f"{wl.name} {op.label}: FAILED: {op.failure}", file=sys.stderr)
        return Command(start, end, rss, code, ops, spans)

    def time_left(self) -> bool:
        return time.perf_counter() - self.started < self.seconds


def end_to_end(bench: Bench) -> tuple[list[Command], dict[str, float]]:
    setup, commands = [], []
    while True:
        setup.extend(bench.setup_probe() for _ in range(SETUP_PER_COMMAND))
        commands.append(bench.command(traced=False))
        if not bench.time_left():
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(bench.setup_probe())

    def med(values):
        values = [v for v in values if not math.isnan(v)]
        return statistics.median(values) if values else float("nan")

    def max_delta(c: Command) -> float:
        return max((op.delta_mha for op in c.operations if op.ok), default=math.nan)

    def iterations(c: Command) -> int:
        return sum(op.iterations for op in c.operations if op.ok)

    ops = [op for c in commands for op in c.operations]
    metrics = {
        "setup_s": med(setup),
        "wall_s": med(c.wall_s for c in commands),
        "iterations_per_s": med(iterations(c) / c.wall_s for c in commands),
        "peak_rss_mib": med(c.rss_mib for c in commands),
        "max_delta_mha": med(max_delta(c) for c in commands),
        "failed_frac": sum(not op.ok for op in ops) / len(ops),
    }
    return commands, metrics


def per_layer(bench: Bench) -> tuple[list[Command], dict[str, float]]:
    plain, traced = [], []
    while True:
        plain.append(bench.command(traced=False))
        traced.append(bench.command(traced=True))
        if not bench.time_left():
            break
    samples = [
        layer_metrics(c.spans, c.start, c.end) for c in traced if c.spans is not None
    ]
    if not samples:
        raise BenchError("no traced command wrote its spans; see command.log")
    metrics = {
        name: statistics.median(s[name] for s in samples) for name in samples[0]
    }
    metrics["trace.overhead_s"] = statistics.median(
        c.wall_s for c in traced
    ) - statistics.median(c.wall_s for c in plain)
    return plain + traced, metrics


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark pass; print metrics and return the result object."""
    bench = Bench(ROOT, workload, seed, seconds)
    bench.setup()
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {seed} spacings {' '.join(bench.labels)}")
    if trace:
        commands, metrics = per_layer(bench)
        units = {name: layer_unit(name) for name in metrics}
    else:
        commands, metrics = end_to_end(bench)
        units = END_TO_END_UNITS
    ops = [op for c in commands for op in c.operations]
    failed = sum(not op.ok for op in ops)
    for c in commands:
        kind = "traced" if c.spans is not None else "plain"
        print(f"command {kind} wall_s {c.wall_s:.4f} peak_rss_mib {c.rss_mib:.2f} "
              f"exit {c.exit_code}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        # failed_frac is 0 when nothing fails, so it is printed above and
        # carried by attempted/failed rather than listed as a metric.
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name != "failed_frac"
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
