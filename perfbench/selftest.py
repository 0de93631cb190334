"""Self-test of the benchmark on a tiny generated input (a two-site dimer).

Usage: python3 perfbench/selftest.py

Runs the untraced and the traced pass once each and asserts that every
metric BENCHMARK.json names is emitted with its unit, that nothing failed,
and that the output checker counts a corrupted E_fci comparison (and the
other check kinds) as failures. Exits non-zero on the first broken claim.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import check_outputs
from workloads import Workload, spacings

DIMER = Workload(
    name="dimer-smoke",
    command="pes",
    n_sites=2,
    grid=(0.90, 1.10),
    max_iterations=2,
    generators_per_iteration=1,
    shots=1000,
    why="4-qubit smoke input for the self-test",
)
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, declared: list[dict], kind: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    expect(emitted == wanted, f"{kind} metrics {emitted} != declared {wanted}")
    expect(result["attempted"] >= 1, f"{kind}: nothing attempted")
    expect(result["failed"] == 0, f"{kind}: failed_frac is not 0: {result}")
    expect(result["correct"] is True, f"{kind}: outputs judged incorrect")


def check_checker(out_dir) -> None:
    """Corrupt one geometry's outputs at a time; each must count as failed."""
    label = spacings(DIMER, SEED)[0]
    trace_path = out_dir / f"{label}.trace.json"
    shots_path = out_dir / f"{label}.shots.json"
    trace_text = trace_path.read_text(encoding="utf-8")
    shots_text = shots_path.read_text(encoding="utf-8")

    def failures(code: int = 0) -> list[str]:
        ops = check_outputs(out_dir, [label], DIMER.summary_name, True, code)
        return [op.failure for op in ops if not op.ok]

    expect(failures() == [], "untouched outputs should pass")
    expect(failures(code=3) != [], "a non-zero exit should fail the operation")

    trace = json.loads(trace_text)
    trace["e_fci_active"] = trace["final_energy"] + 1e-3
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    expect(failures() != [], "E_qcc below a corrupted E_fci was not caught")

    trace = json.loads(trace_text)
    trace["initial_energy"] = trace["final_energy"] - 1.0
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    expect(failures() != [], "a rising trace energy was not caught")
    trace_path.write_text(trace_text, encoding="utf-8")

    shots = json.loads(shots_text)
    shots["energy"] = shots["exact"] + 10 * shots["std_error"] + 1e-6
    shots_path.write_text(json.dumps(shots), encoding="utf-8")
    expect(failures() != [], "a shot estimate off by 10 std errors was not caught")
    shots_path.write_text(shots_text, encoding="utf-8")

    summary = out_dir / DIMER.summary_name
    summary_text = summary.read_text(encoding="utf-8")
    summary.write_text(summary_text.replace(",ok", ",error: x"), encoding="utf-8")
    expect(failures() != [], "a non-ok summary status was not caught")
    summary.write_text(summary_text, encoding="utf-8")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run.run(DIMER, SEED, seconds=0.0, trace=False)
    check_metrics(result, declared["end_to_end"], "end-to-end")
    result = run.run(DIMER, SEED, seconds=0.0, trace=True)
    check_metrics(result, declared["per_layer"], "per-layer")
    work_dir = run.ROOT / ".perfbench-work" / f"{DIMER.name}-{SEED}"
    check_checker(work_dir / "out")
    shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
