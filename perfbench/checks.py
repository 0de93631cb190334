"""Correctness checks on the files one CLI command wrote.

One operation is one geometry's solve plus, when shots run, its shot
estimate. Any failed check marks that operation failed; nothing is retried
or dropped.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

# E_qcc may undercut E_fci by rounding only: the variational bound.
VARIATIONAL_TOL = 1e-9
# A shot estimate may miss the exact energy by at most this many std errors.
SHOT_SIGMAS = 5.0


@dataclass(frozen=True)
class Operation:
    label: str
    failure: str | None  # None when every check passed
    iterations: int  # accepted QCC iterations
    delta_mha: float  # E_qcc - E_fci in mHa

    @property
    def ok(self) -> bool:
        return self.failure is None


def check_geometry(
    label: str, row: dict | None, trace: dict | None, shots: dict | None,
    shots_expected: bool,
) -> Operation:
    """Check one geometry's summary row, trace and shot estimate."""
    if row is None:
        return Operation(label, "no summary row", 0, float("nan"))
    if row.get("status") != "ok":
        return Operation(label, f"status {row.get('status')!r}", 0, float("nan"))
    if trace is None:
        return Operation(label, "no trace file", 0, float("nan"))
    energies = [trace["initial_energy"]] + [it["energy"] for it in trace["iterations"]]
    iterations = len(trace["iterations"])
    e_qcc = trace["final_energy"]
    e_fci = trace["e_fci_active"]
    delta_mha = (e_qcc - e_fci) * 1e3
    if e_qcc < e_fci - VARIATIONAL_TOL:
        return Operation(
            label, f"E_qcc {e_qcc!r} below E_fci {e_fci!r}", iterations, delta_mha
        )
    for i in range(1, len(energies)):
        if energies[i] > energies[i - 1]:
            return Operation(
                label, f"energy rises at iteration {i}", iterations, delta_mha
            )
    if shots_expected:
        if shots is None:
            return Operation(label, "no shot estimate", iterations, delta_mha)
        miss = abs(shots["energy"] - shots["exact"])
        if miss > SHOT_SIGMAS * shots["std_error"]:
            return Operation(
                label,
                f"shot estimate misses exact by {miss:.3g} "
                f"(> {SHOT_SIGMAS:g} x std_error {shots['std_error']:.3g})",
                iterations,
                delta_mha,
            )
    return Operation(label, None, iterations, delta_mha)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_outputs(
    out_dir: Path, labels: list[str], summary_name: str, shots_expected: bool,
    exit_code: int,
) -> list[Operation]:
    """Check every geometry of one command; a non-zero exit fails them all."""
    if exit_code != 0:
        return [
            Operation(label, f"exit code {exit_code}", 0, float("nan"))
            for label in labels
        ]
    rows: dict[str, dict] = {}
    try:
        with (out_dir / summary_name).open(newline="", encoding="utf-8") as fh:
            rows = {row["geometry"]: row for row in csv.DictReader(fh)}
    except (OSError, KeyError, csv.Error):
        pass
    ops = []
    for label in labels:
        try:
            op = check_geometry(
                label,
                rows.get(label),
                _read_json(out_dir / f"{label}.trace.json"),
                _read_json(out_dir / f"{label}.shots.json"),
                shots_expected,
            )
        except (KeyError, TypeError) as exc:
            op = Operation(label, f"malformed output: {exc!r}", 0, float("nan"))
        ops.append(op)
    return ops
