"""Benchmark workloads and the seeded input generator.

Each workload is a lattice-chain potential-energy sweep built with the same
model as the shipped fixtures (tools/make_fixtures.py). The workload seed
draws every geometry's spacing, and is passed on as the manifest's `seed`
(shot sampling) and `qcc.seed` (Nelder-Mead restarts), so the program sees
only the generated FCIDUMP and manifest files.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

# On-site repulsion of the shipped chain fixtures.
REPULSION = 0.8

# Each spacing is a grid point plus a seed-drawn offset in [-JITTER, JITTER].
# The grid points and offsets keep every spacing inside the shipped fixture
# range (0.85-1.15). The accuracy reached at a fixed iteration budget depends
# on the spacing (about 2 mHa per unit at 8 qubits), so a small offset keeps
# `max_delta_mha` comparable from seed to seed while the inputs still change.
JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "pes" or "qcc"
    n_sites: int  # electrons = spatial orbitals = sites; qubits = 2 * sites
    grid: tuple[float, ...]  # spacings before the seed's offset
    max_iterations: int
    generators_per_iteration: int
    shots: int | None
    why: str

    @property
    def summary_name(self) -> str:
        return "pes.csv" if self.command == "pes" else "summary.csv"


WORKLOADS: dict[str, Workload] = {
    # The paper's PES use: two 8-qubit geometries solved by the CLI's sweep
    # thread pool, one generator per iteration, shots on. Dominated by
    # optimize_amplitudes -> expectation; the workload with the longest
    # budget, so dressed-term growth shows here.
    "chain4-sweep": Workload(
        name="chain4-sweep",
        command="pes",
        n_sites=4,
        grid=(0.90, 1.10),
        max_iterations=6,
        generators_per_iteration=1,
        shots=10000,
        why="pes over two 8-qubit geometries: optimizer and expectation bound, "
        "thread pool and dress-term growth in play",
    ),
    # One 12-qubit geometry with a short budget: the dense oracle at its
    # ceiling (4096^2 matrix), the largest chem build and 225 QWC groups for
    # the shot emulator. A single geometry bypasses the thread pool. This is
    # where memory work on the oracle should show and chain4 should not move.
    "chain6-wide": Workload(
        name="chain6-wide",
        command="pes",
        n_sites=6,
        grid=(1.00,),
        max_iterations=2,
        generators_per_iteration=1,
        shots=10000,
        why="pes on one 12-qubit geometry: dense oracle ceiling, largest chem "
        "build, 225 shot groups, no thread pool",
    ),
    # The qcc command (not pes) with two generators folded per iteration:
    # Nelder-Mead instead of grid + golden section over the same expectation
    # and dress layers, no shots and no re-parse. Two geometries, not one:
    # a single solver thread showed 2-5x the command-to-command variation
    # of a two-thread sweep on a shared 2-vCPU host, too much for its bound.
    "chain4-batch": Workload(
        name="chain4-batch",
        command="qcc",
        n_sites=4,
        grid=(0.95, 1.05),
        max_iterations=3,
        generators_per_iteration=2,
        shots=None,
        why="qcc over two 8-qubit geometries with two generators per "
        "iteration: Nelder-Mead path, no shots",
    ),
}


def _load_fixture_model(root: Path):
    """Import tools/make_fixtures.py from the checkout without running it."""
    path = root / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    if spec is None or spec.loader is None or not path.is_file():
        raise FileNotFoundError(f"fixture model not found: {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spacings(workload: Workload, seed: int) -> list[str]:
    """Seed-drawn spacings, as the labels written into the manifest."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [f"{d + rng.uniform(-JITTER, JITTER):.4f}" for d in workload.grid]


def generate(root: Path, workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the workload's FCIDUMP files and manifest; return the manifest."""
    model = _load_fixture_model(root)
    work_dir.mkdir(parents=True, exist_ok=True)
    geometries = []
    for label in spacings(workload, seed):
        h_site, g_site, e_nuc = model.site_model(
            workload.n_sites, float(label), REPULSION
        )
        h_mo, g_mo = model.to_orbital_basis(h_site, g_site)
        model.write_fcidump(
            work_dir / f"{label}.fcidump", h_mo, g_mo, e_nuc, workload.n_sites
        )
        geometries.append({"label": label, "fcidump": f"{label}.fcidump"})
    manifest = {
        "schema": "qcc-manifest/1",
        "geometries": geometries,
        "active_electrons": workload.n_sites,
        "active_orbitals": workload.n_sites,
        "mapping": "jordan_wigner",
        "output_dir": "out",
        "qcc": {
            "generators_per_iteration": workload.generators_per_iteration,
            "max_iterations": workload.max_iterations,
            "seed": seed,
        },
        "seed": seed,
    }
    if workload.shots:
        manifest["shots"] = workload.shots
    path = work_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path
