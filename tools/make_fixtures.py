"""Regenerate the FCIDUMP fixtures and manifests under fixtures/.

The fixtures are lattice model systems (two-site dimer, four- and six-site
chains) with distance-dependent hopping and a fixed on-site repulsion,
rotated into the orbital basis that diagonalizes the one-body part. They
are fully self-consistent: every integral follows from the few constants
below, so regeneration is deterministic byte for byte.

Usage: python3 tools/make_fixtures.py [output_dir]
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

def site_model(
    n_sites: int, distance: float, repulsion: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One- and two-body integrals for an n-site chain at the given spacing."""
    hopping = np.exp(-(distance - 1.0))
    h_site = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        h_site[i, i + 1] = h_site[i + 1, i] = -hopping
    g_site = np.zeros((n_sites,) * 4)
    for i in range(n_sites):
        g_site[i, i, i, i] = repulsion
    e_nuclear = sum(
        1.0 / (distance * (j - i)) for i in range(n_sites) for j in range(i + 1, n_sites)
    )
    return h_site, g_site, e_nuclear


def to_orbital_basis(h_site: np.ndarray, g_site: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate into the eigenbasis of the one-body matrix, signs fixed."""
    _, coeffs = np.linalg.eigh(h_site)
    for col in range(coeffs.shape[1]):
        pivot = np.flatnonzero(np.abs(coeffs[:, col]) > 1e-12)[0]
        if coeffs[pivot, col] < 0:
            coeffs[:, col] *= -1.0
    h_mo = coeffs.T @ h_site @ coeffs
    g_mo = np.einsum(
        "ijkl,ip,jq,kr,ls->pqrs", g_site, coeffs, coeffs, coeffs, coeffs
    )
    return h_mo, g_mo


def write_fcidump(
    path: Path, h1: np.ndarray, g2: np.ndarray, e_nuclear: float, n_electrons: int
) -> None:
    n = h1.shape[0]
    lines = [
        f" &FCI NORB={n:3d},NELEC={n_electrons:2d},MS2={n_electrons % 2},",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]

    def pair_rank(p: int, q: int) -> int:
        return p * (p + 1) // 2 + q

    for p in range(n):
        for q in range(p + 1):
            for r in range(n):
                for s in range(r + 1):
                    if pair_rank(p, q) < pair_rank(r, s):
                        continue
                    value = g2[p, q, r, s]
                    if abs(value) < 1e-14:
                        continue
                    lines.append(
                        f"{value:23.16e} {p + 1:3d} {q + 1:3d} {r + 1:3d} {s + 1:3d}"
                    )
    for p in range(n):
        for q in range(p + 1):
            if abs(h1[p, q]) < 1e-14:
                continue
            lines.append(f"{h1[p, q]:23.16e} {p + 1:3d} {q + 1:3d}   0   0")
    lines.append(f"{e_nuclear:23.16e}   0   0   0   0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # name -> (sites, electrons, on-site repulsion, distance labels); the
    # chains use a weaker repulsion so single-generator runs converge fast.
    systems = {
        "dimer": (2, 2, 2.0, ["0.80", "1.00", "1.20"]),
        "chain4": (4, 4, 0.8, ["0.90", "1.00", "1.10"]),
        "chain6": (6, 6, 0.8, ["1.00"]),
    }
    for name, (n_sites, n_electrons, repulsion, distances) in systems.items():
        for label in distances:
            h_site, g_site, e_nuc = site_model(n_sites, float(label), repulsion)
            h_mo, g_mo = to_orbital_basis(h_site, g_site)
            write_fcidump(
                out_dir / f"{name}_d{label}.fcidump", h_mo, g_mo, e_nuc, n_electrons
            )

    manifests = {
        "dimer.manifest.json": {
            "schema": "qcc-manifest/1",
            "geometries": [
                {"label": label, "fcidump": f"dimer_d{label}.fcidump"}
                for label in systems["dimer"][3]
            ],
            "active_electrons": 2,
            "active_orbitals": 2,
            "mapping": "jordan_wigner",
            "output_dir": "out-dimer",
            "qcc": {"generators_per_iteration": 1, "max_iterations": 20},
        },
        "chain4.manifest.json": {
            "schema": "qcc-manifest/1",
            "geometries": [
                {"label": label, "fcidump": f"chain4_d{label}.fcidump"}
                for label in systems["chain4"][3]
            ],
            "active_electrons": 4,
            "active_orbitals": 4,
            "mapping": "jordan_wigner",
            "output_dir": "out-chain4",
            "qcc": {"generators_per_iteration": 1, "max_iterations": 12},
            "shots": 10000,
        },
    }
    for filename, payload in manifests.items():
        (out_dir / filename).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    print(f"wrote fixtures to {out_dir}")


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "fixtures"
    build(target)
