"""Shared fixtures: lattice-model FCIDUMP files reduced to qubit problems."""

from __future__ import annotations

from pathlib import Path

import pytest

from qccvqe import (
    build_active_hamiltonian,
    cas_reduce,
    hf_bitstring,
    map_operator,
    parse_fcidump,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def build_problem(name, n_electrons, n_orbitals, mapping="jordan_wigner"):
    """FCIDUMP fixture -> (ActiveSpaceProblem, QubitHamiltonian, HF label)."""
    ints = parse_fcidump((FIXTURES / name).read_text())
    prob = cas_reduce(ints, n_active_electrons=n_electrons, n_active_orbitals=n_orbitals)
    h = map_operator(build_active_hamiltonian(prob), mapping)
    ref = hf_bitstring(n_electrons, prob.n_spin_orbitals, mapping)
    return prob, h, ref


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def load_problem():
    return build_problem


@pytest.fixture(scope="session")
def dimer_problem():
    return build_problem("dimer_d1.00.fcidump", 2, 2)


@pytest.fixture(scope="session")
def chain4_problem():
    return build_problem("chain4_d1.00.fcidump", 4, 4)
