"""Exact diagonalization oracle against independent dense references."""

import math

import numpy as np
import pytest

from qccvqe import (
    ORACLE_MAX_QUBITS,
    PauliString,
    QubitHamiltonian,
    Statevector,
    apply_pauli,
    exact_ground,
    occupation_decoder,
    oracle,
    to_dense,
)

import reference

RNG_SEED = 20240915


class TestToDense:
    def test_matches_kron_reference(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            h = reference.random_hamiltonian(rng, n, 10)
            assert np.allclose(to_dense(h), reference.ham_matrix(h), atol=1e-12)

    def test_returns_complex128_on_both_routes(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for even_y in (False, True):
            h = reference.random_hamiltonian(rng, 3, 12, even_y=even_y)
            dense = to_dense(h)
            assert dense.dtype == np.complex128
            assert np.allclose(dense, reference.ham_matrix(h), atol=1e-12)

    def test_accepts_bare_string(self):
        p = PauliString.from_label("XZY")
        assert np.allclose(to_dense(p), reference.label_matrix("XZY"), atol=1e-14)

    def test_refuses_oversized_input(self):
        h = QubitHamiltonian(
            ORACLE_MAX_QUBITS + 1,
            {PauliString.identity(ORACLE_MAX_QUBITS + 1): 1.0},
        )
        with pytest.raises(ValueError):
            to_dense(h)


class TestExactGround:
    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            h = reference.random_hamiltonian(rng, n, 12)
            expected = float(np.linalg.eigvalsh(reference.ham_matrix(h))[0])
            ground = exact_ground(h)
            assert ground.energy == pytest.approx(expected, abs=1e-10)
            residual = reference.ham_matrix(h) @ ground.vector
            residual -= ground.energy * ground.vector
            assert np.linalg.norm(residual) < 1e-8

    def test_degeneracy_flag(self):
        degenerate = QubitHamiltonian.from_labels({"ZI": 1.0})
        assert exact_ground(degenerate).degenerate
        gapped = QubitHamiltonian.from_labels({"Z": 1.0, "X": 0.5})
        ground = exact_ground(gapped)
        assert not ground.degenerate
        assert ground.energy == pytest.approx(-math.sqrt(1.25), abs=1e-12)

    def test_sector_restriction_changes_answer(self):
        # sum of Z has ground -3 globally but +1 in the one-electron sector
        h = QubitHamiltonian.from_labels({"ZII": 1.0, "IZI": 1.0, "IIZ": 1.0})
        decoder = occupation_decoder("jordan_wigner", 3)
        assert exact_ground(h).energy == pytest.approx(-3.0, abs=1e-12)
        sector = exact_ground(h, n_electrons=1, occupation_of=decoder)
        assert sector.energy == pytest.approx(1.0, abs=1e-12)
        occupations = np.flatnonzero(np.abs(sector.vector) > 1e-12)
        assert all(int(i).bit_count() == 1 for i in occupations)

    def test_single_state_sector(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "XX": 0.5})
        decoder = occupation_decoder("jordan_wigner", 2)
        ground = exact_ground(h, n_electrons=2, occupation_of=decoder)
        # only |11> has two electrons; its energy is the diagonal entry
        assert ground.energy == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(np.abs(ground.vector)) == 3

    def test_sector_needs_decoder_and_nonempty(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        with pytest.raises(ValueError):
            exact_ground(h, n_electrons=1)
        with pytest.raises(ValueError):
            exact_ground(
                h, n_electrons=5, occupation_of=occupation_decoder("jw", 2)
            )

    def test_sparse_path_on_product_hamiltonian(self):
        # 13 qubits forces the iterative path; sum of (Z + 0.3 X) factorizes,
        # so the exact ground energy is -13 sqrt(1.09)
        n = 13
        terms = {}
        for q in range(n):
            terms[PauliString(n, 0, 1 << q)] = 1.0
            terms[PauliString(n, 1 << q, 0)] = 0.3
        h = QubitHamiltonian(n, terms)
        ground = exact_ground(h)
        assert ground.energy == pytest.approx(-n * math.sqrt(1.09), abs=1e-8)
        assert not ground.degenerate
        state = Statevector(n, ground.vector)
        acc = np.zeros_like(ground.vector)
        for p, c in h.items():
            acc = acc + c * apply_pauli(state, p).amplitudes
        assert np.linalg.norm(acc - ground.energy * ground.vector) < 1e-7

    def test_refuses_oversized_input(self):
        h = QubitHamiltonian(15, {PauliString.identity(15): 1.0})
        with pytest.raises(ValueError):
            exact_ground(h)


class TestSectorBasis:
    """The matrix built on the sector basis is the sector block of the full one."""

    @pytest.mark.parametrize("dense_max", [oracle.DENSE_MAX_STATES, 0])
    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_matches_sliced_reference(self, mapping, dense_max, monkeypatch):
        monkeypatch.setattr(oracle, "DENSE_MAX_STATES", dense_max)
        self.check_random_sums(mapping, even_y=False)

    @pytest.mark.parametrize("dense_max", [oracle.DENSE_MAX_STATES, 0])
    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_real_sums_match_sliced_reference(self, mapping, dense_max, monkeypatch):
        monkeypatch.setattr(oracle, "DENSE_MAX_STATES", dense_max)
        self.check_random_sums(mapping, even_y=True)

    @staticmethod
    def check_random_sums(mapping, even_y):
        """Random sums on 2-6 qubits against slices of the Kronecker matrix.

        Sums with an even Y count in every string take the real-matrix
        route; unrestricted random sums take the complex one.
        """
        rng = np.random.default_rng(RNG_SEED + 2)
        for n in range(2, 7):
            h = reference.random_hamiltonian(rng, n, 3 * n, even_y=even_y)
            odd_y = any(p.to_label().count("Y") % 2 for p, _ in h.items())
            _, _, vals = oracle._entries(h, np.arange(1 << n))
            assert vals.dtype == (np.complex128 if odd_y else np.float64)
            full = reference.ham_matrix(h)
            decoder = occupation_decoder(mapping, n)
            counts = np.bitwise_count(decoder(np.arange(1 << n, dtype=np.uint64)))
            # None is the full space, where the block is the whole matrix.
            for n_electrons in [None, *range(n + 1)]:
                if n_electrons is None:
                    keep = np.arange(1 << n)
                else:
                    keep = np.flatnonzero(counts == n_electrons)
                block = full[np.ix_(keep, keep)]
                ground = exact_ground(h, n_electrons=n_electrons, occupation_of=decoder)
                expected = float(np.linalg.eigvalsh(block)[0])
                assert ground.energy == pytest.approx(expected, abs=1e-10)
                assert np.all(np.delete(ground.vector, keep) == 0)
                inside = ground.vector[keep]
                residual = block @ inside - ground.energy * inside
                assert np.linalg.norm(residual) < 1e-8

    def test_degenerate_sector_ground(self):
        # Two electrons on four orbitals with occupation energies -1, -0.5,
        # -0.5, +1: filling orbital 0 and either orbital 1 or 2 ties at -2,
        # while the unrestricted ground (orbitals 0-2 filled) is unique.
        h = QubitHamiltonian.from_labels(
            {"ZIII": 1.0, "IZII": 0.5, "IIZI": 0.5, "IIIZ": -1.0}
        )
        decoder = occupation_decoder("jordan_wigner", 4)
        sector = exact_ground(h, n_electrons=2, occupation_of=decoder)
        assert sector.energy == pytest.approx(-2.0, abs=1e-12)
        assert sector.degenerate
        full = exact_ground(h)
        assert full.energy == pytest.approx(-3.0, abs=1e-12)
        assert not full.degenerate
