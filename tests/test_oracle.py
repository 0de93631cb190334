"""Exact diagonalization oracle against independent dense references."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qccvqe import (
    ORACLE_MAX_QUBITS,
    PauliString,
    QubitHamiltonian,
    exact_ground,
    occupation_decoder,
    oracle,
    sector_basis,
    simulator,
    to_dense,
)

import reference
from conftest import FIXTURES, build_problem

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
        assert exact_ground(h).energy == pytest.approx(-3.0, abs=1e-12)
        sector = exact_ground(h, sector_basis("jordan_wigner", 3, 1))
        assert sector.energy == pytest.approx(1.0, abs=1e-12)
        occupations = np.flatnonzero(np.abs(sector.vector) > 1e-12)
        assert all(int(i).bit_count() == 1 for i in occupations)

    def test_single_state_sector(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0, "XX": 0.5})
        ground = exact_ground(h, sector_basis("jordan_wigner", 2, 2))
        # only |11> has two electrons; its energy is the diagonal entry
        assert ground.energy == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(np.abs(ground.vector)) == 3

    def test_refuses_empty_sector_and_malformed_basis(self):
        h = QubitHamiltonian.from_labels({"ZZ": 1.0})
        empty_sector = sector_basis("jw", 2, 5)
        assert empty_sector.size == 0
        # a decreasing uint64 pair, whose difference wraps to a positive one
        wrapping = np.array([2, 1], dtype=np.uint64)
        for basis in [empty_sector, [], [2, 1], [1, 1], [-1, 0], [3, 4], [[0, 1]], [0.0, 1.0], wrapping]:
            with pytest.raises(ValueError, match="basis must be"):
                exact_ground(h, basis)

    @staticmethod
    def product_hamiltonian(n):
        """Sum of (Z + 0.3 X) on every qubit: exact ground -n sqrt(1.09), and
        one block spanning all 2^n states."""
        terms = {}
        for q in range(n):
            terms[PauliString(n, 0, 1 << q)] = 1.0
            terms[PauliString(n, 1 << q, 0)] = 0.3
        return QubitHamiltonian(n, terms)

    def test_product_hamiltonian_in_one_block(self):
        n = 10
        h = self.product_hamiltonian(n)
        ground = exact_ground(h)
        assert ground.energy == pytest.approx(-n * math.sqrt(1.09), abs=1e-10)
        assert not ground.degenerate
        acc = reference.ham_matrix(h) @ ground.vector
        assert np.linalg.norm(acc - ground.energy * ground.vector) < 1e-8

    def test_solves_13_qubit_product_in_one_run(self):
        # all 8192 states of 13 qubits form one connected block, whose dense
        # complex matrix would take 1 GiB; the solve never forms it
        n = 13
        ground = exact_ground(self.product_hamiltonian(n))
        assert ground.energy == pytest.approx(-n * math.sqrt(1.09), abs=1e-10)
        assert not ground.degenerate
        assert ground.residual < 1e-8

    def test_refuses_oversized_input(self):
        h = QubitHamiltonian(15, {PauliString.identity(15): 1.0})
        with pytest.raises(ValueError):
            exact_ground(h)
        # a sector past the ceiling is refused before any of its states is listed
        simulator._indices.cache_clear()
        with pytest.raises(ValueError, match="oracle ceiling is 14 qubits, got 15"):
            sector_basis("jw", 15, 2)
        assert simulator._indices.cache_info().currsize == 0


class TestLanczos:
    def test_power_of_two_scale_moves_no_bit(self):
        # the solve runs on coefficients scaled by a power of two, so a sum
        # 2**1000 times larger, whose squares float64 cannot hold, scales exactly
        _, h, _ = build_problem("chain4_d1.00.fcidump", 4, 4, "parity")
        big = QubitHamiltonian(h.n_qubits, [(p, math.ldexp(c, 1000)) for p, c in h.items()])
        basis = sector_basis("parity", h.n_qubits, 4)
        small, large = (exact_ground(x, basis) for x in (h, big))
        assert math.isfinite(large.energy)
        assert large.energy == math.ldexp(small.energy, 1000)
        assert large.residual == math.ldexp(small.residual, 1000)
        assert large.degenerate == small.degenerate
        assert np.array_equal(large.vector, small.vector)

    def test_source_calls_no_blas_lapack_or_random(self):
        # every reduction in every module is a numpy ufunc, so no thread count
        # moves a bit; the simulator's one use of `random` is the shot pass's
        # generator
        def mentions(root):
            return [n for n in ast.walk(root) if "random" in (getattr(n, "attr", 0), getattr(n, "id", 0))]

        modules = sorted(Path(simulator.__file__).parent.glob("*.py"))
        assert {path.name for path in modules} >= {"oracle.py", "simulator.py", "chem.py", "cli.py"}
        for module in modules:
            randoms = ["sample_energy"] if module.name == "simulator.py" else []
            tree = ast.parse(module.read_text())
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not names & {"linalg", "dot", "vdot", "matmul", "einsum"}, module
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), module
            assert len(mentions(tree)) == len(randoms), module
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            assert [f.name for f in functions if mentions(f)] == randoms, module
            imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not any("random" in ast.dump(node) for node in imports), module


class TestSectorBasis:
    """The solve on a basis, a sector or any other, is that of the full
    matrix's block on it."""

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_matches_sliced_reference(self, mapping):
        self.check_random_sums(mapping, even_y=False)

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_real_sums_match_sliced_reference(self, mapping):
        self.check_random_sums(mapping, even_y=True)

    @staticmethod
    def check_random_sums(mapping, even_y):
        """Random sums on 2-6 qubits against slices of the Kronecker matrix, on
        the full space, every sector and random subsets of basis states.

        Sums with an even Y count in every string take the real-matrix
        route; unrestricted random sums take the complex one.
        """
        rng = np.random.default_rng(RNG_SEED + 2)
        subsets = np.random.default_rng(RNG_SEED + 4)
        for n in range(2, 7):
            h = reference.random_hamiltonian(rng, n, 3 * n, even_y=even_y)
            odd_y = any(p.to_label().count("Y") % 2 for p, _ in h.items())
            _, _, vals = simulator._entries(h, np.arange(1 << n))
            assert vals.dtype == (np.complex128 if odd_y else np.float64)
            full = reference.ham_matrix(h)
            decoder = occupation_decoder(mapping, n)
            counts = np.bitwise_count(decoder(np.arange(1 << n, dtype=np.uint64)))
            # None is the full space, where the block is the whole matrix.
            bases = [(None, np.arange(1 << n))]
            bases += [
                (sector_basis(mapping, n, n_e), np.flatnonzero(counts == n_e))
                for n_e in range(n + 1)
            ]
            # increasing subsets that are no sector, as uint64 indices
            for size in subsets.integers(1, 1 << n, size=3):
                keep = np.sort(subsets.choice(1 << n, size, replace=False))
                bases.append((keep.astype(np.uint64), keep))
            for basis, keep in bases:
                block = full[np.ix_(keep, keep)]
                ground = exact_ground(h, basis)
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
        sector = exact_ground(h, sector_basis("jordan_wigner", 4, 2))
        assert sector.energy == pytest.approx(-2.0, abs=1e-12)
        assert sector.degenerate
        full = exact_ground(h)
        assert full.energy == pytest.approx(-3.0, abs=1e-12)
        assert not full.degenerate


# electrons (= spatial orbitals) of each shipped fixture family, at half filling
HALF_FILLING = {"dimer": 2, "chain4": 4, "chain6": 6}


def sector_entries(name, mapping):
    """FCIDUMP fixture -> (Hamiltonian, electrons, sector basis, entries)."""
    n = HALF_FILLING[name.split("_")[0]]
    _, h, _ = build_problem(name, n, n, mapping)
    basis = sector_basis(mapping, h.n_qubits, n)
    return h, n, basis, simulator._entries(h, basis)


class TestBlocks:
    """Sectors whose matrix splits into unconnected blocks, solved in one run,
    against one eigh of the whole basis."""

    def test_degeneracy_inside_and_across_blocks(self):
        # XX + YY hops an excitation between two qubits; on all three pairs
        # the one-excitation states form one block with spectrum -1, -1, 2.
        hops = {}
        for pair in ("XXI", "IXX", "XIX"):
            hops[pair] = 0.5
            hops[pair.replace("X", "Y")] = 0.5
        h = QubitHamiltonian.from_labels(hops)
        inside = exact_ground(h, sector_basis("jordan_wigner", 3, 1))
        assert inside.energy == pytest.approx(-1.0, abs=1e-12)
        assert inside.degenerate
        # XX pairs |00> with |11> and |01> with |10>: two blocks, each -1 and +1
        h = QubitHamiltonian.from_labels({"XX": 1.0})
        across = exact_ground(h)
        assert across.energy == pytest.approx(-1.0, abs=1e-12)
        assert across.degenerate
        # a unit vector of the -1 level, which may mix the two blocks
        assert np.linalg.norm(to_dense(h) @ across.vector + across.vector) < 1e-8
        assert across.residual < 1e-8

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_chain6_sector_splits(self, mapping):
        h, n, basis, (rows, cols, vals) = sector_entries("chain6_d1.00.fcidump", mapping)
        assert basis.size == 924
        mat = np.zeros((basis.size,) * 2)
        mat[rows, cols] = vals
        whole = np.linalg.eigvalsh(mat)
        ground = exact_ground(h, basis)
        assert ground.energy == pytest.approx(whole[0], abs=1e-12)
        assert ground.degenerate == bool(whole[1] - whole[0] < 1e-9)
        inside = ground.vector[basis]
        assert np.all(np.delete(ground.vector, basis) == 0)
        assert np.linalg.norm(mat @ inside - ground.energy * inside) < 1e-8
        assert ground.residual < 1e-8

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    def test_chain6_full_space_is_lowest_sector(self, mapping):
        # The number-conserving sum never links sectors, so the 4096-state
        # ground is the lowest of the 13 sector grounds.
        h, _, _, _ = sector_entries("chain6_d1.00.fcidump", mapping)
        full = exact_ground(h)
        sectors = [
            exact_ground(h, sector_basis(mapping, h.n_qubits, n_e)).energy
            for n_e in range(h.n_qubits + 1)
        ]
        assert abs(full.energy - min(sectors)) < 1e-10

    @pytest.mark.parametrize("mapping", ["jordan_wigner", "parity"])
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.fcidump")))
    def test_shipped_fixtures_match_single_block(self, name, mapping):
        h, n, basis, (rows, cols, vals) = sector_entries(name, mapping)
        mat = np.zeros((basis.size,) * 2)
        mat[rows, cols] = vals
        expected = np.linalg.eigvalsh(mat)[0]
        ground = exact_ground(h, basis)
        assert abs(ground.energy - expected) < 1e-12
