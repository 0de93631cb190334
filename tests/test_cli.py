"""End-to-end command-line checks through click's test runner."""

import ast
import copy
import csv
import functools
import importlib.util
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qccvqe
from qccvqe import chem, cli, oracle, simulator, solver
from qccvqe.cli import main

from conftest import FIXTURES
from test_pauli import PROPERTY


def fmt(value: float) -> str:
    return f"{round(value, 10) + 0.0:.10f}"


def dimer_total_energy(distance: float) -> float:
    """Closed-form two-site ground energy: hopping exp(-(d-1)), on-site 2.0,
    charge repulsion 1/d."""
    t = math.exp(-(distance - 1.0))
    u_half = 1.0
    return u_half - math.sqrt(u_half**2 + 4.0 * t * t) + 1.0 / distance


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def lanczos_fails(monkeypatch):
    """Cap every Lanczos solve of the oracle at one step, short of its residual."""
    monkeypatch.setattr(oracle, "_MAX_STEPS", 1)


def run_checked(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


def tree(root: Path) -> dict:
    """Every path under `root`, mapped to its bytes if it is a file."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}


def refuse_to_build(*args):
    raise AssertionError("a geometry was built")


def run_child(args, cwd):
    """qccvqe in a child process, where a RuntimeWarning stays a warning."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "qccvqe.cli", *map(str, args)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def overflowing_fcidump(fixtures_dir, tmp_path, values):
    """The dimer FCIDUMP with the integrals at the given index columns replaced."""
    lines = (fixtures_dir / "dimer_d1.00.fcidump").read_text().splitlines()
    for i, line in enumerate(lines):
        value, *indices = line.split() or [""]
        if " ".join(indices) in values:
            lines[i] = f" {values[' '.join(indices)]}   {'   '.join(indices)}"
    path = tmp_path / "big.fcidump"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHam:
    def test_stdout_payload(self, runner, fixtures_dir, dimer_problem):
        prob, h, ref = dimer_problem
        result = run_checked(
            runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump")]
        )
        payload = json.loads(result.output)
        assert payload["schema"] == "qubit-hamiltonian/1"
        assert payload["n_qubits"] == 4
        assert len(payload["terms"]) == len(h)
        coeffs = {t["pauli"]: t["coeff"] for t in payload["terms"]}
        for p, c in h.items():
            assert coeffs[p.to_label()] == pytest.approx(c, abs=1e-12)
        assert payload["metadata"]["reference"] == ref
        assert payload["metadata"]["mapping"] == "jordan_wigner"
        assert payload["metadata"]["e_nuclear"] == pytest.approx(1.0)

    def test_output_file_and_mapping_alias(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "h.json"
        result = run_checked(
            runner,
            [
                "ham",
                str(fixtures_dir / "dimer_d1.00.fcidump"),
                "--mapping",
                "parity",
                "--output",
                str(out),
            ],
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"]["mapping"] == "parity"
        assert "4 qubits" in result.output

    @pytest.mark.parametrize(
        "command, target",
        [
            pytest.param(command, target, id=f"{command[0]}-{target}".removeprefix("ham-"))
            for command in (["ham"], ["fci"], ["uccsd", "--optimize"])
            for target in ("afile/h.json", ".")
        ],
    )
    def test_unwritable_output_exits_config(
        self, runner, fixtures_dir, tmp_path, monkeypatch, command, target
    ):
        # ham, fci and uccsd check --output before building the problem
        monkeypatch.setattr(cli, "_build_problem", refuse_to_build)
        (tmp_path / "afile").write_text("kept\n")
        before = tree(tmp_path)
        result = runner.invoke(
            main,
            [*command, str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(tmp_path / target)],
        )
        assert result.exit_code == 4, result.output
        assert "cannot write" in result.output
        assert tree(tmp_path) == before

    def test_bad_window_exits_config(self, runner, fixtures_dir, tmp_path):
        before = tree(tmp_path)
        for fixture, flags in [
            ("dimer_d1.00", ["--window", "0;1"]),
            # a window of another length than -o asks for
            ("dimer_d1.00", ["-o", "1", "--window", "0,1"]),
            ("chain4_d1.00", ["-o", "2", "--window", "0,1,2"]),
        ]:
            result = runner.invoke(
                main,
                ["ham", str(fixtures_dir / f"{fixture}.fcidump"), *flags,
                 "--output", str(tmp_path / "h.json")],
            )
            assert result.exit_code == 4, (flags, result.output)
            assert tree(tmp_path) == before

    def test_negative_window_gets_one_message_from_flag_and_manifest(
        self, runner, fixtures_dir, tmp_path
    ):
        fcidump = fixtures_dir / "dimer_d1.00.fcidump"
        manifest = tmp_path / "m.manifest.json"
        manifest.write_text(json.dumps({
            "schema": "qcc-manifest/1",
            "geometries": [{"label": "a", "fcidump": str(fcidump)}],
            "orbital_window": [-1, 0],
        }))
        flag = runner.invoke(main, ["ham", str(fcidump), "--window", "-1,0"])
        listed = runner.invoke(main, ["pes", str(manifest)])
        message = "active window [-1, 0] is empty, repeats an orbital or holds a negative one"
        assert flag.exit_code == listed.exit_code == 4, (flag.output, listed.output)
        assert flag.stderr == f"error: {fcidump}: {message}\n"
        assert listed.stderr == f"error: {manifest}: {message}\n"
        assert not (tmp_path / "qcc-out").exists()

    @pytest.mark.parametrize(
        "command", [["ham"], ["fci"], ["uccsd", "--optimize"]], ids=lambda c: c[0]
    )
    def test_refused_run_leaves_no_directory(self, runner, fixtures_dir, tmp_path, command):
        bad = tmp_path / "bad.fcidump"
        bad.write_text((fixtures_dir / "dimer_d1.00.fcidump").read_text() + "abc 1 1 1 1\n")
        before = tree(tmp_path)
        result = runner.invoke(
            main, [*command, str(bad), "--output", str(tmp_path / "nd" / "sub" / "f.json")]
        )
        assert result.exit_code == 2, result.output
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "flags, message",
        [(["-e", "-2"], "active_electrons must be >= 0, got -2"),
         (["-o", "0"], "active_orbitals must be >= 1, got 0")],
    )
    def test_bad_cas_counts_name_themselves(self, runner, fixtures_dir, flags, message):
        # in the words a manifest gets for the same counts
        result = runner.invoke(main, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), *flags])
        assert result.exit_code == 4, result.output
        assert message in result.stderr

    def test_electrons_alone_take_every_orbital_above_the_frozen_pairs(
        self, runner, fixtures_dir
    ):
        path = str(fixtures_dir / "chain6_d1.00.fcidump")
        alone = run_checked(runner, ["ham", path, "-e", "4"])
        window = run_checked(runner, ["ham", path, "-e", "4", "--window", "1,2,3,4,5"])
        assert alone.output == window.output

    def test_corrupt_fcidump_exits_parse(self, runner, tmp_path):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("this is not a namelist\n")
        result = runner.invoke(main, ["ham", str(bad)])
        assert result.exit_code == 2

    def test_undecodable_fcidump_exits_parse(self, runner, tmp_path):
        bad = tmp_path / "latin1.fcidump"
        bad.write_bytes(b"&FCI NORB=2, NELEC=2, \xe9\n&END\n")
        result = runner.invoke(main, ["ham", str(bad)])
        assert result.exit_code == 2, result.output

    def test_undecodable_json_inputs_exit_parse(self, runner, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"schema": "\xe9"}')
        assert runner.invoke(main, ["extrapolate", str(bad)]).exit_code == 2
        assert runner.invoke(main, ["measure", str(bad)]).exit_code == 2

    @pytest.mark.parametrize("command", ["qcc", "pes", "extrapolate", "measure"])
    def test_non_object_json_exits_parse(self, runner, tmp_path, command):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 2, result.output
        assert "must be a JSON object" in result.output

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["ham", str(tmp_path / "absent.fcidump")])
        assert result.exit_code == 2

    def test_infeasible_cas_exits_config(self, runner, fixtures_dir):
        # the message names the requested count, not the count left to freeze
        for flags in (["-e", "1", "-o", "2"], ["-e", "-1"]):
            result = runner.invoke(
                main, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), *flags]
            )
            assert result.exit_code == 4
            assert f"{flags[1]} active electrons of 2" in result.output


# One appended data line per kind; each is line 12 of the dimer FCIDUMP.
NON_FINITE_LINES = {
    "core": "{} 0 0 0 0",
    "h1": "{} 1 1 0 0",
    "g2": "{} 1 1 1 1",
    "orbital_energy": "{} 1 0 0 0",
}


@pytest.fixture(
    params=[(kind, value) for kind in NON_FINITE_LINES for value in ("nan", "inf")],
    ids=lambda param: "-".join(param),
)
def non_finite_fcidump(request, fixtures_dir, tmp_path):
    kind, value = request.param
    text = (fixtures_dir / "dimer_d1.00.fcidump").read_text()
    path = tmp_path / f"{kind}_{value}.fcidump"
    path.write_text(text + f" {NON_FINITE_LINES[kind].format(value)}\n")
    return path


class TestNonFiniteFcidump:
    @pytest.mark.parametrize("command", ["ham", "fci"])
    def test_single_geometry_commands_exit_parse(
        self, runner, non_finite_fcidump, command
    ):
        result = runner.invoke(main, [command, str(non_finite_fcidump)])
        assert result.exit_code == 2, result.output
        assert "line 12: non-finite value" in result.stderr

    @pytest.mark.parametrize("command", ["qcc", "pes"])
    def test_sweeps_record_an_error_row(
        self, runner, non_finite_fcidump, tmp_path, command
    ):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [{"label": "bad", "fcidump": str(non_finite_fcidump)}],
                }
            )
        )
        out_dir = tmp_path / "out"
        args = [command, str(manifest), "--output-dir", str(out_dir)]
        result = runner.invoke(main, args + (["--shots", "64"] if command == "pes" else []))
        assert result.exit_code == 3, result.output
        summary = "pes.csv" if command == "pes" else "summary.csv"
        (row,) = csv.DictReader((out_dir / summary).open())
        assert row["status"].startswith("error: line 12: non-finite value")
        assert sorted(p.name for p in out_dir.iterdir()) == [summary]


class TestWidthLimit:
    """Active spaces above 16 orbitals (32 qubits) are refused as config errors."""

    @pytest.fixture()
    def wide_fcidump(self, tmp_path):
        path = tmp_path / "wide.fcidump"
        lines = ["&FCI NORB=17,NELEC=2,MS2=0,", "&END"]
        lines += [f" {-1.0 + 0.01 * i:.6f} {i} {i} 0 0" for i in range(1, 18)]
        lines += [" 0.5 1 1 1 1", " 0.25 0 0 0 0"]
        path.write_text("\n".join(lines) + "\n")
        return path

    def write_manifest(self, tmp_path, fcidump, **fields):
        path = tmp_path / "wide.manifest.json"
        geometries = [{"label": "wide", "fcidump": str(fcidump)}]
        payload = {"schema": "qcc-manifest/1", "geometries": geometries, **fields}
        path.write_text(json.dumps(payload))
        return str(path)

    def test_single_geometry_commands_exit_config(self, runner, wide_fcidump):
        for command in ("ham", "fci"):
            result = runner.invoke(main, [command, str(wide_fcidump)])
            assert result.exit_code == 4, result.output
            assert "17 active orbitals exceed the limit of 16" in result.output
        # 16 of the 17 orbitals fit
        result = runner.invoke(main, ["ham", str(wide_fcidump), "-o", "16"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n_qubits"] == 32

    def test_sweeps_refuse_a_wide_manifest(self, runner, wide_fcidump, tmp_path):
        manifest = self.write_manifest(tmp_path, wide_fcidump, active_orbitals=17)
        out_dir = str(tmp_path / "out")
        for command in ("qcc", "pes"):
            result = runner.invoke(main, [command, manifest, "--output-dir", out_dir])
            assert result.exit_code == 4, result.output
            assert "17 active orbitals" in result.output
        assert not (tmp_path / "out").exists()

    def test_sweeps_record_a_wide_geometry(self, runner, wide_fcidump, tmp_path):
        # the width comes from the FCIDUMP, so only that geometry fails
        manifest = self.write_manifest(tmp_path, wide_fcidump)
        out_dir = tmp_path / "out"
        for command, summary in (("qcc", "summary.csv"), ("pes", "pes.csv")):
            result = runner.invoke(main, [command, manifest, "--output-dir", str(out_dir)])
            assert result.exit_code == 3, result.output
            (row,) = csv.DictReader((out_dir / summary).open())
            assert row["status"].startswith("error: 17 active orbitals exceed")

    def test_sweep_skips_the_solve_past_the_oracle(
        self, runner, tmp_path, monkeypatch
    ):
        # 16 qubits fit the Hamiltonian but not the oracle, which is asked first
        fcidump = tmp_path / "norb8.fcidump"
        lines = ["&FCI NORB=8,NELEC=2,MS2=0,", "&END"]
        lines += [f" {-1.0 + 0.01 * i:.6f} {i} {i} 0 0" for i in range(1, 9)]
        fcidump.write_text("\n".join(lines) + "\n")
        calls = []
        qcc_run = solver.qcc_run

        def counting(*args, **kwargs):
            calls.append(args)
            return qcc_run(*args, **kwargs)

        monkeypatch.setattr(solver, "qcc_run", counting)
        manifest = self.write_manifest(tmp_path, fcidump)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["qcc", manifest, "--output-dir", str(out_dir)])
        assert result.exit_code == 3, result.output
        (row,) = csv.DictReader((out_dir / "summary.csv").open())
        assert row["status"] == (
            f"error: oracle ceiling is {oracle.ORACLE_MAX_QUBITS} qubits, got 16"
        )
        assert calls == []


class TestHugeNorb:
    """A NORB above the parser's ceiling is refused before any integral array exists."""

    @pytest.fixture(params=[chem._MAX_NORB + 1, 1000000])
    def huge_fcidump(self, request, tmp_path):
        path = tmp_path / "huge.fcidump"
        path.write_text(f"&FCI NORB={request.param}, NELEC=2,\n&END\n")
        return path

    def test_ham_exits_parse(self, runner, huge_fcidump):
        result = runner.invoke(main, ["ham", str(huge_fcidump)])
        assert result.exit_code == 2, result.output
        assert f"NORB must be in 1..{chem._MAX_NORB}" in result.output

    def test_sweep_records_an_error_row(self, runner, fixtures_dir, huge_fcidump, tmp_path):
        # the huge geometry sorts after the good one, whose trace is written first
        manifest = tmp_path / "huge.manifest.json"
        geometries = [
            {"label": "1.00", "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump")},
            {"label": "huge", "fcidump": str(huge_fcidump)},
        ]
        manifest.write_text(json.dumps({"schema": "qcc-manifest/1", "geometries": geometries}))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["qcc", str(manifest), "--output-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        rows = {r["geometry"]: r for r in csv.DictReader((out_dir / "summary.csv").open())}
        assert rows["1.00"]["status"] == "ok"
        assert rows["huge"]["status"].startswith("error: NORB must be in")


class TestFci:
    def test_dimer_energy_matches_closed_form(self, runner, fixtures_dir):
        result = run_checked(
            runner, ["fci", str(fixtures_dir / "dimer_d1.00.fcidump")]
        )
        payload = json.loads(result.output)
        assert payload["schema"] == "fci-result/1"
        assert payload["sector_restricted"] is True
        assert payload["e_total"] == pytest.approx(dimer_total_energy(1.0), abs=1e-9)
        assert payload["e_total"] == pytest.approx(2.0 - math.sqrt(5.0), abs=1e-9)

    def test_full_spectrum_can_only_go_lower(self, runner, fixtures_dir):
        restricted = json.loads(
            run_checked(
                runner, ["fci", str(fixtures_dir / "dimer_d1.00.fcidump")]
            ).output
        )
        full = json.loads(
            run_checked(
                runner,
                ["fci", str(fixtures_dir / "dimer_d1.00.fcidump"), "--full-spectrum"],
            ).output
        )
        assert full["sector_restricted"] is False
        assert full["e_active"] <= restricted["e_active"] + 1e-12

    @pytest.mark.parametrize(
        "line", ["1.5 1 1 1 1", "1.5 1 2 1 2", "1.5 1 1 0 0", "1.5 0 0 0 0"]
    )
    def test_conflicting_duplicate_exits_parse(self, runner, fixtures_dir, tmp_path, line):
        # the appended line gives an integral of the file a second value
        path = tmp_path / "repeat.fcidump"
        path.write_text((fixtures_dir / "dimer_d1.00.fcidump").read_text() + f" {line}\n")
        result = runner.invoke(main, ["fci", str(path)])
        assert result.exit_code == 2, result.output
        assert "line 12: value 1.5" in result.output

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # the thread count is read when numpy loads, so each count gets a child
        # process, in its own directory, that runs fci on every shipped FCIDUMP,
        # sector and full space, uccsd --optimize on all but chain6 (seconds a
        # run), pes with shots on the chain4 manifest and extrapolate, whose
        # fit is a LAPACK least-squares solve, with a curve on each pes trace
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from qccvqe.cli import main\n"
            "for path in sys.argv[2:]:\n"
            "    for mapping in ('jordan_wigner', 'parity'):\n"
            "        for flags in ([], ['--full-spectrum']):\n"
            "            main(['fci', path, '--mapping', mapping, *flags], standalone_mode=False)\n"
            "        if 'chain6' not in path:\n"
            "            output = f'{Path(path).stem}.{mapping}.json'\n"
            "            args = ['uccsd', path, '--mapping', mapping, '--optimize', '--output', output]\n"
            "            main(args, standalone_mode=False)\n"
            "main(['pes', sys.argv[1], '--shots', '4000', '--output-dir', 'pes'], standalone_mode=False)\n"
            "for trace in sorted(Path('pes').glob('*.trace.json')):\n"
            "    curve = trace.name.replace('.trace.json', '.curve.csv')\n"
            "    args = ['extrapolate', str(trace), '--discard', '0', '--window', '3', '--curve', curve]\n"
            "    main(args, standalone_mode=False)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        paths = sorted(str(p) for p in FIXTURES.glob("*.fcidump"))
        manifest = str(FIXTURES / "chain4.manifest.json")
        outputs, written = [], []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src)}
            env |= dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
            cwd = tmp_path / threads
            cwd.mkdir()
            child = subprocess.run(
                [sys.executable, "-c", script, manifest, *paths], cwd=cwd, env=env, capture_output=True
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
            written.append(tree(cwd))
        assert outputs[0].count(b'"schema": "fci-result/1"') == 4 * len(paths)
        assert outputs[0].count(b'"schema": "extrapolation/1"') == 3
        # uccsd files, pes/ and its 7 files, a curve per trace
        assert len(written[0]) == 2 * (len(paths) - 1) + 1 + 7 + 3
        assert outputs[0] == outputs[1]
        assert written[0] == written[1]

    def test_eigensolver_failure_exits_numeric(
        self, runner, fixtures_dir, lanczos_fails
    ):
        result = runner.invoke(main, ["fci", str(fixtures_dir / "dimer_d1.00.fcidump")])
        assert result.exit_code == 3, result.output
        assert "Lanczos did not reach a residual of 1e-10 within 1 steps" in result.stderr


class TestUccsd:
    def test_report_counts(self, runner, fixtures_dir):
        result = run_checked(
            runner, ["uccsd", str(fixtures_dir / "chain6_d1.00.fcidump")]
        )
        payload = json.loads(result.output)
        assert payload["schema"] == "uccsd-report/1"
        assert payload["singles"] == 18
        assert payload["doubles"] == 99
        assert payload["parameter_count"] == 117
        assert "optimized" not in payload

    def test_ceiling_flags_are_gone(self, runner, fixtures_dir):
        # every parameter count is optimized on the reached determinants
        for flags in (["--force"], ["--param-ceiling", "30"]):
            result = runner.invoke(
                main,
                ["uccsd", str(fixtures_dir / "dimer_d1.00.fcidump"), "--optimize", *flags],
            )
            assert result.exit_code == 2, (flags, result.output)

    def test_seed_flag_is_gone(self, runner, fixtures_dir):
        # the exact sweeps start from zero and draw nothing at random
        result = runner.invoke(
            main, ["uccsd", str(fixtures_dir / "dimer_d1.00.fcidump"), "--seed", "3"]
        )
        assert result.exit_code == 2, result.output

    def test_optimize_dimer_reaches_closed_form(self, runner, fixtures_dir):
        result = run_checked(
            runner,
            ["uccsd", str(fixtures_dir / "dimer_d1.00.fcidump"), "--optimize"],
        )
        payload = json.loads(result.output)
        assert payload["parameter_count"] == 3
        assert payload["optimized"]["e_total"] == pytest.approx(
            dimer_total_energy(1.0), abs=1e-6
        )
        assert len(payload["optimized"]["amplitudes"]) == 3

    @pytest.mark.parametrize("electrons", ["0", "2"])
    def test_optimize_without_excitations_keeps_reference(
        self, runner, fixtures_dir, electrons
    ):
        # one active orbital, empty or full: no excitation, and the reference
        # determinant is the sector ground state
        args = [str(fixtures_dir / "dimer_d1.00.fcidump"), "-e", electrons, "-o", "1"]
        payload = json.loads(run_checked(runner, ["uccsd", *args, "--optimize"]).output)
        fci = json.loads(run_checked(runner, ["fci", *args]).output)
        assert payload["parameter_count"] == 0
        assert payload["optimized"]["amplitudes"] == []
        assert payload["optimized"]["e_active"] == fci["e_active"]


class TestQcc:
    def test_manifest_run_summary(self, runner, fixtures_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_checked(
            runner,
            ["qcc", str(fixtures_dir / "dimer.manifest.json"), "--output-dir", str(out_dir)],
        )
        rows = list(csv.DictReader((out_dir / "summary.csv").open()))
        assert [r["geometry"] for r in rows] == ["0.80", "1.00", "1.20"]
        for row in rows:
            d = float(row["geometry"])
            expected = fmt(dimer_total_energy(d))
            assert row["E_qcc_total"] == expected
            assert row["E_fci_total"] == expected
            assert row["delta"] == "0.0000000000"
            assert row["iterations"] == "1"
            assert row["parameters_used"] == "1"
            assert row["status"] == "ok"
            trace = json.loads((out_dir / f"{row['geometry']}.trace.json").read_text())
            assert trace["schema"] == "qcc-trace/1"
            assert trace["converged"] is True
            assert trace["label"] == row["geometry"]

    def test_reruns_are_byte_identical(self, runner, fixtures_dir, tmp_path):
        out_dir = tmp_path / "out"
        args = [
            "qcc",
            str(fixtures_dir / "dimer.manifest.json"),
            "--output-dir",
            str(out_dir),
        ]
        run_checked(runner, args)
        first = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()
        }
        run_checked(runner, args)
        second = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()
        }
        assert first == second

    def test_summary_merge_keeps_other_geometries(
        self, runner, fixtures_dir, tmp_path
    ):
        out_dir = tmp_path / "out"
        run_checked(
            runner,
            ["qcc", str(fixtures_dir / "dimer.manifest.json"), "--output-dir", str(out_dir)],
        )
        partial = {
            "schema": "qcc-manifest/1",
            "geometries": [
                {
                    "label": "1.00",
                    "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
                }
            ],
            "active_electrons": 2,
            "active_orbitals": 2,
        }
        manifest = tmp_path / "partial.manifest.json"
        manifest.write_text(json.dumps(partial))
        run_checked(runner, ["qcc", str(manifest), "--output-dir", str(out_dir)])
        rows = list(csv.DictReader((out_dir / "summary.csv").open()))
        assert [r["geometry"] for r in rows] == ["0.80", "1.00", "1.20"]

    @pytest.mark.parametrize(
        "defect, code",
        [("no geometry column", 2), ("not UTF-8", 2), ("a directory", 4)],
    )
    def test_unusable_summary_exits_before_any_solve(
        self, runner, fixtures_dir, tmp_path, defect, code
    ):
        out_dir = tmp_path / "out"
        summary = out_dir / "summary.csv"
        out_dir.mkdir()
        if defect == "no geometry column":
            summary.write_text("label,E_qcc_total\n1.00,-0.2360679775\n")
        elif defect == "not UTF-8":
            summary.write_bytes(b"geometry,status\n\xe9,ok\n")
        else:
            summary.mkdir()
        before = summary.is_file() and summary.read_bytes()
        result = runner.invoke(
            main,
            ["qcc", str(fixtures_dir / "dimer.manifest.json"), "--output-dir", str(out_dir)],
        )
        assert result.exit_code == code, result.output
        assert "summary.csv" in result.output
        assert (summary.is_file() and summary.read_bytes()) == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["summary.csv"]

    @pytest.mark.parametrize("command", ["qcc", "pes"])
    @pytest.mark.parametrize("target", ["afile", "afile/out"])
    def test_unusable_output_dir_exits_before_any_solve(
        self, runner, fixtures_dir, tmp_path, monkeypatch, command, target
    ):
        monkeypatch.setattr(cli, "_build_problem", refuse_to_build)
        (tmp_path / "afile").write_text("kept\n")
        before = tree(tmp_path)
        result = runner.invoke(
            main,
            [command, str(fixtures_dir / "dimer.manifest.json"),
             "--output-dir", str(tmp_path / target)],
        )
        assert result.exit_code == 4, result.output
        assert "cannot create output directory" in result.output
        assert tree(tmp_path) == before

    def test_active_electrons_alone_take_the_orbitals_above_the_frozen_pairs(
        self, runner, fixtures_dir, tmp_path
    ):
        manifest = tmp_path / "chain6.manifest.json"
        manifest.write_text(json.dumps({
            "schema": "qcc-manifest/1",
            "geometries": [{"label": "1.00", "fcidump": str(fixtures_dir / "chain6_d1.00.fcidump")}],
            "active_electrons": 4,
            "qcc": {"max_iterations": 2},
        }))
        run_checked(runner, ["qcc", str(manifest), "--output-dir", str(tmp_path / "out")])
        trace = json.loads((tmp_path / "out" / "1.00.trace.json").read_text())
        assert trace["n_qubits"] == 10

    def test_failed_geometry_gets_error_row(self, runner, fixtures_dir, tmp_path):
        bad = tmp_path / "broken.fcidump"
        bad.write_text("&FCI NORB=2 &END\n")
        manifest = tmp_path / "mixed.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [
                        {
                            "label": "ok",
                            "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
                        },
                        {"label": "broken", "fcidump": str(bad)},
                    ],
                    "active_electrons": 2,
                    "active_orbitals": 2,
                }
            )
        )
        out_dir = tmp_path / "out"
        result = run_checked(
            runner, ["qcc", str(manifest), "--output-dir", str(out_dir)]
        )
        rows = {r["geometry"]: r for r in csv.DictReader((out_dir / "summary.csv").open())}
        assert rows["ok"]["status"] == "ok"
        assert rows["broken"]["status"].startswith("error:")
        assert rows["broken"]["E_qcc_total"] == "nan"
        assert "broken" in result.stderr

    def test_eigensolver_failure_gets_error_row(
        self, runner, fixtures_dir, tmp_path, lanczos_fails
    ):
        manifest = tmp_path / "one.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [
                        {
                            "label": "1.00",
                            "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
                        }
                    ],
                }
            )
        )
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["qcc", str(manifest), "--output-dir", str(out_dir)])
        assert result.exit_code == 3, result.output
        (row,) = csv.DictReader((out_dir / "summary.csv").open())
        assert row["status"].startswith("error: Lanczos did not reach a residual")

    def test_all_failures_exit_numeric(self, runner, tmp_path):
        bad = tmp_path / "broken.fcidump"
        bad.write_text("&FCI NORB=2 &END\n")
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [{"label": "x", "fcidump": str(bad)}],
                }
            )
        )
        result = runner.invoke(main, ["qcc", str(manifest)])
        assert result.exit_code == 3

    def test_manifest_validation(self, runner, tmp_path, fixtures_dir):
        missing = tmp_path / "m.manifest.json"
        missing.write_text(json.dumps({"schema": "qcc-manifest/1", "geometries": []}))
        assert runner.invoke(main, ["qcc", str(missing)]).exit_code == 4

        dup = tmp_path / "dup.manifest.json"
        entry = {
            "label": "a",
            "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
        }
        dup.write_text(
            json.dumps({"schema": "qcc-manifest/1", "geometries": [entry, entry]})
        )
        assert runner.invoke(main, ["qcc", str(dup)]).exit_code == 4

        unknown_key = tmp_path / "k.manifest.json"
        unknown_key.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [entry],
                    "qcc": {"max_iter": 5},
                }
            )
        )
        assert runner.invoke(main, ["qcc", str(unknown_key)]).exit_code == 4

        bad_json = tmp_path / "broken.manifest.json"
        bad_json.write_text("{")
        assert runner.invoke(main, ["qcc", str(bad_json)]).exit_code == 2

        not_utf8 = tmp_path / "latin1.manifest.json"
        not_utf8.write_bytes(b'{"schema": "qcc-manifest/1", "label": "\xe9"}')
        assert runner.invoke(main, ["qcc", str(not_utf8)]).exit_code == 2

        removed_knob = tmp_path / "knob.manifest.json"
        removed_knob.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [entry],
                    "qcc": {"grid_points": 48},
                }
            )
        )
        assert runner.invoke(main, ["qcc", str(removed_knob)]).exit_code == 4

        # the two path fields are JSON strings like every other string field
        path_fields = [{"geometries": [{**entry, "fcidump": value}]} for value in (5, None, ["a"])]
        path_fields.append({"output_dir": 5})
        mistyped = [
            *path_fields,
            {"shots": "100"},
            {"shots": True},
            {"shots": -5},
            {"shots": 2**63},
            {"seed": "11"},
            {"seed": 1.5},
            {"seed": -1, "shots": 64},
            {"qcc": {"seed": -1}, "shots": 64},
            {"qcc": {"seed": 1.5}},
            {"qcc": {"max_iterations": 2.5}},
            {"qcc": {"generators_per_iteration": 1.5}},
            {"qcc": {"max_iterations": True}},
            {"qcc": {"prune_threshold": "0"}},
            {"qcc": {"prune_threshold": 1e-12}},  # removed; the prune is fixed
            {"active_electrons": "2"},
            {"active_electrons": -1},
            {"active_orbitals": 2.0},
            {"active_orbitals": 0},
            {"active_orbitals": -2},
            {"orbital_window": "0,1"},
            {"orbital_window": [-1, 0]},
            {"orbital_window": [0, "1"]},
            {"orbital_window": [0, True]},
            {"orbital_window": []},
            {"orbital_window": [0, 0]},
            {"active_orbitals": 3, "orbital_window": [0, 1]},
            {"mapping": 5},
            {"qcc": [["max_iterations", 3]]},  # pairs, not a JSON object
            {"qcc": {"energy_tolerance": 10**400}},  # past float64
            {"qcc": {"energy_tolerance": -10**400}},
            {"geometries": "ab"},
            {"geometries": {"label": "x"}},
            {"geometries": [{**entry, "fcidump": ""}]},  # the manifest's directory
            {"geometries": [{**entry, "fcidump": str(tmp_path)}]},
        ]
        for extra in mistyped:
            path = tmp_path / "typed.manifest.json"
            path.write_text(
                json.dumps(
                    {"schema": "qcc-manifest/1", "geometries": [entry], **extra}
                )
            )
            before = tree(tmp_path)
            result = runner.invoke(main, ["pes", str(path)])
            assert result.exit_code == 4, (extra, result.output)
            assert extra not in path_fields or "is not a JSON string" in result.output
            assert tree(tmp_path) == before
        # a field is checked even when a flag overrides it
        path.write_text(json.dumps({"schema": "qcc-manifest/1", "geometries": [entry], "output_dir": 5}))
        result = runner.invoke(main, ["pes", str(path), "--output-dir", str(tmp_path / "o")])
        assert result.exit_code == 4 and "is not a JSON string" in result.output, result.output
        assert not (tmp_path / "o").exists()
        # JSON has no NaN or Infinity, so a manifest holding either token is
        # unreadable (exit 2) before its values are checked
        for extra in ({"qcc": {"energy_tolerance": math.nan}}, {"qcc": {"prune_threshold": math.inf}}):
            path = tmp_path / "typed.manifest.json"
            path.write_text(json.dumps({"schema": "qcc-manifest/1", "geometries": [entry], **extra}))
            result = runner.invoke(main, ["pes", str(path)])
            assert result.exit_code == 2, (extra, result.output)

        # a label names the output files, so it must be a JSON string, not a
        # value spelt into one, and stay inside the directory
        plain = [(label, "not a plain file name")
                 for label in ("", ".", "..", "../escape", "a/b", "a\\b", "a\0b")]
        typed = [(label, "is not a JSON string") for label in (None, True, 0.8, ["a"], {"x": 1})]
        for label, message in plain + typed:
            path = tmp_path / "label.manifest.json"
            path.write_text(
                json.dumps(
                    {"schema": "qcc-manifest/1", "geometries": [{**entry, "label": label}]}
                )
            )
            result = runner.invoke(main, ["pes", str(path), "--shots", "64"])
            assert result.exit_code == 4, (label, result.output)
            assert message in result.output
            assert not (tmp_path / "qcc-out").exists()
        assert not list(tmp_path.rglob("*.trace.json"))


class TestPes:
    def test_sweep_with_shot_emulation(self, runner, fixtures_dir, tmp_path):
        out_dir = tmp_path / "pes"
        run_checked(
            runner,
            [
                "pes",
                str(fixtures_dir / "dimer.manifest.json"),
                "--output-dir",
                str(out_dir),
                "--shots",
                "2048",
            ],
        )
        rows = list(csv.DictReader((out_dir / "pes.csv").open()))
        assert len(rows) == 3
        for row in rows:
            shots = json.loads(
                (out_dir / f"{row['geometry']}.shots.json").read_text()
            )
            assert shots["schema"] == "shot-estimate/1"
            assert shots["shots_per_group"] == 2048
            assert abs(shots["difference"]) < 0.25
            assert shots["exact"] == pytest.approx(
                float(row["E_qcc_total"])
                - json.loads(
                    (out_dir / f"{row['geometry']}.trace.json").read_text()
                )["e_inactive"]
                - json.loads(
                    (out_dir / f"{row['geometry']}.trace.json").read_text()
                )["e_nuclear"],
                abs=1e-9,
            )

    def test_each_geometry_is_built_once(
        self, runner, fixtures_dir, tmp_path, monkeypatch
    ):
        built = []
        build = cli._build_problem

        def counting_build(path, *args):
            built.append(path.name)
            return build(path, *args)

        monkeypatch.setattr(cli, "_build_problem", counting_build)
        run_checked(
            runner,
            [
                "pes",
                str(fixtures_dir / "dimer.manifest.json"),
                "--output-dir",
                str(tmp_path / "pes"),
                "--shots",
                "64",
            ],
        )
        assert sorted(built) == [
            "dimer_d0.80.fcidump", "dimer_d1.00.fcidump", "dimer_d1.20.fcidump"
        ]
        assert len(list((tmp_path / "pes").glob("*.shots.json"))) == 3

    def test_broken_geometry_gets_no_shot_estimate(
        self, runner, fixtures_dir, tmp_path
    ):
        bad = tmp_path / "broken.fcidump"
        bad.write_text("&FCI NORB=2 &END\n")
        manifest = tmp_path / "mixed.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [
                        {
                            "label": "ok",
                            "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
                        },
                        {"label": "broken", "fcidump": str(bad)},
                    ],
                    "active_electrons": 2,
                    "active_orbitals": 2,
                }
            )
        )
        out_dir = tmp_path / "out"
        run_checked(
            runner, ["pes", str(manifest), "--output-dir", str(out_dir), "--shots", "64"]
        )
        rows = {r["geometry"]: r for r in csv.DictReader((out_dir / "pes.csv").open())}
        assert rows["ok"]["status"] == "ok"
        assert rows["broken"]["status"].startswith("error:")
        shots = json.loads((out_dir / "ok.shots.json").read_text())
        assert shots["shots_per_group"] == 64
        assert not (out_dir / "broken.shots.json").exists()
        assert not (out_dir / "broken.trace.json").exists()

    def test_rerun_leaves_no_stale_shot_estimate(self, runner, fixtures_dir, tmp_path):
        manifest, out_dir = str(fixtures_dir / "dimer.manifest.json"), tmp_path / "out"
        run_checked(runner, ["pes", manifest, "--output-dir", str(out_dir), "--shots", "64"])
        assert len(list(out_dir.glob("*.shots.json"))) == 3
        for command in ("pes", "qcc"):
            run_checked(runner, [command, manifest, "--output-dir", str(out_dir)])
            assert not list(out_dir.glob("*.shots.json"))
            assert len(list(out_dir.glob("*.trace.json"))) == 3

    def test_failed_rerun_leaves_no_stale_files(self, runner, fixtures_dir, tmp_path):
        fcidump = tmp_path / "x.fcidump"
        shutil.copy(fixtures_dir / "dimer_d1.00.fcidump", fcidump)
        manifest = tmp_path / "m.manifest.json"
        manifest.write_text(json.dumps({
            "schema": "qcc-manifest/1",
            "geometries": [{"label": "x", "fcidump": "x.fcidump"},
                           {"label": "y", "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump")}],
        }))
        out_dir = tmp_path / "out"
        args = ["pes", str(manifest), "--output-dir", str(out_dir), "--shots", "64"]
        run_checked(runner, args)
        assert (out_dir / "x.trace.json").exists() and (out_dir / "x.shots.json").exists()
        fcidump.write_text("&FCI NORB=2 &END\n")
        run_checked(runner, args)
        rows = {r["geometry"]: r for r in csv.DictReader((out_dir / "pes.csv").open())}
        assert rows["x"]["status"].startswith("error:")
        assert rows["y"]["status"] == "ok"
        assert sorted(p.name for p in out_dir.iterdir()) == ["pes.csv", "y.shots.json", "y.trace.json"]

    def test_unremovable_earlier_output_exits_config(self, runner, fixtures_dir, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "1.00.shots.json" / "kept").mkdir(parents=True)
        before = tree(tmp_path)
        result = runner.invoke(
            main, ["pes", str(fixtures_dir / "dimer.manifest.json"), "--output-dir", str(out_dir)]
        )
        assert result.exit_code == 4, result.output
        assert f"cannot remove {out_dir / '1.00.shots.json'}" in result.stderr
        # the geometry before it ran and wrote its trace; no summary is written
        assert set(tree(tmp_path)) - set(before) == {Path("out/0.80.trace.json")}

    def test_seed_flag_sets_the_shot_seed(self, runner, fixtures_dir, tmp_path):
        manifest = tmp_path / "seeded.manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": "qcc-manifest/1",
                    "geometries": [
                        {
                            "label": "1.00",
                            "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump"),
                        }
                    ],
                    "shots": 256,
                    "seed": 5,
                    "qcc": {"seed": 6},
                }
            )
        )
        data = json.loads(manifest.read_text())
        for args, drop, seed in (
            (["--seed", "21"], (), 21),
            ([], (), 5),
            ([], ("seed",), 6),
            ([], ("seed", "qcc"), 7),
        ):
            manifest.write_text(json.dumps({k: v for k, v in data.items() if k not in drop}))
            out_dir = tmp_path / f"seed{seed}"
            run_checked(
                runner, ["pes", str(manifest), "--output-dir", str(out_dir), *args]
            )
            shots = json.loads((out_dir / "1.00.shots.json").read_text())
            assert shots["seed"] == seed

    def test_rejects_bad_flags(self, runner, fixtures_dir, tmp_path):
        manifest = str(fixtures_dir / "dimer.manifest.json")
        out_dir = str(tmp_path / "out")
        before = tree(tmp_path)
        for shots in ("-5", str(2**63)):
            result = runner.invoke(
                main, ["pes", manifest, "--output-dir", out_dir, "--shots", shots]
            )
            assert result.exit_code == 4, result.output
            assert tree(tmp_path) == before
        result = runner.invoke(
            main, ["pes", manifest, "--output-dir", out_dir, "--seed", "-3"]
        )
        assert result.exit_code == 4, result.output
        assert not (tmp_path / "out").exists()
        # the QCC solve is deterministic, so qcc takes no seed
        result = runner.invoke(
            main, ["qcc", manifest, "--output-dir", out_dir, "--seed", "3"]
        )
        assert result.exit_code == 2, result.output
        # sweeps run one geometry at a time, so neither command takes workers
        for command in ("qcc", "pes"):
            result = runner.invoke(
                main, [command, manifest, "--output-dir", out_dir, "--workers", "2"]
            )
            assert result.exit_code == 2, result.output


class TestExtrapolateCommand:
    def make_trace(self, tmp_path, energies, n_qubits=4):
        iterations = [
            {
                "generators": [{"pauli": "YXII", "tau": 0.1}],
                "energy": e,
                "term_count": 5,
                "gradients": [0.1],
            }
            for e in energies[1:]
        ]
        payload = {
            "schema": "qcc-trace/1",
            "n_qubits": n_qubits,
            "reference": "1100",
            "iterations": iterations,
            "initial_energy": energies[0],
            "final_energy": energies[-1],
            "converged": False,
            "e_inactive": 0.0,
            "e_nuclear": 0.0,
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        return path

    def test_recovers_planted_decay(self, runner, tmp_path):
        e0, a, b = -3.25, -0.09, 0.4
        energies = [e0 + 10.0 ** (a * i + b) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        out = tmp_path / "fit.json"
        curve = tmp_path / "curve.csv"
        run_checked(
            runner,
            [
                "extrapolate",
                str(path),
                "--output",
                str(out),
                "--curve",
                str(curve),
                "--threshold",
                "1e-2",
                "--threshold",
                "1e-5",
            ],
        )
        payload = json.loads(out.read_text())
        assert payload["schema"] == "extrapolation/1"
        assert payload["e0_estimate"] == pytest.approx(e0, abs=1e-8)
        assert payload["a"] == pytest.approx(a, abs=1e-8)
        assert set(payload["iter_at_threshold"]) == {"1.0e-02", "1.0e-05"}
        with curve.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iteration"
        assert len(rows) == len(energies)  # header plus one row per difference

    def test_non_decaying_trace_exits_numeric(self, runner, tmp_path):
        energies = [-(10.0 ** (0.05 * i)) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        assert runner.invoke(main, ["extrapolate", str(path)]).exit_code == 3

    def test_short_trace_exits_numeric(self, runner, tmp_path):
        energies = [1.0 / (i + 1.0) for i in range(10)]
        path = self.make_trace(tmp_path, energies)
        assert runner.invoke(main, ["extrapolate", str(path)]).exit_code == 3

    def test_wrong_schema_exits_parse(self, runner, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        assert runner.invoke(main, ["extrapolate", str(path)]).exit_code == 2

    @pytest.mark.parametrize("defect", ["missing key", "bad label"])
    def test_malformed_trace_exits_parse(self, runner, tmp_path, defect):
        path = self.make_trace(tmp_path, [1.0 / (i + 1.0) for i in range(46)])
        payload = json.loads(path.read_text())
        if defect == "missing key":
            del payload["initial_energy"]
        else:
            payload["iterations"][0]["generators"][0]["pauli"] = "YXIQ"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["extrapolate", str(path)])
        assert result.exit_code == 2, result.output

    def test_flat_trace_exits_numeric(self, runner, tmp_path):
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        # a flat step; a NaN energy or an infinite drop is no JSON value (exit 2)
        for i, value, code in ((20, energies[19], 3), (20, math.nan, 2), (40, -math.inf, 2)):
            path = self.make_trace(tmp_path, energies[:i] + [value] + energies[i + 1:])
            result = runner.invoke(main, ["extrapolate", str(path)])
            assert result.exit_code == code, result.output
            assert ("strictly positive" if code == 3 else "is not a JSON value") in result.output

    @pytest.mark.parametrize(
        "energies",
        [[3.0, 2.0, 1.0, 1.1102230246251565e-16], [1e308, 1e-100, 1e-320, 0.0]],
        ids=["ratio-rounds-to-one", "intercept-overflows"],
    )
    def test_unextrapolable_fit_exits_numeric(self, runner, tmp_path, energies):
        path = self.make_trace(tmp_path, energies)
        before = tree(tmp_path)
        outputs = ["--output", str(tmp_path / "e.json"), "--curve", str(tmp_path / "c.csv")]
        result = runner.invoke(
            main, ["extrapolate", str(path), "--discard", "0", "--window", "3", *outputs]
        )
        assert result.exit_code == 3, result.output
        assert tree(tmp_path) == before

    def test_refused_fit_leaves_no_directory(self, runner, tmp_path):
        path = self.make_trace(tmp_path, [3.0, 2.0, 1.0, 1.1102230246251565e-16])
        before = tree(tmp_path)
        result = runner.invoke(
            main,
            ["extrapolate", str(path), "--discard", "0", "--window", "3",
             "--output", str(tmp_path / "newdir" / "sub" / "e.json")],
        )
        assert result.exit_code == 3, result.output
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("command", ["extrapolate", "measure"])
    @pytest.mark.parametrize(
        "defect",
        [("reference", 1100), ("reference", True), ("reference", None),
         ("reference", "11002"), ("reference", "110"), ("pauli", "YXIIXX")],
        ids=["number", "true", "null", "not-bits", "narrow", "wide-generator"],
    )
    def test_trace_contradicting_its_width_exits_parse(
        self, runner, fixtures_dir, tmp_path, command, defect
    ):
        # a trace holds its reference and generators to its own n_qubits
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        payload = json.loads(path.read_text())
        key, value = defect
        if key == "reference":
            payload["reference"] = value
        else:
            payload["iterations"][3]["generators"][0]["pauli"] = value
        path.write_text(json.dumps(payload))
        ham = tmp_path / "h.json"
        run_checked(runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(ham)])
        before = tree(tmp_path)
        out = ["--output", str(tmp_path / "new" / "out.json")]
        args = [str(path)] if command == "extrapolate" else [str(ham), "--circuit", str(path)]
        result = runner.invoke(main, [command, *args, *out])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.output
        assert tree(tmp_path) == before

    def test_curve_overflow_exits_numeric(self, runner, tmp_path):
        # drops of 1e300, 1e290, 1e280 after five discarded iterations: the fit
        # is finite, but its line reaches 10^350 back at iteration 1
        energies = [0.0, 1e280, 1e290 + 1e280]
        energies = [1e300 + energies[-1]] * 6 + energies[::-1]
        path = self.make_trace(tmp_path, energies)
        fit = ["extrapolate", str(path), "--discard", "5", "--window", "3"]
        run_checked(runner, [*fit, "--output", str(tmp_path / "e.json")])
        before = tree(tmp_path)
        outputs = ["--output", str(tmp_path / "f.json"), "--curve", str(tmp_path / "c.csv")]
        result = runner.invoke(main, [*fit, *outputs])
        assert result.exit_code == 3, result.output
        assert "overflows" in result.output
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "key, value",
        [
            ("converged", "false"),
            ("term_count", 2.7),
            ("energy", "-1.0"),
            ("n_qubits", True),
            ("gradients", ["0.1"]),
            ("energy", 10**400),
            ("generators", [{"pauli": ["Y", "X", "I", "I"], "tau": 0.1}]),
            ("iterations", ""),
            ("iterations", {}),
            ("gradients", ""),
            ("n_qubits", 4.0),
            ("term_count", 5.0),
        ],
        ids=["converged-string", "term_count-fraction", "energy-string", "n_qubits-bool",
             "gradient-string", "energy-beyond-float64", "generator-pauli-list",
             "iterations-string", "iterations-object", "gradients-string",
             "n_qubits-float", "term_count-float"],
    )
    def test_loose_json_values_exit_parse(self, runner, tmp_path, key, value):
        # a string or a bool where a number belongs, a float where an integer
        # does, a non-boolean flag, an integer float64 cannot hold, a Pauli
        # label spelt as a list of letters and a string or an object where a
        # list belongs are refused
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        payload = json.loads(path.read_text())
        record = payload if key in payload else payload["iterations"][0]
        record[key] = value
        path.write_text(json.dumps(payload))
        before = tree(tmp_path)
        output = ["--output", str(tmp_path / "new" / "e.json")]
        result = runner.invoke(main, ["extrapolate", str(path), *output])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.output
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--curve", "."],
            ["--curve", "afile/x.csv"],
            # a writable --output must not be written when --curve is refused
            ["--output", "good.json", "--curve", "afile/x.csv"],
            # nor when both name one file
            ["--output", "e.out", "--curve", "e.out"],
        ],
        ids="-".join,
    )
    def test_unwritable_output_exits_config(self, runner, tmp_path, outputs):
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        (tmp_path / "afile").write_text("kept\n")
        before = tree(tmp_path)
        paths = [a if a.startswith("--") else str(tmp_path / a) for a in outputs]
        result = runner.invoke(main, ["extrapolate", str(path), *paths])
        assert result.exit_code == 4, result.output
        assert "cannot write" in result.output
        assert tree(tmp_path) == before

    def test_thresholds_sharing_a_key_exit_config(self, runner, tmp_path):
        # 1.6e-3 and 1.64e-3 both print as "1.6e-03", so one crossing would be lost
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        out = tmp_path / "fit.json"
        before = tree(tmp_path)
        args = ["extrapolate", str(path), "--output", str(out), "--threshold", "1.6e-3"]
        result = runner.invoke(main, [*args, "--threshold", "1.64e-3"])
        assert result.exit_code == 4, result.output
        assert "error: thresholds" in result.output
        assert tree(tmp_path) == before
        # the same value twice is one threshold, as before
        run_checked(runner, [*args, "--threshold", "0.0016"])
        assert list(json.loads(out.read_text())["iter_at_threshold"]) == ["1.6e-03"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("discard", "-1"),
            ("window", "2"),
            ("threshold", "0"),
            ("threshold", "-1e-3"),
            ("threshold", "nan"),
            ("threshold", "inf"),
        ],
    )
    def test_refused_request_exits_config(self, runner, tmp_path, flag, value):
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        path = self.make_trace(tmp_path, energies)
        result = runner.invoke(main, ["extrapolate", str(path), f"--{flag}", value])
        assert result.exit_code == 4, result.output
        assert f"error: {flag}" in result.output


class TestMeasure:
    def write_hamiltonian(self, runner, fixtures_dir, tmp_path):
        path = tmp_path / "h.json"
        run_checked(
            runner,
            [
                "ham",
                str(fixtures_dir / "dimer_d1.00.fcidump"),
                "--output",
                str(path),
            ],
        )
        return path

    def test_trace_circuit_estimate(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        out_dir = tmp_path / "qcc"
        run_checked(
            runner,
            [
                "qcc",
                str(fixtures_dir / "dimer.manifest.json"),
                "--output-dir",
                str(out_dir),
            ],
        )
        out = tmp_path / "estimate.json"
        per_group = tmp_path / "groups.csv"
        run_checked(
            runner,
            [
                "measure",
                str(ham_path),
                "--circuit",
                str(out_dir / "1.00.trace.json"),
                "--seed",
                "21",
                "--output",
                str(out),
                "--per-group",
                str(per_group),
            ],
        )
        payload = json.loads(out.read_text())
        assert payload["schema"] == "shot-estimate/1"
        assert payload["seed"] == 21
        assert payload["exact"] == pytest.approx(
            (2.0 - math.sqrt(5.0)) - 1.0, abs=1e-9
        )
        assert abs(payload["difference"]) < 0.1
        assert payload["difference"] == pytest.approx(
            payload["exact"] - payload["energy"], abs=1e-12
        )
        rows = list(csv.reader(per_group.open()))
        assert len(rows) == payload["n_groups"] + 1

    def test_same_seed_reproduces_bytes(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            run_checked(
                runner,
                ["measure", str(ham_path), "--shots", "512", "--output", str(out)],
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bare_reference_uses_metadata(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        result = run_checked(runner, ["measure", str(ham_path), "--shots", "256"])
        payload = json.loads(result.output)
        # reference state of a diagonal-dominated problem: exact part known
        meta = json.loads(ham_path.read_text())["metadata"]
        assert meta["reference"] == "1100"
        assert payload["n_groups"] >= 1

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--output", "afile/x.json"],
            ["--output", "."],
            ["--per-group", "afile/x.csv"],
            ["--per-group", "."],
            # a writable --output must not be written when --per-group is refused
            ["--output", "good.json", "--per-group", "afile/x.csv"],
        ],
        ids="-".join,
    )
    def test_unwritable_output_exits_config(self, runner, fixtures_dir, tmp_path, outputs):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        before = tree(tmp_path)
        paths = [a if a.startswith("--") else str(tmp_path / a) for a in outputs]
        result = runner.invoke(main, ["measure", str(ham_path), "--shots", "64", *paths])
        assert result.exit_code == 4, result.output
        assert "cannot write" in result.output
        assert tree(tmp_path) == before

    def test_rejects_bad_requests(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        before = tree(tmp_path)
        # 2**63 does not fit the C long that the multinomial draw takes
        for shots in ("0", str(2**63)):
            out = str(tmp_path / "m.json")
            result = runner.invoke(
                main, ["measure", str(ham_path), "--shots", shots, "--output", out]
            )
            assert result.exit_code == 4, result.output
            assert tree(tmp_path) == before
        # two outputs that name one file, also through a directory not yet made
        for other in ("same.out", "sub/../same.out"):
            result = runner.invoke(
                main,
                ["measure", str(ham_path), "--shots", "64", "--output",
                 str(tmp_path / "same.out"), "--per-group", str(tmp_path / other)],
            )
            assert result.exit_code == 4, result.output
            assert "name one file" in result.output
            assert tree(tmp_path) == before
        result = runner.invoke(main, ["measure", str(ham_path), "--seed", "-1"])
        assert result.exit_code == 4, result.output
        assert "seed must be non-negative" in result.stderr
        stripped = json.loads(ham_path.read_text())
        del stripped["metadata"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(stripped))
        assert runner.invoke(main, ["measure", str(bare)]).exit_code == 4

        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"reference": "11", "generators": []}))
        assert (
            runner.invoke(
                main, ["measure", str(ham_path), "--circuit", str(circuit)]
            ).exit_code
            == 4
        )

        wrong = tmp_path / "w.json"
        wrong.write_text(json.dumps({"schema": "other/1"}))
        assert runner.invoke(main, ["measure", str(wrong)]).exit_code == 2


    @pytest.mark.parametrize(
        "defect", ["term without coeff", "trace missing key", "trace bad label"]
    )
    def test_malformed_inputs_exit_parse(self, runner, fixtures_dir, tmp_path, defect):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        trace = {
            "schema": "qcc-trace/1",
            "n_qubits": 4,
            "reference": "1100",
            "iterations": [
                {"generators": [{"pauli": "YXII", "tau": 0.1}], "energy": -1.0,
                 "term_count": 5}
            ],
            "initial_energy": -0.9,
            "final_energy": -1.0,
            "converged": True,
        }
        if defect == "term without coeff":
            ham = json.loads(ham_path.read_text())
            del ham["terms"][0]["coeff"]
            ham_path.write_text(json.dumps(ham))
        elif defect == "trace missing key":
            del trace["n_qubits"]
        else:
            trace["iterations"][0]["generators"][0]["pauli"] = "YXIQ"
        circuit = tmp_path / "trace.json"
        circuit.write_text(json.dumps(trace))
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(circuit)])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "defect",
        ["tau true", "coeff string", "n_qubits fraction", "tau string", "term pauli list",
         "generator pauli list", "terms string", "terms object", "generators string",
         "generators object"],
    )
    def test_loose_json_values_exit_parse(self, runner, fixtures_dir, tmp_path, defect):
        # a bool or a string is not an angle or a coefficient, nor 4.5 a width,
        # nor a list of letters a Pauli label, nor a string or an object a list
        loose_list = {"string": "", "object": {}}
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        ham = json.loads(ham_path.read_text())
        tau = {"tau true": True, "tau string": "0.1"}.get(defect, 0.1)
        if defect == "coeff string":
            ham["terms"][0]["coeff"] = str(ham["terms"][0]["coeff"])
        elif defect == "n_qubits fraction":
            ham["n_qubits"] = 4.5
        elif defect == "term pauli list":
            ham["terms"][0]["pauli"] = list(ham["terms"][0]["pauli"])
        elif defect.startswith("terms "):
            ham["terms"] = loose_list[defect.split()[1]]
        ham_path.write_text(json.dumps(ham))
        pauli = list("YXII") if defect == "generator pauli list" else "YXII"
        generators = [{"pauli": pauli, "tau": tau}]
        if defect.startswith("generators "):
            generators = loose_list[defect.split()[1]]
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"reference": "1100", "generators": generators}))
        before = tree(tmp_path)
        output = ["--output", str(tmp_path / "new" / "m.json")]
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(circuit), *output])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.output
        assert tree(tmp_path) == before

    def test_like_terms_past_float64_exit_parse(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        ham = json.loads(ham_path.read_text())
        ham["terms"] = [{"pauli": "ZZZZ", "coeff": 1e308}] * 2
        ham_path.write_text(json.dumps(ham))
        before = tree(tmp_path)
        result = runner.invoke(main, ["measure", str(ham_path), "--output", str(tmp_path / "m.json")])
        assert result.exit_code == 2, result.output
        assert "non-finite coefficient" in result.output
        assert tree(tmp_path) == before

    def test_metadata_reference_must_match_the_width(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        ham = json.loads(ham_path.read_text())
        ham["metadata"]["reference"] = "110"
        ham_path.write_text(json.dumps(ham))
        result = runner.invoke(main, ["measure", str(ham_path)])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.output

    @pytest.mark.parametrize(
        "metadata", [[], {"reference": 1100}, {"reference": "11a0"}, {"reference": "1 00"}]
    )
    def test_malformed_metadata_exits_parse(self, runner, fixtures_dir, tmp_path, metadata):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        ham = json.loads(ham_path.read_text())
        ham["metadata"] = metadata
        ham_path.write_text(json.dumps(ham))
        result = runner.invoke(main, ["measure", str(ham_path)])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.output

    @pytest.mark.parametrize("reference", ["11x0", 1100, ["1", "1", "0", "0"]])
    def test_circuit_reference_must_be_bits(self, runner, fixtures_dir, tmp_path, reference):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"reference": reference, "generators": []}))
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(circuit)])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("defect", ["foreign schema", "schema without iterations"])
    def test_circuit_with_a_schema_is_read_as_a_trace(self, runner, fixtures_dir, tmp_path, defect):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        if defect == "foreign schema":
            circuit = TestLooseJsonFields.TRACE | {"schema": "bogus/9"}
        else:  # not read as the bare circuit {"reference": "1100"}
            circuit = {"schema": "qcc-trace/1", "reference": "1100"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        before = tree(tmp_path)
        output = ["--output", str(tmp_path / "new" / "m.json")]
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(path), *output])
        assert result.exit_code == 2, result.output
        assert "malformed content" in result.stderr
        assert tree(tmp_path) == before

    def test_missing_key_is_named(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        ham = json.loads(ham_path.read_text())
        del ham["terms"]
        no_terms = tmp_path / "no_terms.json"
        no_terms.write_text(json.dumps(ham))
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"schema": "qcc-trace/1", "reference": "1100"}))
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"reference": "1100", "generators": [{"pauli": "XXYY"}]}))
        for args, key in [
            ([str(ham_path), "--circuit", str(trace)], "n_qubits"),
            ([str(no_terms)], "terms"),
            ([str(ham_path), "--circuit", str(circuit)], "tau"),
        ]:
            result = runner.invoke(main, ["measure", *args])
            assert result.exit_code == 2, result.output
            assert f"malformed content: missing key '{key}'" in result.stderr

    def test_circuit_width_mismatch_exits_config(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        circuit = tmp_path / "c.json"
        circuit.write_text(
            json.dumps({"reference": "1100", "generators": [{"pauli": "XY", "tau": 0.1}]})
        )
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(circuit)])
        assert result.exit_code == 4, result.output


class TestNonFiniteResults:
    """A result float64 overflows is refused, never written as NaN or Infinity.

    These runs raise numpy RuntimeWarnings, so they run in a child process.
    """

    def test_measure_exits_numeric(self, runner, fixtures_dir, tmp_path):
        ham_path = tmp_path / "h.json"
        run_checked(runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(ham_path)])
        ham = json.loads(ham_path.read_text())
        ham["terms"] = [{"pauli": "ZZZZ", "coeff": 1e308}, {"pauli": "ZZZI", "coeff": 1e308}]
        ham_path.write_text(json.dumps(ham))
        before = tree(tmp_path)
        outputs = ["--output", tmp_path / "new" / "m.json", "--per-group", tmp_path / "g.csv"]
        result = run_child(["measure", ham_path, *outputs], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "NaN or infinite" in result.stderr
        assert tree(tmp_path) == before

    def write_manifest(self, tmp_path, fcidump):
        path = tmp_path / "big.manifest.json"
        path.write_text(json.dumps(
            {"schema": "qcc-manifest/1", "geometries": [{"label": "big", "fcidump": str(fcidump)}]}
        ))
        return path

    def test_sweep_writes_no_non_finite_shot_estimate(self, fixtures_dir, tmp_path):
        fcidump = overflowing_fcidump(
            fixtures_dir, tmp_path, {"1 1 1 1": "1.7e308", "2 2 2 2": "1.7e308"}
        )
        out = tmp_path / "out"
        result = run_child(
            ["pes", self.write_manifest(tmp_path, fcidump), "--shots", "100", "--output-dir", out],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "geometry big: shot emulation: " in result.stderr
        assert sorted(p.name for p in out.iterdir()) == ["big.trace.json", "pes.csv"]
        strict_json(out / "big.trace.json")

    def test_sweep_writes_no_non_finite_trace(self, fixtures_dir, tmp_path):
        # the reference energy 2 h_11 + g_1111 overflows; every mapped term is finite
        fcidump = overflowing_fcidump(
            fixtures_dir, tmp_path, {"1 1 1 1": "1e308", "1 1 0 0": "5e307"}
        )
        out = tmp_path / "out"
        result = run_child(["qcc", self.write_manifest(tmp_path, fcidump), "--output-dir", out], tmp_path)
        assert result.returncode == 3, result.stderr
        (row,) = csv.DictReader((out / "summary.csv").open())
        assert row["status"] == "error: a result is NaN or infinite, which JSON cannot hold"
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


    @pytest.mark.parametrize("case", ["measure", "pes-shots", "qcc", "uccsd"])
    def test_refusals_print_only_their_line(self, fixtures_dir, tmp_path, case):
        # the overflows on the way to a refused result print no numpy warning
        if case == "uccsd":
            # the energy is NaN at zero amplitudes, before the optimizer's root step
            fcidump = overflowing_fcidump(
                fixtures_dir, tmp_path, {"1 1 1 1": "1.7e308", "2 2 2 2": "1.7e308"}
            )
            args = ["uccsd", fcidump, "--optimize", "--output", tmp_path / "u.json"]
            line = "error: an energy along the sweep is NaN or infinite"
        elif case == "measure":
            ham_path = tmp_path / "h.json"
            run_child(["ham", fixtures_dir / "dimer_d1.00.fcidump", "--output", ham_path], tmp_path)
            ham = json.loads(ham_path.read_text())
            ham["terms"] = [{"pauli": "ZZZZ", "coeff": 1e308}, {"pauli": "ZZZI", "coeff": 1e308}]
            ham_path.write_text(json.dumps(ham))
            args, line = ["measure", ham_path], "error: a result is NaN or infinite"
        else:
            values = (
                {"1 1 1 1": "1.7e308", "2 2 2 2": "1.7e308"} if case == "pes-shots"
                else {"1 1 1 1": "1e308", "1 1 0 0": "5e307"}
            )
            manifest = self.write_manifest(
                tmp_path, overflowing_fcidump(fixtures_dir, tmp_path, values)
            )
            extra = ["--shots", "100"] if case == "pes-shots" else []
            args = [case.split("-")[0], manifest, *extra, "--output-dir", tmp_path / "out"]
            line = "geometry big: shot emulation: " if extra else "geometry big: a result is NaN"
        result = run_child(args, tmp_path)
        lines = result.stderr.splitlines()
        assert lines and lines[0].startswith(line), result.stderr
        assert lines[1:] == ([] if case != "qcc" else ["error: every geometry failed"])
        if case == "uccsd":
            assert result.returncode == 3
            assert not (tmp_path / "u.json").exists()


class TestNonFiniteTokens:
    """JSON has no NaN or Infinity; a file holding one of Python's tokens exits 2."""

    @pytest.mark.parametrize("command", ["extrapolate", "measure", "measure-circuit", "qcc", "pes"])
    def test_every_reader_refuses_the_tokens(self, runner, fixtures_dir, tmp_path, command):
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        trace_path = TestExtrapolateCommand().make_trace(tmp_path, energies)
        trace = json.loads(trace_path.read_text())
        ham_path = tmp_path / "h.json"
        run_checked(runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(ham_path)])
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": "qcc-manifest/1",
            "geometries": [{"label": "1.00", "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump")}],
            "qcc": {"energy_tolerance": math.inf if command == "qcc" else -math.inf},
        }))
        curve = tmp_path / "new" / "curve.csv"
        if command == "extrapolate":
            trace["iterations"][1]["energy"] = math.nan
            trace_path.write_text(json.dumps(trace))
            args, bad = ["extrapolate", trace_path, "--curve", curve], trace_path
        elif command == "measure":
            ham = json.loads(ham_path.read_text())
            ham["terms"][0]["coeff"] = math.nan
            ham_path.write_text(json.dumps(ham))
            args, bad = ["measure", ham_path], ham_path
        elif command == "measure-circuit":
            for record in trace["iterations"]:
                record["generators"][0]["tau"] = math.nan
            trace_path.write_text(json.dumps(trace))
            args, bad = ["measure", ham_path, "--circuit", trace_path], trace_path
        else:
            args, bad = [command, manifest, "--output-dir", tmp_path / "new"], manifest
        result = runner.invoke(main, list(map(str, args)))
        assert result.exit_code == 2, result.output
        token = {"qcc": "Infinity", "pes": "-Infinity"}.get(command, "NaN")
        assert f"{bad}: invalid JSON: {token} is not a JSON value" in result.output
        assert not (tmp_path / "new").exists()

    def test_numbers_past_float64_exit_parse(self, runner, fixtures_dir, tmp_path):
        # Python's reader turns the literal 1e400 into inf, which no reader may take
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        trace_path = TestExtrapolateCommand().make_trace(tmp_path, energies)
        trace = json.loads(trace_path.read_text())
        trace["iterations"][0]["energy"] = 1234.5
        trace_path.write_text(json.dumps(trace).replace("1234.5", "1e400"))
        ham_path = tmp_path / "h.json"
        run_checked(runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(ham_path)])
        big_coeff = tmp_path / "big.json"
        ham = json.loads(ham_path.read_text())
        ham["terms"][0]["coeff"] = 1234.5
        big_coeff.write_text(json.dumps(ham).replace("1234.5", "1e400"))
        circuit = tmp_path / "c.json"
        circuit.write_text('{"reference": "1100", "generators": [{"pauli": "YXII", "tau": 1e400}]}')
        new = tmp_path / "new"
        for args in [
            ["extrapolate", trace_path, "--discard", "2", "--window", "5",
             "--curve", new / "c.csv", "--output", new / "e.json"],
            ["measure", ham_path, "--circuit", circuit, "--output", new / "m.json"],
            ["measure", big_coeff, "--output", new / "m.json"],
        ]:
            result = runner.invoke(main, list(map(str, args)))
            assert result.exit_code == 2, result.output
            assert "inf is not a finite JSON number" in result.stderr
            assert not new.exists()


class TestJsonListItems:
    """An item of an outside-JSON list that must be an object is type-checked
    like any other value, and a manifest names a missing key as _parse does."""

    def test_messages(self, runner, fixtures_dir, tmp_path):
        energies = [-3.25 + 10.0 ** (-0.09 * i + 0.4) for i in range(46)]
        trace_path = TestExtrapolateCommand().make_trace(tmp_path, energies)
        trace = json.loads(trace_path.read_text())
        trace["iterations"][2] = "it"
        trace_path.write_text(json.dumps(trace))
        ham_path = tmp_path / "h.json"
        run_checked(runner, ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(ham_path)])
        ham = json.loads(ham_path.read_text())
        ham["terms"][1] = "term"
        bad_terms = tmp_path / "terms.json"
        bad_terms.write_text(json.dumps(ham))
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({"reference": "1100", "generators": ["gen"]}))
        entry = {"label": "a", "fcidump": str(fixtures_dir / "dimer_d1.00.fcidump")}
        manifests = {}
        for name, geometries in [("items", [entry, "geometry"]), ("label", [{"fcidump": entry["fcidump"]}])]:
            manifests[name] = tmp_path / f"{name}.json"
            manifests[name].write_text(json.dumps({"schema": "qcc-manifest/1", "geometries": geometries}))
        for args, code, line in [
            (["extrapolate", trace_path], 2, f"error: {trace_path}: malformed content: "
                                             "TypeError(\"'it' is not a JSON object\")"),
            (["measure", bad_terms], 2, f"error: {bad_terms}: malformed content: "
                                        "TypeError(\"'term' is not a JSON object\")"),
            (["measure", ham_path, "--circuit", circuit], 2, f"error: {circuit}: malformed content: "
                                                             "TypeError(\"'gen' is not a JSON object\")"),
            (["qcc", manifests["items"]], 4, f"error: {manifests['items']}: 'geometry' is not a JSON object"),
            (["pes", manifests["label"]], 4, f"error: {manifests['label']}: missing key 'label'"),
        ]:
            result = runner.invoke(main, list(map(str, args)))
            assert result.exit_code == code, result.output
            assert result.stderr == line + "\n"


# Any JSON value: integers past float64 and nesting included, NaN and Infinity
# excluded. Scalars are drawn as often as containers of any depth.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def field_paths(value, path=()):
    """The key path of every value nested in a JSON document but an fcidump
    path, so that a drawn value never names a file outside the test's directory."""
    items = enumerate(value) if isinstance(value, list) else value.items()
    for key, child in items:
        if key != "fcidump":
            yield (*path, key)
            if isinstance(child, (list, dict)):
                yield from field_paths(child, (*path, key))


class TestLooseJsonFields:
    """One field of a valid manifest, Hamiltonian file, trace or bare circuit
    set to any JSON value: the run ends in a documented exit code."""

    HAMILTONIAN = {
        "schema": "qubit-hamiltonian/1",
        "n_qubits": 4,
        "terms": [{"pauli": p, "coeff": c} for p, c in
                  [("IIII", 1.0), ("ZZII", 0.25), ("IIZI", -1.0), ("YYXX", -0.25)]],
        "metadata": {"reference": "1100"},
    }
    CIRCUIT = {"reference": "1100", "generators": [{"pauli": "YXII", "tau": 0.1}]}
    TRACE = {
        "schema": "qcc-trace/1", "n_qubits": 4, "reference": "1100",
        "initial_energy": -0.9, "final_energy": -1.011, "converged": True,
        "e_inactive": 0.0, "e_nuclear": 1.0,
        "iterations": [
            {"generators": [{"pauli": "YXII", "tau": 0.1}], "energy": e, "term_count": 5,
             "gradients": [0.1]}
            for e in (-1.0, -1.01, -1.011)  # the fewest that extrapolate fits
        ],
    }
    MANIFEST = {
        "schema": "qcc-manifest/1",
        "geometries": [{"label": "1.00", "fcidump": "set to the inputs' copy"}],
        "active_electrons": 2, "active_orbitals": 2, "orbital_window": [0, 1],
        "mapping": "jordan_wigner", "seed": 11, "shots": 64,
        "qcc": {"generators_per_iteration": 1, "max_iterations": 3,
                "energy_tolerance": 1e-6, "seed": 5},
    }
    INPUTS = {"manifest": MANIFEST, "hamiltonian": HAMILTONIAN, "trace": TRACE, "circuit": CIRCUIT}
    FIELDS = [(name, path) for name, document in INPUTS.items() for path in field_paths(document)]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, fixtures_dir):
        """A directory holding the unchanged files an input names: the FCIDUMP
        of the manifest and the Hamiltonian a bare circuit is measured on."""
        inputs = tmp_path_factory.mktemp("inputs")
        shutil.copy(fixtures_dir / "dimer_d1.00.fcidump", inputs / "dimer.fcidump")
        (inputs / "h.json").write_text(json.dumps(self.HAMILTONIAN))
        return inputs

    @settings(PROPERTY, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
    # a tolerance past float64 once ended in an OverflowError traceback; derandomized
    # draws follow the test's source, so this case is pinned, not left to the draw
    @example(field=("manifest", ("qcc", "energy_tolerance")), value=10**400)
    def test_any_value_in_any_field_exits_documented(self, runner, inputs, tmp_path, field, value):
        name, (*parents, key) = field
        document = copy.deepcopy(self.INPUTS[name])
        if name == "manifest":
            document["geometries"][0]["fcidump"] = str(inputs / "dimer.fcidump")
        functools.reduce(operator.getitem, parents, document)[key] = value
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        path = work / f"{name}.json"
        path.write_text(json.dumps(document))
        # the manifest's output_dir is never drawn, and --output-dir overrides it anyway
        args = {
            "manifest": ["pes", path, "--output-dir", work / "out"],
            "hamiltonian": ["measure", path, "--shots", "64", "--output", work / "m.json"],
            "trace": ["extrapolate", path, "--discard", "0", "--window", "3",
                      "--output", work / "e.json", "--curve", work / "c.csv"],
            "circuit": ["measure", inputs / "h.json", "--circuit", path, "--shots", "64",
                        "--output", work / "m.json"],
        }[name]
        result = runner.invoke(main, list(map(str, args)))
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            field, value, result.output)
        assert result.exit_code in (0, 2, 3, 4), (field, value, result.output)


def strict_json(path: Path):
    """Parse a JSON file, refusing the NaN and Infinity tokens JSON does not have."""

    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJsonArtifacts:
    """Every JSON file the CLI writes on the shipped inputs is strict JSON."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.fcidump")))
    def test_problem_commands(self, runner, fixtures_dir, tmp_path, name):
        fcidump = str(fixtures_dir / f"{name}.fcidump")
        for command in (["ham"], ["fci"], ["uccsd", "--optimize"]):
            run_checked(runner, [*command, fcidump, "--output", str(tmp_path / f"{command[0]}.json")])
        run_checked(
            runner,
            ["measure", str(tmp_path / "ham.json"), "--output", str(tmp_path / "measure.json")],
        )
        written = sorted(tmp_path.glob("*.json"))
        assert [p.stem for p in written] == ["fci", "ham", "measure", "uccsd"]
        for path in written:
            strict_json(path)

    @pytest.mark.parametrize("manifest", ["dimer", "chain4"])
    def test_sweeps_and_their_traces(self, runner, fixtures_dir, tmp_path, manifest):
        manifest_path = fixtures_dir / f"{manifest}.manifest.json"
        qcc, pes = tmp_path / "qcc", tmp_path / "pes"
        run_checked(runner, ["qcc", str(manifest_path), "--output-dir", str(qcc)])
        run_checked(runner, ["pes", str(manifest_path), "--output-dir", str(pes), "--shots", "1000"])
        for geometry in json.loads(manifest_path.read_text())["geometries"]:
            trace, ham = qcc / f"{geometry['label']}.trace.json", tmp_path / "ham.json"
            fcidump = fixtures_dir / geometry["fcidump"]
            run_checked(runner, ["ham", str(fcidump), "--output", str(ham)])
            out = qcc / f"{geometry['label']}.measure.json"
            run_checked(runner, ["measure", str(ham), "--circuit", str(trace), "--output", str(out)])
            if len(strict_json(trace)["iterations"]) >= 3:
                out = qcc / f"{geometry['label']}.fit.json"
                fit = ["--discard", "0", "--window", "3", "--output", str(out)]
                run_checked(runner, ["extrapolate", str(trace), *fit])
        kinds = {".".join(p.name.split(".")[-2:]) for p in tmp_path.rglob("*.json")}
        expected = {"ham.json", "trace.json", "shots.json", "measure.json"}
        assert kinds == expected | ({"fit.json"} if manifest == "chain4" else set())
        for path in tmp_path.rglob("*.json"):
            strict_json(path)


class TestTracedNames:
    def test_bench_spans_resolve(self):
        # perfbench/spans.py wraps these functions by name under --trace 1
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        names = [(module, attr) for module, attr, *_ in spans.TRACED]
        names += [("cli", "_run_geometry"), ("cli", "_build_problem")]
        missing = [
            f"{module}.{attr}"
            for module, attr in names
            if not callable(getattr(importlib.import_module(f"qccvqe.{module}"), attr, None))
        ]
        assert missing == []

    def test_shot_pass_takes_one_expectation_per_geometry(
        self, runner, fixtures_dir, tmp_path, monkeypatch
    ):
        calls = []
        for module in (simulator, solver):
            def counting(state, h, inner=module.expectation):
                calls.append(h.n_qubits)
                return inner(state, h)

            monkeypatch.setattr(module, "expectation", counting)
        out_dir = tmp_path / "pes"
        run_checked(
            runner,
            ["pes", str(fixtures_dir / "dimer.manifest.json"),
             "--output-dir", str(out_dir), "--shots", "64"],
        )
        assert len(list(out_dir.glob("*.shots.json"))) == 3
        assert calls == [4, 4, 4]


class TestReadme:
    def test_examples_run_as_shown(self, runner, monkeypatch, capsys):
        # the README's paths are relative to the repository root
        root = FIXTURES.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        monkeypatch.chdir(root)
        command = "$ qccvqe fci fixtures/dimer_d1.00.fcidump\n"
        shown = readme.split(command, 1)[1].split("```", 1)[0]
        assert shown == run_checked(runner, command.split()[2:]).stdout
        library = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
        exec(compile(library, "README.md", "exec"), {})
        assert float(capsys.readouterr().out) >= 0.0


class TestVersion:
    def test_version_flag(self, runner):
        result = run_checked(runner, ["--version"])
        assert f"qccvqe, version {qccvqe.__version__}" in result.output


class TestExports:
    def test_exports_resolve(self):
        # each __all__ name exists, and the package imports only exported names
        init = Path(qccvqe.__file__)
        for module in sorted(init.parent.glob("*.py")):
            name = "qccvqe" if module.stem == "__init__" else f"qccvqe.{module.stem}"
            mod = importlib.import_module(name)
            missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
            assert missing == [], name
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module:
                exported = importlib.import_module(f"qccvqe.{node.module}").__all__
                assert {a.name for a in node.names} <= set(exported), node.module


class TestImport:
    def test_cli_import_leaves_scipy_optimize_out(self):
        # scipy.optimize costs about 150 ms per process, and nothing uses it.
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, qccvqe.cli; print('scipy.optimize' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"

    @staticmethod
    def sweep_leaves_out(module, fixtures_dir, tmp_path):
        """Whether `qcc` and `pes --shots` on the dimer manifest never import `module`."""
        for path in fixtures_dir.glob("dimer*"):
            shutil.copy(path, tmp_path)
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from qccvqe.cli import main\n"
            "module, manifest, out = sys.argv[1:]\n"
            "main(['qcc', manifest, '--output-dir', out + '/qcc'], standalone_mode=False)\n"
            "main(['pes', manifest, '--output-dir', out + '/pes', '--shots', '64'],\n"
            "     standalone_mode=False)\n"
            "print(module in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, module, str(tmp_path / "dimer.manifest.json"),
             str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert len(list((tmp_path / "pes").glob("*.shots.json"))) == 3
        return result.stdout.splitlines()[-1] == "False"

    def test_sweeps_leave_scipy_out(self, fixtures_dir, tmp_path):
        # scipy is no runtime dependency; importing it costs about 0.1 s.
        assert self.sweep_leaves_out("scipy", fixtures_dir, tmp_path)

    def test_full_spectrum_leaves_scipy_out(self, fixtures_dir):
        # the whole 4096-state chain6 space is diagonalized block by block
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from qccvqe.cli import main\n"
            "main(['fci', sys.argv[1], '--full-spectrum'], standalone_mode=False)\n"
            "print('scipy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(fixtures_dir / "chain6_d1.00.fcidump")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads("".join(result.stdout.splitlines()[:-1]))
        assert payload["n_qubits"] == 12 and payload["sector_restricted"] is False
        assert result.stdout.splitlines()[-1] == "False"

    def test_sweeps_leave_numpy_ma_out(self, fixtures_dir, tmp_path):
        # numpy 2.4's np.unique without a return_* flag imports numpy.ma
        # (about 6 ms per process); the sweep path must not need it.
        assert self.sweep_leaves_out("numpy.ma", fixtures_dir, tmp_path)

    def test_uccsd_optimize_leaves_scipy_out(self, fixtures_dir):
        # the UCCSD sweeps need only numpy's FFT and polynomial roots
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from qccvqe.cli import main\n"
            "main(['uccsd', sys.argv[1], '--optimize'], standalone_mode=False)\n"
            "print('scipy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(fixtures_dir / "dimer_d1.00.fcidump")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.splitlines()[-1] == "False"
