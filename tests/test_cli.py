"""End-to-end command-line checks through click's test runner."""

import ast
import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qccvqe
from qccvqe import cli, oracle, simulator, solver
from qccvqe.cli import main


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
def eigh_fails(monkeypatch):
    """Make every dense block diagonalization in the oracle give up."""

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(oracle.np.linalg, "eigh", no_convergence)


def run_checked(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


def tree(root: Path) -> dict:
    """Every path under `root`, mapped to its bytes if it is a file."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}


def refuse_to_build(*args):
    raise AssertionError("a geometry was built")


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

    @pytest.mark.parametrize("target", ["afile/h.json", "."])
    def test_unwritable_output_exits_config(self, runner, fixtures_dir, tmp_path, target):
        (tmp_path / "afile").write_text("kept\n")
        before = tree(tmp_path)
        result = runner.invoke(
            main,
            ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--output", str(tmp_path / target)],
        )
        assert result.exit_code == 4, result.output
        assert "cannot write" in result.output
        assert tree(tmp_path) == before

    def test_bad_window_exits_config(self, runner, fixtures_dir):
        result = runner.invoke(
            main,
            ["ham", str(fixtures_dir / "dimer_d1.00.fcidump"), "--window", "0;1"],
        )
        assert result.exit_code == 4

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

    def test_eigensolver_failure_exits_numeric(
        self, runner, fixtures_dir, eigh_fails
    ):
        result = runner.invoke(main, ["fci", str(fixtures_dir / "dimer_d1.00.fcidump")])
        assert result.exit_code == 3, result.output
        assert "did not converge" in result.stderr


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
        self, runner, fixtures_dir, tmp_path, eigh_fails
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
        assert row["status"].startswith("error: Eigenvalues did not converge")

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

        mistyped = [
            {"shots": "100"},
            {"shots": True},
            {"shots": -5},
            {"seed": "11"},
            {"seed": 1.5},
            {"seed": -1, "shots": 64},
            {"qcc": {"seed": -1}, "shots": 64},
            {"qcc": {"seed": 1.5}},
            {"qcc": {"max_iterations": 2.5}},
            {"qcc": {"generators_per_iteration": 1.5}},
            {"qcc": {"max_iterations": True}},
            {"qcc": {"energy_tolerance": math.nan}},
            {"qcc": {"prune_threshold": math.inf}},
            {"qcc": {"prune_threshold": "0"}},
            {"active_electrons": "2"},
            {"active_electrons": -1},
            {"active_orbitals": 2.0},
            {"active_orbitals": 0},
            {"active_orbitals": -2},
            {"orbital_window": "0,1"},
            {"orbital_window": [-1, 0]},
            {"orbital_window": [0, "1"]},
            {"orbital_window": [0, True]},
            {"mapping": 5},
        ]
        for extra in mistyped:
            path = tmp_path / "typed.manifest.json"
            path.write_text(
                json.dumps(
                    {"schema": "qcc-manifest/1", "geometries": [entry], **extra}
                )
            )
            result = runner.invoke(main, ["pes", str(path)])
            assert result.exit_code == 4, (extra, result.output)
            assert not (tmp_path / "qcc-out").exists()

        # a label names the output files, so it must stay inside the directory
        for label in ("", ".", "..", "../escape", "a/b", "a\\b", "a\0b"):
            path = tmp_path / "label.manifest.json"
            path.write_text(
                json.dumps(
                    {"schema": "qcc-manifest/1", "geometries": [{**entry, "label": label}]}
                )
            )
            result = runner.invoke(main, ["pes", str(path), "--shots", "64"])
            assert result.exit_code == 4, (label, result.output)
            assert "not a plain file name" in result.output
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
        result = runner.invoke(
            main, ["pes", manifest, "--output-dir", out_dir, "--shots", "-5"]
        )
        assert result.exit_code == 4, result.output
        assert not (tmp_path / "out").exists()
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
        # a flat step, a NaN energy, and an infinite drop at the fit window's end
        for i, value in ((20, energies[19]), (20, math.nan), (40, -math.inf)):
            path = self.make_trace(tmp_path, energies[:i] + [value] + energies[i + 1:])
            result = runner.invoke(main, ["extrapolate", str(path)])
            assert result.exit_code == 3, result.output
            assert "strictly positive" in result.output

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--curve", "."],
            ["--curve", "afile/x.csv"],
            # a writable --output must not be written when --curve is refused
            ["--output", "good.json", "--curve", "afile/x.csv"],
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
        assert (
            runner.invoke(
                main, ["measure", str(ham_path), "--shots", "0"]
            ).exit_code
            == 4
        )
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

    def test_circuit_width_mismatch_exits_config(self, runner, fixtures_dir, tmp_path):
        ham_path = self.write_hamiltonian(runner, fixtures_dir, tmp_path)
        circuit = tmp_path / "c.json"
        circuit.write_text(
            json.dumps({"reference": "1100", "generators": [{"pauli": "XY", "tau": 0.1}]})
        )
        result = runner.invoke(main, ["measure", str(ham_path), "--circuit", str(circuit)])
        assert result.exit_code == 4, result.output


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
