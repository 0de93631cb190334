"""Command-line front end: ham, qcc, uccsd, fci, extrapolate, measure, pes.

Exit codes: 0 success, 2 input parse failure, 3 numerical failure,
4 configuration failure. All outputs are JSON or CSV with a schema tag;
energies are printed in Hartree with 10 decimal places. Reruns with the
same inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

import click
import numpy as np

from . import __version__, chem, oracle, simulator, solver
from .pauli import PauliString, QubitHamiltonian, _json
from .solver import QccConfig, QccTrace, _json_rotations

EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4


class ConfigError(Exception):
    """User-supplied settings (flags, manifest, CAS spec) are unusable."""


def _die(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        _die(EXIT_CONFIG, f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _die(EXIT_PARSE, f"{path}: not UTF-8 text: {exc}")


def _refuse_constant(token: str) -> NoReturn:
    raise ValueError(f"{token} is not a JSON value")


def _load_json(path: Path) -> dict:
    try:
        data = json.loads(_read_text(path), parse_constant=_refuse_constant)
    except ValueError as exc:  # a JSONDecodeError, or a NaN or Infinity token
        _die(EXIT_PARSE, f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        _die(EXIT_PARSE, f"{path}: top level must be a JSON object")
    return data


def _parse(path: Path, build, data: dict):
    """build(data), a missing key or an unusable value exiting as a parse error."""
    try:
        return build(data)
    except KeyError as exc:
        _die(EXIT_PARSE, f"{path}: malformed content: missing key {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        _die(EXIT_PARSE, f"{path}: malformed content: {exc!r}")


def _check_output(*paths: Path | None) -> None:
    """Exit 4 if two given paths name one file, a path is a directory or its
    nearest existing ancestor is not. Creates nothing, so a run refused later
    leaves no directory; each file's directories are made when it is written."""
    given = list(filter(None, paths))
    if len({path.resolve() for path in given}) < len(given):
        _die(EXIT_CONFIG, f"cannot write {' and '.join(map(str, given))}: they name one file")
    for path in given:
        if path.is_dir():
            _die(EXIT_CONFIG, f"cannot write {path}: it is a directory")
        ancestor = next(p for p in path.parents if p.exists())
        if not ancestor.is_dir():
            _die(EXIT_CONFIG, f"cannot write {path}: {ancestor} is not a directory")


def _check_sampling(shots: int | None, seed: int | None) -> None:
    """Exit 4 on a shot count or seed that the shot emulation would refuse."""
    try:
        simulator._check_sampling(shots, seed)
    except ValueError as exc:
        _die(EXIT_CONFIG, str(exc))


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        _die(EXIT_CONFIG, f"cannot write {path}: {exc}")


def _json_text(payload: dict) -> str:
    """payload as strict JSON; a NaN or an infinity in it raises ValueError."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a result is NaN or infinite, which JSON cannot hold") from None


def _write_json(path: Path | None, payload: dict) -> None:
    """payload to path, or stdout if None; exit 3, writing nothing, if it is not finite."""
    try:
        text = _json_text(payload)
    except ValueError as exc:
        _die(EXIT_NUMERIC, str(exc))
    if path is None:
        click.echo(text, nl=False)
    else:
        _write_text(path, text)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buffer.getvalue())


def _fmt(value: float) -> str:
    # adding 0.0 after rounding turns -0.0 into 0.0
    return f"{round(value, 10) + 0.0:.10f}"


def _parse_window(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise ConfigError(f"window must be comma-separated integers, got {text!r}")


@dataclass(frozen=True)
class GeometryProblem:
    """Everything one geometry needs downstream of the FCIDUMP parse."""

    problem: chem.ActiveSpaceProblem
    hamiltonian: QubitHamiltonian
    reference: str
    mapping: str
    source: str


def _build_problem(
    fcidump_path: Path,
    n_active_electrons: int | None,
    n_active_orbitals: int | None,
    window: Sequence[int] | None,
    mapping: str,
) -> GeometryProblem:
    """Parse and reduce one FCIDUMP file; raises FcidumpError / ConfigError /
    ValueError for parse, configuration, and numeric problems respectively."""
    try:
        text = fcidump_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise chem.FcidumpError(f"not UTF-8 text: {exc}") from exc
    ints = chem.parse_fcidump(text)
    try:
        mapping = chem.normalize_mapping(mapping)
        prob = chem.cas_reduce(
            ints, window, n_active_electrons, n_active_orbitals=n_active_orbitals
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fermion = chem.build_active_hamiltonian(prob)
    ham = chem.map_operator(fermion, mapping)
    reference = chem.hf_bitstring(
        prob.n_active_electrons, prob.n_spin_orbitals, mapping
    )
    return GeometryProblem(
        problem=prob,
        hamiltonian=ham,
        reference=reference,
        mapping=mapping,
        source=str(fcidump_path),
    )


def _build_problem_or_die(
    fcidump_path: Path,
    n_active_electrons: int | None,
    n_active_orbitals: int | None,
    window: str | None,
    mapping: str,
) -> GeometryProblem:
    """_build_problem from the CAS options, each failure mapped to its exit code."""
    try:
        return _build_problem(
            fcidump_path,
            n_active_electrons,
            n_active_orbitals,
            _parse_window(window),
            mapping,
        )
    except OSError as exc:
        _die(EXIT_CONFIG, f"cannot read {fcidump_path}: {exc}")
    except chem.FcidumpError as exc:
        _die(EXIT_PARSE, f"{fcidump_path}: {exc}")
    except ConfigError as exc:
        _die(EXIT_CONFIG, f"{fcidump_path}: {exc}")
    except ValueError as exc:
        _die(EXIT_NUMERIC, f"{fcidump_path}: {exc}")


def _ground_energy(geom: GeometryProblem) -> oracle.GroundState:
    h = geom.hamiltonian
    basis = oracle.sector_basis(geom.mapping, h.n_qubits, geom.problem.n_active_electrons)
    return oracle.exact_ground(h, basis)


def _hamiltonian_payload(geom: GeometryProblem) -> dict:
    return {
        "schema": "qubit-hamiltonian/1",
        **geom.hamiltonian.to_json_dict(),
        "metadata": {
            "mapping": geom.mapping,
            "e_inactive": geom.problem.e_inactive,
            "e_nuclear": geom.problem.e_nuclear,
            "n_active_orbitals": geom.problem.n_active_orbitals,
            "n_active_electrons": geom.problem.n_active_electrons,
            "reference": geom.reference,
            "source": geom.source,
        },
    }


@click.group()
@click.version_option(version=__version__, prog_name="qccvqe")
@click.pass_context
def main(ctx: click.Context) -> None:
    """Variational eigensolver with gradient-screened Pauli entanglers."""
    # every command refuses a NaN or infinite result where it writes it, so
    # numpy's overflow warnings on the way there are noise
    ctx.with_resource(np.errstate(over="ignore", invalid="ignore"))


_cas_options = [
    click.option(
        "--active-electrons", "-e", type=int, default=None,
        help="Electrons in the active space (default: all).",
    ),
    click.option(
        "--active-orbitals", "-o", "n_orbitals", type=int, default=None,
        help="Spatial orbitals in the active space (default: all after the frozen pairs).",
    ),
    click.option(
        "--window", default=None,
        help="Explicit active orbital indices, comma-separated (0-based).",
    ),
    click.option(
        "--mapping", default="jordan_wigner", show_default=True,
        help="Fermion-to-qubit mapping: jordan_wigner (jw) or parity.",
    ),
]


def _with_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, path_type=Path))
@_with_options(_cas_options)
@click.option("--output", type=click.Path(path_type=Path), default=None,
              help="Output JSON path (default: stdout).")
def ham(fcidump, active_electrons, n_orbitals, window, mapping, output):
    """Map an FCIDUMP file to an active-space qubit Hamiltonian."""
    _check_output(output)
    geom = _build_problem_or_die(fcidump, active_electrons, n_orbitals, window, mapping)
    _write_json(output, _hamiltonian_payload(geom))
    if output is not None:
        click.echo(
            f"{geom.hamiltonian.n_qubits} qubits, {len(geom.hamiltonian)} terms, "
            f"e_inactive {_fmt(geom.problem.e_inactive)}, "
            f"e_nuclear {_fmt(geom.problem.e_nuclear)} -> {output}"
        )


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, path_type=Path))
@_with_options(_cas_options)
@click.option("--full-spectrum", is_flag=True,
              help="Diagonalize without the particle-number restriction.")
@click.option("--output", type=click.Path(path_type=Path), default=None)
def fci(fcidump, active_electrons, n_orbitals, window, mapping, full_spectrum, output):
    """Exact ground energy of the mapped active-space Hamiltonian."""
    _check_output(output)
    geom = _build_problem_or_die(fcidump, active_electrons, n_orbitals, window, mapping)
    try:
        if full_spectrum:
            ground = oracle.exact_ground(geom.hamiltonian)
        else:
            ground = _ground_energy(geom)
    except ValueError as exc:
        _die(EXIT_NUMERIC, str(exc))
    e_total = ground.energy + geom.problem.e_inactive + geom.problem.e_nuclear
    payload = {
        "schema": "fci-result/1",
        "n_qubits": geom.hamiltonian.n_qubits,
        "mapping": geom.mapping,
        "sector_restricted": not full_spectrum,
        "e_active": ground.energy,
        "e_inactive": geom.problem.e_inactive,
        "e_nuclear": geom.problem.e_nuclear,
        "e_total": e_total,
        "degenerate": ground.degenerate,
        "residual": ground.residual,
    }
    _write_json(output, payload)
    if output is not None:
        click.echo(f"E_total {_fmt(e_total)} -> {output}")


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, path_type=Path))
@_with_options(_cas_options)
@click.option("--optimize", "run_opt", is_flag=True,
              help="Variationally optimize the amplitudes, on the determinants "
                   "the excitations reach; CAS(6,6) takes seconds.")
@click.option("--output", type=click.Path(path_type=Path), default=None)
def uccsd(fcidump, active_electrons, n_orbitals, window, mapping, run_opt, output):
    """Count (and optionally optimize) single-Trotter UCCSD parameters."""
    _check_output(output)
    geom = _build_problem_or_die(fcidump, active_electrons, n_orbitals, window, mapping)
    prob = geom.problem
    exc_list = chem.uccsd_excitations(prob.n_active_electrons, prob.n_active_orbitals)
    payload = {
        "schema": "uccsd-report/1",
        "n_active_electrons": prob.n_active_electrons,
        "n_active_orbitals": prob.n_active_orbitals,
        "singles": len(exc_list.singles),
        "doubles": len(exc_list.doubles),
        "parameter_count": exc_list.parameter_count,
    }
    if run_opt:
        try:
            generators = chem.uccsd_generator_paulis(
                exc_list, prob.n_spin_orbitals, geom.mapping
            )
            energy, amplitudes = solver.optimize_uccsd(
                geom.hamiltonian, geom.reference, generators
            )
        except ValueError as exc:
            _die(EXIT_NUMERIC, str(exc))
        payload["optimized"] = {
            "e_active": energy,
            "e_total": energy + prob.e_inactive + prob.e_nuclear,
            "amplitudes": amplitudes,
            "note": "single Trotter step, exact coordinate sweeps",
        }
    _write_json(output, payload)
    if output is not None:
        click.echo(f"parameters {exc_list.parameter_count} -> {output}")


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    fcidump: Path


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    n_active_electrons: int | None
    n_active_orbitals: int | None
    window: tuple[int, ...] | None
    mapping: str
    output_dir: Path
    config: QccConfig
    shots: int | None
    seed: int


def _manifest_int(data: Mapping, key: str) -> int | None:
    return None if data.get(key) is None else _json(int, data[key])


def _load_manifest(
    path: Path,
    output_override: Path | None,
    config_overrides: Mapping[str, object | None],
) -> Manifest:
    data = _load_json(path)
    try:
        schema = data.get("schema", "qcc-manifest/1")
        if schema != "qcc-manifest/1":
            raise ConfigError(f"unsupported manifest schema {schema!r}")
        raw_entries = _json(list, data.get("geometries", []))
        if not raw_entries:
            raise ConfigError("manifest lists no geometries")
        entries = []
        seen = set()
        for item in raw_entries:
            label = _json(str, item["label"])
            if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
                raise ConfigError(f"geometry label {label!r} is not a plain file name")
            if label in seen:
                raise ConfigError(f"duplicate geometry label {label!r}")
            seen.add(label)
            fcid = path.parent / _json(str, item["fcidump"])
            if not fcid.exists() or fcid.is_dir():
                raise ConfigError(f"geometry {label!r}: no file at {fcid}")
            entries.append(ManifestEntry(label=label, fcidump=fcid))
        window = data.get("orbital_window")
        if window is not None:
            window = [_json(int, i) for i in _json(list, window)]
        n_active_electrons = _manifest_int(data, "active_electrons")
        n_active_orbitals = _manifest_int(data, "active_orbitals")
        chem._check_active(window, n_active_orbitals, n_active_electrons)
        seed = _manifest_int(data, "seed")
        mapping = chem.normalize_mapping(data.get("mapping", "jordan_wigner"))
        cfg_data = dict(_json(dict, data.get("qcc", {})))
        # qcc.seed is the last-resort shot seed; the solver itself draws nothing.
        qcc_seed = _manifest_int(cfg_data, "seed")
        cfg_data.pop("seed", None)
        cfg_data.update((k, v) for k, v in config_overrides.items() if v is not None)
        config = QccConfig.from_mapping(cfg_data)
        shots = _manifest_int(data, "shots")
        simulator._check_sampling(shots, seed, qcc_seed)
        out_dir = path.parent / _json(str, data.get("output_dir", "qcc-out"))
        return Manifest(
            entries=tuple(sorted(entries, key=lambda e: e.label)),
            n_active_electrons=n_active_electrons,
            n_active_orbitals=n_active_orbitals,
            window=tuple(window) if window is not None else None,
            mapping=mapping,
            output_dir=output_override or out_dir,
            config=config,
            shots=shots,
            seed=next(s for s in (seed, qcc_seed, 7) if s is not None),
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        _die(EXIT_CONFIG, f"{path}: {exc}")


def _run_geometry(
    entry: ManifestEntry, manifest: Manifest, shots: int | None = None, seed: int = 0
) -> dict[str, str]:
    """Solve one geometry, write its trace and, with shots, its shot estimate.

    Returns the geometry's summary row; a failed build or solve gives an
    error row and a message on stderr instead of a trace.
    """
    for kind in ("trace", "shots"):  # an earlier run's, gone even if this run fails
        stale = manifest.output_dir / f"{entry.label}.{kind}.json"
        try:
            stale.unlink(missing_ok=True)
        except OSError as exc:
            _die(EXIT_CONFIG, f"cannot remove {stale}: {exc}")
    try:
        geom = _build_problem(
            entry.fcidump,
            manifest.n_active_electrons,
            manifest.n_active_orbitals,
            manifest.window,
            manifest.mapping,
        )
        # the oracle's width check first, so a geometry past it is not solved
        ground = _ground_energy(geom)
        trace = solver.qcc_run(
            geom.hamiltonian,
            geom.reference,
            manifest.config,
            e_inactive=geom.problem.e_inactive,
            e_nuclear=geom.problem.e_nuclear,
        )
        text = _json_text(
            trace.to_json_dict()
            | {"label": entry.label, "mapping": geom.mapping, "e_fci_active": ground.energy}
        )
    except (OSError, ValueError, ConfigError) as exc:
        click.echo(f"geometry {entry.label}: {exc}", err=True)
        return _error_row(entry.label, str(exc))
    e_qcc = solver.total_energy(trace)
    e_fci = ground.energy + geom.problem.e_inactive + geom.problem.e_nuclear
    _write_text(manifest.output_dir / f"{entry.label}.trace.json", text)
    row = {
        "geometry": entry.label,
        "E_qcc_total": _fmt(e_qcc),
        "E_fci_total": _fmt(e_fci),
        "delta": _fmt(e_qcc - e_fci),
        "iterations": str(len(trace.iterations)),
        "parameters_used": str(trace.parameters_used),
        "status": "ok",
    }
    click.echo(
        f"{entry.label}: E_qcc {row['E_qcc_total']} E_fci {row['E_fci_total']} "
        f"delta {row['delta']} ({row['iterations']} iterations)"
    )
    if shots:
        try:
            estimate = _json_text(_measure_state(
                geom.hamiltonian, trace.reference, trace.all_generators, shots, seed
            ))
        except ValueError as exc:
            click.echo(f"geometry {entry.label}: shot emulation: {exc}", err=True)
        else:
            _write_text(manifest.output_dir / f"{entry.label}.shots.json", estimate)
    return row


_SUMMARY_COLUMNS = [
    "geometry", "E_qcc_total", "E_fci_total", "delta",
    "iterations", "parameters_used", "status",
]


def _error_row(label: str, message: str) -> dict[str, str]:
    row = dict.fromkeys(_SUMMARY_COLUMNS, "nan")
    row.update(geometry=label, iterations="0", parameters_used="0")
    return row | {"status": f"error: {message}"}


def _read_summary(path: Path) -> dict[str, dict[str, str]]:
    """Rows of an existing summary CSV by geometry; exits 2 or 4 if unusable."""
    existing: dict[str, dict[str, str]] = {}
    if not path.exists():
        return existing
    reader = csv.DictReader(io.StringIO(_read_text(path)))
    try:
        if reader.fieldnames is not None and "geometry" not in reader.fieldnames:
            raise csv.Error(f"no geometry column in {reader.fieldnames}")
        for row in reader:
            if row["geometry"] is None:
                raise csv.Error(f"row without a geometry: {row}")
            existing[row["geometry"]] = {key: row.get(key, "") for key in _SUMMARY_COLUMNS}
    except csv.Error as exc:
        _die(EXIT_PARSE, f"{path}: malformed summary: {exc}")
    return existing


def _merge_summary(
    path: Path, existing: dict[str, dict[str, str]], rows: list[dict[str, str]]
) -> None:
    """Rewrite the summary CSV, replacing rows whose geometry reappears."""
    for row in rows:
        existing[row["geometry"]] = row
    _write_csv(
        path,
        _SUMMARY_COLUMNS,
        ([existing[label][key] for key in _SUMMARY_COLUMNS] for label in sorted(existing)),
    )


def _run_manifest(
    manifest: Manifest, summary_name: str, shots: int | None = None, seed: int = 0
) -> None:
    """Run every geometry in label order, then write the summary CSV.

    An existing summary that cannot be merged into, or an output directory
    that cannot be made, exits before any solve.
    Exits 3 (numeric) once the summary is written if every geometry failed.
    """
    out_dir = manifest.output_dir
    existing = _read_summary(out_dir / summary_name)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _die(EXIT_CONFIG, f"cannot create output directory {out_dir}: {exc}")
    rows = [_run_geometry(entry, manifest, shots, seed) for entry in manifest.entries]
    _merge_summary(out_dir / summary_name, existing, rows)
    click.echo(f"summary -> {out_dir / summary_name}")
    if all(row["status"] != "ok" for row in rows):
        _die(EXIT_NUMERIC, "every geometry failed")


_qcc_overrides = [
    click.option("--generators-per-iteration", "-n", type=int, default=None,
                 help="Override the manifest's generator count per iteration."),
    click.option("--max-iterations", type=int, default=None),
    click.option("--energy-tolerance", type=float, default=None),
]


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, path_type=Path))
@_with_options(_qcc_overrides)
@click.option("--output-dir", type=click.Path(path_type=Path), default=None,
              help="Override the manifest's output directory.")
def qcc(manifest_path, output_dir, **overrides):
    """Run the iterative solver for every geometry in a manifest."""
    _run_manifest(_load_manifest(manifest_path, output_dir, overrides), "summary.csv")


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, path_type=Path))
@_with_options(_qcc_overrides)
@click.option("--output-dir", type=click.Path(path_type=Path), default=None)
@click.option("--shots", type=int, default=None,
              help="Also emulate finite-shot measurement of each final state.")
@click.option("--seed", type=int, default=None,
              help="Shot seed (overrides the manifest's).")
def pes(manifest_path, output_dir, shots, seed, **overrides):
    """Composite potential-energy-surface sweep: QCC + exact reference per point."""
    _check_sampling(shots, seed)
    manifest = _load_manifest(manifest_path, output_dir, overrides)
    _run_manifest(
        manifest,
        "pes.csv",
        shots if shots is not None else manifest.shots,
        seed if seed is not None else manifest.seed,
    )


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, path_type=Path))
@click.option("--discard", type=int, default=5, show_default=True,
              help="Leading iterations excluded from the fit.")
@click.option("--window", type=int, default=35, show_default=True,
              help="Number of iterations fitted after the discard.")
@click.option("--threshold", "thresholds", type=float, multiple=True,
              default=(1.6e-3, 1.6e-4), show_default=True,
              help="Energy-difference thresholds to locate on the fit.")
@click.option("--output", type=click.Path(path_type=Path), default=None)
@click.option("--curve", type=click.Path(path_type=Path), default=None,
              help="Also write the fitted convergence curve as CSV.")
def extrapolate(trace_path, discard, window, thresholds, output, curve):
    """Fit the energy-difference decay of a trace and extrapolate."""
    trace = _parse(trace_path, QccTrace.from_json_dict, _load_json(trace_path))
    _check_output(output, curve)
    try:
        result = solver.extrapolate(trace, discard=discard, window=window, thresholds=thresholds)
    except solver.FitRequestError as exc:
        _die(EXIT_CONFIG, str(exc))
    except solver.ExtrapolationError as exc:
        _die(EXIT_NUMERIC, str(exc))
    crossings = {f"{t:.1e}": i for t, i in sorted(result.iter_at_threshold.items())}
    if len(crossings) < len(result.iter_at_threshold):
        _die(EXIT_CONFIG, f"thresholds {sorted(result.iter_at_threshold)} share one 2-digit key")
    energies = trace.energies
    try:  # the fit extends back to iteration 1, where float64 may overflow
        rows = [
            [i, *map(_fmt, (energies[i], result.fitted_energy(i),
                            energies[i - 1] - energies[i], result.fitted_difference(i)))]
            for i in range(1, len(energies))
        ] if curve is not None else []
    except OverflowError:
        _die(EXIT_NUMERIC, "the fitted curve overflows float64 on this trace")
    payload = {
        "schema": "extrapolation/1",
        "a": result.a,
        "b": result.b,
        "e0_estimate": result.e0_estimate,
        "iter_at_threshold": crossings,
        "fit_window": {"discard": result.fit_window[0], "window": result.fit_window[1]},
        "residual": result.residual,
    }
    _write_json(output, payload)
    if curve is not None:
        header = ["iteration", "energy", "fitted_energy", "difference", "fitted_difference"]
        _write_csv(curve, header, rows)
    if output is not None:
        click.echo(f"e0 {_fmt(result.e0_estimate)} -> {output}")


def _circuit_of(data: dict) -> tuple[str, Sequence[tuple[PauliString, float]]]:
    """Reference label and rotations of a qcc trace (any object with an
    iterations or a schema key), held to its own n_qubits, or of a bare
    circuit file, whose width measure checks against the Hamiltonian."""
    if "iterations" in data or "schema" in data:
        trace = QccTrace.from_json_dict(data)
        return trace.reference, trace.all_generators
    simulator.basis_index(data["reference"])
    return data["reference"], _json_rotations(data.get("generators", []))


def _metadata_reference(data: dict) -> str | None:
    """Reference label in a Hamiltonian file's metadata, as wide as the file; None if absent."""
    reference = _json(dict, data.get("metadata", {})).get("reference")
    if reference is not None:
        simulator.basis_index(reference, _json(int, data["n_qubits"]))
    return reference


def _measure_state(
    ham: QubitHamiltonian,
    reference: str,
    generators: Sequence[tuple[PauliString, float]],
    shots: int,
    seed: int,
) -> dict:
    state = simulator.prepare_basis_state(ham.n_qubits, reference)
    state = simulator.apply_rotation_sequence(state, generators)
    grouping = simulator.group_qwc(ham)
    estimate = simulator.sample_energy(state, grouping, shots, seed)
    # independent of the sampled distributions, so a wrong basis change shows
    exact = simulator.expectation(state, ham)
    groups = [
        {
            "id": gid,
            "basis": group.shared_basis,
            "estimate": sampled,
            "exact": group_exact,
            "difference": difference,
            "shots": group_shots,
        }
        for (gid, sampled, group_shots), group_exact, (_, difference), group in zip(
            estimate.per_group,
            estimate.group_exact,
            simulator.per_group_error(estimate),
            grouping.groups,
        )
    ]
    return {
        "schema": "shot-estimate/1",
        "energy": estimate.energy,
        "exact": exact,
        "difference": exact - estimate.energy,
        "std_error": estimate.std_error,
        "constant": estimate.constant,
        "shots_per_group": estimate.shots,
        "n_groups": len(grouping.groups),
        "seed": estimate.seed,
        "rng": estimate.rng,
        "groups": groups,
    }


@main.command()
@click.argument("hamiltonian_path", type=click.Path(exists=True, path_type=Path))
@click.option("--circuit", type=click.Path(exists=True, path_type=Path), default=None,
              help="Trace or circuit JSON supplying reference and rotations "
                   "(default: bare reference from the Hamiltonian metadata).")
@click.option("--shots", type=int, default=10000, show_default=True,
              help="Measurement shots per commuting group.")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--output", type=click.Path(path_type=Path), default=None)
@click.option("--per-group", type=click.Path(path_type=Path), default=None,
              help="Also write per-group estimates and errors as CSV.")
def measure(hamiltonian_path, circuit, shots, seed, output, per_group):
    """Emulate finite-shot measurement of a prepared state."""
    data = _load_json(hamiltonian_path)
    if data.get("schema") != "qubit-hamiltonian/1":
        _die(EXIT_PARSE, f"{hamiltonian_path}: expected schema qubit-hamiltonian/1")
    ham = _parse(hamiltonian_path, QubitHamiltonian.from_json_dict, data)
    if circuit is not None:
        reference, generators = _parse(circuit, _circuit_of, _load_json(circuit))
    else:
        reference = _parse(hamiltonian_path, _metadata_reference, data)
        if reference is None:
            _die(EXIT_CONFIG, "no --circuit and no reference in the Hamiltonian metadata")
        generators = []
    _check_sampling(shots, seed)
    widths = {len(reference)} | {p.n_qubits for p, _ in generators}
    if widths != {ham.n_qubits}:
        _die(EXIT_CONFIG, f"circuit on {sorted(widths)} qubits, Hamiltonian on {ham.n_qubits}")
    _check_output(output, per_group)
    try:
        payload = _measure_state(ham, reference, generators, shots, seed)
    except ValueError as exc:
        _die(EXIT_NUMERIC, str(exc))
    _write_json(output, payload)
    if per_group is not None:
        _write_csv(
            per_group,
            ["group", "shared_basis", "estimate", "exact", "difference"],
            (
                [g["id"], g["basis"]]
                + [_fmt(g[key]) for key in ("estimate", "exact", "difference")]
                for g in payload["groups"]
            ),
        )
    if output is not None:
        click.echo(
            f"E_sampled {_fmt(payload['energy'])} "
            f"E_exact {_fmt(payload['exact'])} -> {output}"
        )


if __name__ == "__main__":
    main()
