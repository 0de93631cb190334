"""Spans around the program's layer functions, recorded from outside.

`install` replaces each traced function at the name its caller binds: the
solver imports `expectation`, `apply_rotation_sequence` and `dress_sequence`
directly, so those are wrapped in `solver`'s namespace as well as (where the
CLI calls them) in their own module's. Spans stay in memory and are written
out once, when the command ends. Times come from `time.perf_counter`, which
on Linux reads CLOCK_MONOTONIC and so is comparable across processes.

`layer_metrics` turns one traced command's spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, work count taken from args or result)
# The work count is the layer's natural unit of work for one call.
TRACED = [
    ("solver", "qcc_run", "solver.qcc_run", lambda a, r: r.parameters_used),
    ("solver", "screen_generators", "solver.screen", lambda a, r: len(r)),
    ("solver", "optimize_amplitudes", "solver.optimize", None),
    ("solver", "apply_rotation_sequence", "simulator.apply_rotation_sequence", None),
    ("solver", "expectation", "simulator.expectation", lambda a, r: len(a[1])),
    ("solver", "dress_sequence", "pauli.dress", lambda a, r: len(r)),
    ("simulator", "expectation", "simulator.expectation", lambda a, r: len(a[1])),
    ("simulator", "apply_rotation_sequence", "simulator.apply_rotation_sequence", None),
    ("simulator", "group_qwc", "simulator.group_qwc", lambda a, r: len(r.groups)),
    ("simulator", "sample_energy", "simulator.sample_energy", None),
    ("simulator", "per_group_error", "simulator.per_group_error", None),
    ("chem", "parse_fcidump", "chem.parse_fcidump", None),
    ("chem", "cas_reduce", "chem.cas_reduce", None),
    ("chem", "build_active_hamiltonian", "chem.build_active_hamiltonian", None),
    ("chem", "map_operator", "chem.map_operator", None),
    ("oracle", "exact_ground", "oracle.exact_ground", None),
]


class Tracer:
    """Collects spans; the parent comes from a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.label = ""
        return local

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, name: str, start: float, end: float, work=None) -> None:
        """Add a span that was timed by the caller (no parent, no label)."""
        self.spans.append(
            (self._new_id(), name, start, end, 0, threading.get_ident(), "", work)
        )

    def wrap(self, fn, name: str, work=None, label_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if label_of is not None:
                state.label = label_of(args)
            span_id = tracer._new_id()
            parent = state.stack[-1]
            state.stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                state.stack.pop()
                count = None
                if work is not None and result is not None:
                    count = work(args, result)
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(),
                     state.label, count)
                )

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the TRACED functions and two CLI helpers in {name: module}."""
        for module_name, attr, span_name, work in TRACED:
            module = modules[module_name]
            setattr(module, attr, self.wrap(getattr(module, attr), span_name, work))
        # CLI spans carry the geometry label to the layer spans under them.
        # The solve gets its manifest entry; the shot pass rebuilds each
        # geometry from its FCIDUMP, which the input generator names
        # <label>.fcidump.
        cli = modules["cli"]
        cli._run_geometry = self.wrap(
            cli._run_geometry, "cli.geometry", label_of=lambda args: args[0].label
        )
        cli._build_problem = self.wrap(
            cli._build_problem, "cli.build_problem",
            label_of=lambda args: Path(args[0]).stem,
        )

    def to_json(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "thread", "label", "work")
        return [dict(zip(keys, span)) for span in self.spans]


RATIO_METRICS = {
    "solver.evals_per_optimize", "solver.accept_ratio", "cli.thread_overlap",
    "trace.coverage",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIO_METRICS else "count"


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _is_cli(name: str) -> bool:
    return name.startswith("cli.")


def layer_metrics(spans: list[dict], t_start: float, t_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced command run from t_start to t_end."""
    wall = t_end - t_start
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] += s["end"] - s["start"]

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work_sum = defaultdict(float)
    work_max = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        total[name] += dur
        self_time[name] += dur - child_time[s["id"]]
        calls[name] += 1
        if s["work"] is not None:
            work_sum[name] += s["work"]
            work_max[name] = max(work_max[name], s["work"])

    def under(span: dict, ancestor: str) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == ancestor:
                return True
            parent = by_id.get(parent["parent"])
        return False

    evals_in_optimize = sum(
        1 for s in spans
        if s["name"] == "simulator.expectation" and under(s, "solver.optimize")
    )
    # A layer span is top-level on its thread when no other layer span
    # encloses it: its parent is a CLI span or none.
    top_level = [
        (s["start"], s["end"]) for s in spans
        if not _is_cli(s["name"])
        and _is_cli(by_id.get(s["parent"], {"name": "cli."})["name"])
    ]
    imports = [(s["start"], s["end"]) for s in spans if s["name"] == "cli.import"]
    accounted = _union_length(top_level + imports)
    chem = [n for n in total if n.startswith("chem.")]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "simulator.expectation_s": self_time["simulator.expectation"],
        "simulator.expectation_calls": calls["simulator.expectation"],
        "simulator.expectation_term_evals": work_sum["simulator.expectation"],
        "simulator.group_qwc_s": total["simulator.group_qwc"],
        "simulator.qwc_groups": work_sum["simulator.group_qwc"],
        "simulator.sample_energy_s": total["simulator.sample_energy"],
        "solver.qcc_run_s": total["solver.qcc_run"],
        "solver.optimize_s": self_time["solver.optimize"],
        "solver.optimize_calls": calls["solver.optimize"],
        "solver.evals_per_optimize": ratio(
            evals_in_optimize, calls["solver.optimize"]
        ),
        "solver.screen_s": total["solver.screen"],
        "solver.screen_calls": calls["solver.screen"],
        "solver.candidates": work_sum["solver.screen"],
        "solver.accept_ratio": ratio(
            work_sum["solver.qcc_run"], work_sum["solver.screen"]
        ),
        "pauli.dress_s": total["pauli.dress"],
        "pauli.dress_calls": calls["pauli.dress"],
        "pauli.terms_max": work_max["pauli.dress"],
        "oracle.exact_ground_s": total["oracle.exact_ground"],
        "oracle.calls": calls["oracle.exact_ground"],
        "chem.build_s": sum(total[n] for n in chem),
        "chem.build_calls": calls["chem.parse_fcidump"],
        "cli.import_s": total["cli.import"],
        "cli.self_s": wall - accounted,
        "cli.thread_overlap": ratio(total["solver.qcc_run"], wall),
        "trace.coverage": ratio(accounted, wall),
    }
