"""Spans around calls into thermosci's public functions, and the layer metrics.

Nothing in the program is changed: while a :class:`Tracer` is installed, the
public functions named in :data:`SPANS` and :data:`LEAVES` are replaced, in
every ``thermosci`` module that refers to them, by wrappers that time each
call. Spans are kept in memory and written out as JSON lines afterwards.

Two kinds of record:

* a *span* (name, start, end, parent) for each call of a function in
  ``SPANS``; calls are a few per job, so each is kept;
* a *leaf* for the hot per-node functions in ``LEAVES`` (policy ``choose``,
  ``expected_information_gain``), called up to ~10^5 times per job. Leaf
  calls are summed into the enclosing span as ``[calls, seconds]`` so the
  trace stays small; they never nest, so their sum is the time they cover.

A span's self time is its duration minus the part of it its child spans and
leaves cover.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name -> (module, attribute) of the wrapped public function
SPANS = {
    "cli.main": ("thermosci.cli", "main"),
    "cycle_sim.run_episode": ("thermosci.cycle_sim", "run_episode"),
    "bounds.bound_report": ("thermosci.bounds", "bound_report"),
    "verify.run_suite": ("thermosci.verify", "run_suite"),
    "verify.suite.info": ("thermosci.verify", "verify_info"),
    "verify.suite.cycle": ("thermosci.verify", "verify_cycle"),
    "verify.suite.bounds": ("thermosci.verify", "verify_bounds"),
    "verify.suite.toy": ("thermosci.verify", "verify_toy"),
    "toy_model.sweep": ("thermosci.toy_model", "sweep"),
    "toy_model.zero_contours": ("thermosci.toy_model", "zero_contours"),
    "toy_model.write_grid_csv": ("thermosci.toy_model", "write_grid_csv"),
    "toy_model.read_grid_csv": ("thermosci.toy_model", "read_grid_csv"),
    "render.render_heatmap_svg": ("thermosci.render", "render_heatmap_svg"),
}

#: leaf name -> [(module, attribute)]; ``Class.method`` wraps that method
LEAVES = {
    "cycle_sim.policy.choose": [("thermosci.cycle_sim", f"{cls}.choose") for cls in
                                ("FixedSequence", "RoundRobin", "RandomPolicy",
                                 "GreedyInfoMax")],
    "info_core.expected_information_gain": [("thermosci.info_core",
                                             "expected_information_gain")],
}


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _episode_attrs(args, kwargs, result):
    env = args[0] if args else kwargs["env"]
    summary = result[1]
    attrs = {"mode": summary.mode, "rounds": summary.rounds, "n_outcomes": env.n_outcomes,
             "cum_info": summary.cumulative_info}
    if summary.mode == "sampled":
        attrs["trials"] = summary.trials
        attrs["se"] = summary.cumulative_info_se or 0.0
    return attrs


#: span name -> attributes recorded from (args, kwargs, return value)
_ATTRS = {
    "cli.main": lambda a, k, r: {"rc": r},
    "cycle_sim.run_episode": _episode_attrs,
    "verify.run_suite": lambda a, k, r: {"checks": len(r["checks"])},
    "toy_model.sweep": lambda a, k, r: {"cells": int(r.delta.size)},
    "toy_model.zero_contours": lambda a, k, r: {
        "cells": int(a[0].delta.size), "points": sum(len(line) for line in r)},
    "toy_model.write_grid_csv": lambda a, k, r: {"bytes": _file_bytes(a[1])},
    "toy_model.read_grid_csv": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "render.render_heatmap_svg": lambda a, k, r: {"bytes": _file_bytes(a[1])},
}


class Tracer:
    """Collects spans while installed; one tracer per traced stretch of jobs."""

    def __init__(self):
        self.spans: list[dict] = []
        self.orphan_leaves: dict[str, list] = {}
        self.trace_id = None
        self._stack: list[dict] = []
        self._next_id = 0

    def _span_wrapper(self, name, fn):
        attrs_of = _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            rec = {"trace": self.trace_id, "id": self._next_id,
                   "parent": self._stack[-1]["id"] if self._stack else None,
                   "name": name, "start": time.perf_counter(), "end": None,
                   "attrs": {}, "leaves": {}}
            self._next_id += 1
            self._stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(rec)
            if attrs_of is not None:
                rec["attrs"] = attrs_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                leaves = self._stack[-1]["leaves"] if self._stack else self.orphan_leaves
                entry = leaves.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        undo = []
        try:
            for name, (module, attr) in SPANS.items():
                original = getattr(sys.modules[module], attr)
                _replace_everywhere(original, self._span_wrapper(name, original), undo)
            for name, targets in LEAVES.items():
                for module, path in targets:
                    if "." not in path:
                        original = getattr(sys.modules[module], path)
                        _replace_everywhere(original, self._leaf_wrapper(name, original), undo)
                        continue
                    cls_name, attr = path.split(".")
                    owner = getattr(sys.modules[module], cls_name)
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._leaf_wrapper(name, original))
                    undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)


def write_jsonl(path: str, records) -> None:
    """One JSON object per line, so the file can be read back line by line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _replace_everywhere(original, wrapper, undo):
    """Point every thermosci module global (and dispatch dict) at ``wrapper``.

    ``from .x import f`` copies the reference, so patching only the defining
    module would miss callers; ``verify`` also dispatches suites through a
    module-level dict.
    """
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "thermosci" or mod_name.startswith("thermosci.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        undo.append((value, key, original))


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans or its leaves."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _union_length((max(c["start"], lo), min(c["end"], hi))
                                for c in children[s["id"]] if c["end"] > lo and c["start"] < hi)
        covered += sum(dur for _, dur in s["leaves"].values())
        out[s["id"]] = max(0.0, (hi - lo) - covered)
    return out


#: every metric :func:`layer_metrics` reports, 0 where a pass never reached the layer
LAYER_NAMES = (
    "cli.main.self_ms", "cli.main.exit_nonzero",
    "cycle_sim.run_episode.sampled.ms", "cycle_sim.run_episode.sampled.calls",
    "cycle_sim.run_episode.sampled.self_ms", "cycle_sim.sampled.trials",
    "cycle_sim.sampled.us_per_trial", "cycle_sim.sampled.cum_info_se",
    "cycle_sim.run_episode.expected.ms", "cycle_sim.run_episode.expected.calls",
    "cycle_sim.run_episode.expected.self_ms", "cycle_sim.expected.histories",
    "cycle_sim.expected.ns_per_history",
    "cycle_sim.policy.choose.ms", "cycle_sim.policy.choose.calls",
    "bounds.bound_report.ms", "bounds.bound_report.calls",
    "info_core.expected_information_gain.calls",
    "info_core.expected_information_gain.us_per_call",
    "verify.suite.info.ms", "verify.suite.cycle.ms", "verify.suite.bounds.ms",
    "verify.suite.toy.ms", "verify.checks",
    "toy_model.sweep.self_ms", "toy_model.grid_cells", "toy_model.sweep.ns_per_cell",
    "toy_model.zero_contours.ms", "toy_model.zero_contours.ns_per_cell",
    "toy_model.contour_points",
    "toy_model.write_grid_csv.ms", "toy_model.write_grid_csv.mb_per_s",
    "toy_model.csv_bytes",
    "toy_model.read_grid_csv.ms", "toy_model.read_grid_csv.mb_per_s",
    "render.render_heatmap_svg.ms", "render.render_heatmap_svg.mb_per_s",
    "render.svg_bytes",
)

#: file-writing or file-reading spans -> the metric that sums their bytes
_BYTES = {"toy_model.write_grid_csv": "toy_model.csv_bytes",
          "toy_model.read_grid_csv": "_csv_read_bytes",
          "render.render_heatmap_svg": "render.svg_bytes"}


def layer_metrics(spans: list[dict], orphan_leaves: dict | None = None) -> dict[str, float]:
    """Per-layer numbers of one pass of jobs, from its spans."""
    st = self_times(spans)
    m = dict.fromkeys(LAYER_NAMES, 0.0)
    m["_contour_cells"] = m["_csv_read_bytes"] = 0.0
    leaves = defaultdict(lambda: [0, 0.0])
    for calls_dur in [s["leaves"] for s in spans] + [orphan_leaves or {}]:
        for name, (calls, dur) in calls_dur.items():
            leaves[name][0] += calls
            leaves[name][1] += dur
    for s in spans:
        name, a = s["name"], s["attrs"]
        ms = (s["end"] - s["start"]) * 1e3
        self_ms = st[s["id"]] * 1e3
        if name == "cli.main":
            m["cli.main.self_ms"] += self_ms
            m["cli.main.exit_nonzero"] += a["rc"] != 0
        elif name == "cycle_sim.run_episode":
            mode = a["mode"]
            m[f"cycle_sim.run_episode.{mode}.ms"] += ms
            m[f"cycle_sim.run_episode.{mode}.calls"] += 1
            m[f"cycle_sim.run_episode.{mode}.self_ms"] += self_ms
            if mode == "sampled":
                m["cycle_sim.sampled.trials"] += a["trials"]
                # the least precise sampled job of the pass
                m["cycle_sim.sampled.cum_info_se"] = max(m["cycle_sim.sampled.cum_info_se"],
                                                         a["se"])
            else:
                m["cycle_sim.expected.histories"] += a["n_outcomes"] ** a["rounds"]
        elif name == "bounds.bound_report":
            m["bounds.bound_report.ms"] += ms
            m["bounds.bound_report.calls"] += 1
        elif name == "verify.run_suite":
            m["verify.checks"] += a["checks"]
        elif name.startswith("verify.suite."):
            m[f"{name}.ms"] += ms
        elif name == "toy_model.sweep":
            m["toy_model.sweep.self_ms"] += self_ms
            m["toy_model.grid_cells"] += a["cells"]
        elif name == "toy_model.zero_contours":
            m["toy_model.zero_contours.ms"] += ms
            m["_contour_cells"] += a["cells"]
            m["toy_model.contour_points"] += a["points"]
        elif name in _BYTES:
            m[f"{name}.ms"] += ms
            m[_BYTES[name]] += a["bytes"]
    choose_calls, choose_s = leaves["cycle_sim.policy.choose"]
    m["cycle_sim.policy.choose.calls"] = choose_calls
    m["cycle_sim.policy.choose.ms"] = choose_s * 1e3
    eig_calls, eig_s = leaves["info_core.expected_information_gain"]
    m["info_core.expected_information_gain.calls"] = eig_calls
    m["info_core.expected_information_gain.us_per_call"] = _ratio(eig_s * 1e6, eig_calls)
    m["cycle_sim.sampled.us_per_trial"] = _ratio(
        m["cycle_sim.run_episode.sampled.ms"] * 1e3, m["cycle_sim.sampled.trials"])
    m["cycle_sim.expected.ns_per_history"] = _ratio(
        m["cycle_sim.run_episode.expected.ms"] * 1e6, m["cycle_sim.expected.histories"])
    m["toy_model.sweep.ns_per_cell"] = _ratio(
        m["toy_model.sweep.self_ms"] * 1e6, m["toy_model.grid_cells"])
    m["toy_model.zero_contours.ns_per_cell"] = _ratio(
        m["toy_model.zero_contours.ms"] * 1e6, m.pop("_contour_cells"))
    # MB/s = (bytes / 1e6) / (ms / 1e3)
    for name, total in _BYTES.items():
        m[f"{name}.mb_per_s"] = _ratio(m[total] * 1e-3, m[f"{name}.ms"])
    m.pop("_csv_read_bytes")
    return {k: float(v) for k, v in m.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each layer metric."""
    return {n: statistics.median(p[n] for p in per_pass) for n in per_pass[0]}
