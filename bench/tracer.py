"""Spans and counters around gridfusion's public functions, from outside.

The engine and harness look up module attributes at call time, so replacing
``gridfusion.<module>.<name>`` (and two methods of ``World`` and ``RngStream``)
with a recording wrapper catches every call without touching the package.
Each span records its name, start, end, parent span and run id, plus the time
its wrapper and hooks took outside the span; spans stay in memory in flat
arrays and are written out once, when tracing ends. A span's self time is
its duration minus its children's spans and their wrapper time, so the
tracer's own work is never counted as the program's.
:meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from collections import Counter

import numpy as np

# (module, owner attribute or None, function attribute, span name)
TRACED = (
    ("mobility", None, "sample_next", "mobility.sample_next"),
    ("mobility", None, "transition_supports", "mobility.transition_supports"),
    ("mobility", "RngStream", "from_seed", "mobility.rng_from_seed"),
    ("fusion", None, "chernoff_fuse", "fusion.chernoff_fuse"),
    ("fusion", None, "metropolis_weights", "fusion.metropolis_weights"),
    ("engine", None, "build_comm_graph", "engine.build_comm_graph"),
    ("engine", None, "hellinger_batch", "metrics.hellinger_batch"),
    ("engine", "World", "tick", "engine.tick"),
    ("engine", "World", "from_config", "engine.world_setup"),
    ("harness", None, "run", "engine.run"),
    ("harness", None, "run_batch", "harness.run_batch"),
    ("harness", None, "emit_outputs", "harness.emit_outputs"),
    ("harness", None, "write_trace_csv", "harness.write_trace_csv"),
    ("harness", None, "write_pmf_csv", "harness.write_pmf_csv"),
    ("spatial", None, "build_grid", "spatial.build_grid"),
    ("spatial", None, "build_transition_matrix", "spatial.build_transition_matrix"),
    ("occupancy", None, "FeatureField", "occupancy.feature_field"),
)

# Count metrics: they must repeat exactly between two traced runs of one seed.
COUNT_METRICS = (
    "engine.runs",
    "engine.ticks",
    "mobility.sample_next_calls",
    "engine.build_comm_graph_calls",
    "engine.encounter_groups",
    "fusion.chernoff_fuse_calls",
    "fusion.metropolis_weights_calls",
    "fusion.identical_input_calls",
    "fusion.informative_fusions",
    "metrics.hellinger_batch_calls",
    "spatial.transition_matrix_bytes",
    "metrics.hellinger_bytes",
    "harness.files_written",
    "harness.bytes_written",
    "harness.pickled_trace_bytes",
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_run = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_wrapper = array("d")
        self.counts = Counter()
        self._stack = []
        self._run_id = -1
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "engine.run": (self._enter_run, self._leave_run),
            "engine.tick": (self._before_tick, self._after_tick),
            "engine.build_comm_graph": (None, self._after_comm_graph),
            "fusion.chernoff_fuse": (None, self._after_fuse),
            "metrics.hellinger_batch": (None, self._after_hellinger),
            "spatial.build_transition_matrix": (None, self._after_matrix),
            "harness.run_batch": (None, self._after_run_batch),
            "harness.emit_outputs": (None, self._after_emit),
        }
        for module_name, owner_name, attr, span in TRACED:
            module = getattr(self.package, module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            before, after = hooks.get(span, (None, None))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__, before, after))
            else:
                wrapped = self._wrap(span, raw, before, after)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every original attribute back and check that it is back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
            if owner.__dict__[attr] is not raw:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, span, fn, before, after):
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            state = before(args) if before else None
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_run.append(self._run_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_wrapper.append(0.0)
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
                self.span_wrapper[index] = start - entered
            if after:
                after(args, result, state)
            self.span_wrapper[index] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks (outside the span, counted as its wrapper time) ------------

    def _enter_run(self, args):
        previous = self._run_id
        self.counts["engine.runs"] += 1
        self._run_id = self.counts["engine.runs"]
        return previous

    def _leave_run(self, args, result, previous):
        self._run_id = previous

    def _before_tick(self, args):
        world = args[0]
        return world.masks.copy(), self.counts["fusion.chernoff_fuse_calls"]

    def _after_tick(self, args, result, state):
        masks_before, fuse_calls_before = state
        if self.counts["fusion.chernoff_fuse_calls"] == fuse_calls_before:
            return
        world = args[0]
        gained = world.masks & ~masks_before
        # sensing sets at most the landing node's bit; any other new bit came
        # from a fusion in this tick
        gained[np.arange(len(world.positions)), world.positions - 1] = False
        self.counts["fusion.informative_fusions"] += int(gained.any(axis=1).sum())

    def _after_comm_graph(self, args, result, state):
        _, groups = result
        self.counts["engine.encounter_groups"] += len(groups)
        self.counts["engine.group_members"] += sum(len(m) for _, m in groups)

    def _after_fuse(self, args, result, state):
        self.counts["fusion.chernoff_fuse_calls"] += 1
        active = [np.asarray(pmf) for pmf, weight in args[0] if weight > 0.0]
        if all(np.array_equal(p, active[0]) for p in active[1:]):
            self.counts["fusion.identical_input_calls"] += 1

    def _after_hellinger(self, args, result, state):
        pmfs = np.asarray(args[0])
        self.counts["metrics.hellinger_bytes"] += pmfs.shape[0] * pmfs.shape[1] * 8

    def _after_matrix(self, args, result, state):
        self.counts["spatial.transition_matrix_bytes"] = max(
            self.counts["spatial.transition_matrix_bytes"], int(result.nbytes)
        )

    def _after_run_batch(self, args, result, state):
        workers = args[3] if len(args) > 3 else 1
        if workers > 1:
            # traces cross the process boundary only when a pool is used
            self.counts["harness.pickled_trace_bytes"] += sum(
                len(pickle.dumps(trace)) for trace in result
            )

    def _after_emit(self, args, result, state):
        self.counts["harness.files_written"] += len(result)
        self.counts["harness.bytes_written"] += sum(os.path.getsize(p) for p in result)

    # -- reduction --------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time leaves out the children's spans and the time their wrappers
        and hooks took, which fell inside this span too. Under the key
        ``trace.wrapper`` is the wrapper and hook time of every span.
        """
        names, parents, _, starts, ends, wrapper = self._arrays()
        dur = ends - starts
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent] + wrapper[has_parent])
        table = {"trace.wrapper": {"calls": int(dur.size), "total_s": float(wrapper.sum()),
                                   "self_s": float(wrapper.sum())}}
        for name_id, name in enumerate(self.names):
            sel = names == name_id
            table[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return table

    def save(self, path) -> None:
        """Write the raw spans (name ids, parent, run id, start, end, wrapper s)."""
        names, parents, runs, starts, ends, wrapper = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=names, parent=parents,
                            run=runs, start=starts, end=ends, wrapper=wrapper)

    def _arrays(self):
        return (
            np.asarray(self.span_name, dtype=np.int64),
            np.asarray(self.span_parent, dtype=np.int64),
            np.asarray(self.span_run, dtype=np.int64),
            np.asarray(self.span_start, dtype=float),
            np.asarray(self.span_end, dtype=float),
            np.asarray(self.span_wrapper, dtype=float),
        )


def layer_metrics(table: dict, counts: Counter) -> dict:
    """Per-layer metric values from one traced round (see bench/README.md)."""

    def mean_ms(name, scale=1e3):
        row = table.get(name, {"calls": 0, "total_s": 0.0})
        return row["total_s"] / row["calls"] * scale if row["calls"] else 0.0

    def calls(name):
        return table.get(name, {"calls": 0})["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    ticks = calls("engine.tick")
    fuse_calls = calls("fusion.chernoff_fuse")
    groups = counts["engine.encounter_groups"]
    tick_self = table.get("engine.tick", {}).get("self_s", 0.0)
    run_self = table.get("engine.run", {}).get("self_s", 0.0)
    return {
        "spatial.build_grid_ms": mean_ms("spatial.build_grid"),
        "spatial.build_transition_matrix_ms": mean_ms("spatial.build_transition_matrix"),
        "spatial.transition_matrix_bytes": counts["spatial.transition_matrix_bytes"],
        "occupancy.feature_field_ms": mean_ms("occupancy.feature_field"),
        "mobility.transition_supports_ms": mean_ms("mobility.transition_supports"),
        "mobility.sample_next_calls": calls("mobility.sample_next"),
        "mobility.sample_next_us": mean_ms("mobility.sample_next", 1e6),
        "mobility.rng_from_seed_us": mean_ms("mobility.rng_from_seed", 1e6),
        "engine.runs": counts["engine.runs"],
        "engine.world_setup_ms": mean_ms("engine.world_setup"),
        "engine.ticks": ticks,
        "engine.tick_self_us": ratio(tick_self, ticks) * 1e6,
        "engine.run_self_us_per_tick": ratio(run_self, ticks) * 1e6,
        "engine.build_comm_graph_calls": calls("engine.build_comm_graph"),
        "engine.build_comm_graph_us": mean_ms("engine.build_comm_graph", 1e6),
        "engine.encounter_groups": groups,
        "engine.mean_group_size": ratio(counts["engine.group_members"], groups),
        "fusion.chernoff_fuse_calls": fuse_calls,
        "fusion.chernoff_fuse_us": mean_ms("fusion.chernoff_fuse", 1e6),
        "fusion.metropolis_weights_calls": calls("fusion.metropolis_weights"),
        "fusion.metropolis_weights_us": mean_ms("fusion.metropolis_weights", 1e6),
        "fusion.redundant_ratio": 1.0 - groups / fuse_calls if fuse_calls else 0.0,
        "fusion.identical_input_calls": counts["fusion.identical_input_calls"],
        "fusion.identical_input_ratio": ratio(counts["fusion.identical_input_calls"], fuse_calls),
        "fusion.informative_fusions": counts["fusion.informative_fusions"],
        "fusion.informative_ratio": ratio(counts["fusion.informative_fusions"], fuse_calls),
        "metrics.hellinger_batch_calls": calls("metrics.hellinger_batch"),
        "metrics.hellinger_batch_us": mean_ms("metrics.hellinger_batch", 1e6),
        "metrics.hellinger_bytes": counts["metrics.hellinger_bytes"],
        "harness.run_batch_s": table.get("harness.run_batch", {}).get("total_s", 0.0),
        "harness.emit_outputs_s": table.get("harness.emit_outputs", {}).get("total_s", 0.0),
        "harness.write_trace_csv_ms": mean_ms("harness.write_trace_csv"),
        "harness.write_pmf_csv_ms": mean_ms("harness.write_pmf_csv"),
        "harness.files_written": counts["harness.files_written"],
        "harness.bytes_written": counts["harness.bytes_written"],
        "harness.pickled_trace_bytes": counts["harness.pickled_trace_bytes"],
        "trace.wrapper_s": table["trace.wrapper"]["total_s"],
    }
