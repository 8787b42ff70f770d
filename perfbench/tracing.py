"""In-memory span tracer installed around public rigiddock calls from outside the package.

Each wrapper records one span (name, start, end, parent span, operation id)
and, for two layers, an exact work count. A wrapper replaces the name where
its caller looks it up: ``from .x import f`` copies the binding into the
importing module, so for example the transport solve is patched as
``rigiddock.losses.solve_uniform_transport``. Nothing is patched until
``install`` runs, and ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# (span name, module path under rigiddock, attribute on that module or
# "Class.method", optional count) -- one row per place a caller looks the
# name up.
SITES = (
    ("synthetic.generate_pair", "synthetic", "generate_pair", None),
    ("checkpoint.save_named_tensors", "checkpoint", "save_named_tensors", None),
    ("checkpoint.save_named_tensors", "training", "save_named_tensors", None),
    ("checkpoint.load_named_tensors", "checkpoint", "load_named_tensors", None),
    ("pdbio.parse_pdb", "pdbio", "parse_pdb", None),
    ("pdbio.local_frames", "graphs", "local_frames", None),
    ("graphs.build_graph", "training", "build_graph", None),
    ("graphs.knn_edges", "graphs", "knn_edges", None),
    ("graphs.surface_features", "graphs", "surface_features", None),
    ("model.forward", "model", "DockingModel.forward", None),
    ("model.keypoints", "model", "DockingModel.keypoints", None),
    ("docking.dock_forward", "docking", "dock_forward", None),
    ("docking.dock_forward", "training", "dock_forward", None),
    ("docking.kabsch_tensors", "docking", "kabsch_tensors", None),
    ("autodiff.backward", "autodiff", "Tape.backward", "autodiff.tape_nodes"),
    ("losses.total_loss", "training", "total_loss", None),
    ("losses.ot_pocket_loss", "losses", "ot_pocket_loss", None),
    ("losses.intersection_loss", "losses", "intersection_loss", None),
    ("losses.pocket_points", "training", "pocket_points", None),
    ("transport.solve_uniform_transport", "losses", "solve_uniform_transport",
     "transport.cost_cells"),
    ("training.train", "training", "train", None),
    ("training.prepare_pair", "training", "prepare_pair", None),
    ("training.validation_metric", "training", "validation_metric", None),
    ("training.adam_step", "training", "Adam.step", None),
    ("training.evaluate", "training", "evaluate", None),
    ("metrics.complex_rmsd", "training", "complex_rmsd", None),
    ("metrics.interface_rmsd", "training", "interface_rmsd", None),
)
SPAN_NAMES = tuple(dict.fromkeys(site[0] for site in SITES))
COUNT_NAMES = tuple(site[3] for site in SITES if site[3])


def binding(package, module: str, attr: str) -> tuple[object, str]:
    """The object and attribute name a SITES row patches."""
    owner = getattr(package, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _work_count(count: str, args: tuple) -> int:
    """Exact work of one call, read from its arguments before it runs."""
    if count == "autodiff.tape_nodes":
        return len(args[0])          # Tape.backward(self, loss): recorded nodes
    return int(args[0].size)         # solve_uniform_transport(cost): S x K cells


class Tracer:
    """Spans kept in memory; ``write`` dumps them once the run is over."""

    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.op = None

    def _wrap(self, name: str, fn, count: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count] += _work_count(count, args)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr, count in SITES:
            owner, attr = binding(self._package, module, attr)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-span calls, self seconds and median duration, plus counts.

        Self time is a span's duration minus the durations of its direct
        children; ``other.self_s`` is the traced wall time no span covers,
        so the self times and ``other`` add up to ``wall_s``.
        """
        durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            durations[name].append(duration)
            self_s[name] += duration
            if parent is not None:
                self_s[self.spans[parent][0]] -= duration
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = len(durations[name])
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(durations[name]) if durations[name] else 0.0
        out.update(self.counts)
        out["other.self_s"] = wall_s - sum(self_s.values())
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
