"""Span tracing from outside the program.

``Recorder.install()`` replaces each traced function with a wrapper in every
``chebribbon`` namespace that holds it (names imported with ``from ... import``
included) and ``uninstall()`` puts the originals back.  Each call records a
span (name, start, end, parent span, command id) in flat arrays that stay in
memory until ``write``.  A span's self time is its duration minus the time
its child spans cover; in one thread sibling spans never overlap, so that is
the sum of the children's durations.  Time spent in an untraced callee is
self time of the nearest traced caller: the secular closures that
``brentq`` and ``angular_scan`` call back into count as ``_roots`` time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("chebpoly", "_roots", "square_ribbon", "triangle_ribbon",
          "classify", "hamiltonian", "cli")

# per-layer metric -> traced functions whose calls it counts
CALLS = {
    "chebpoly.u_all.calls": ("chebpoly.u_all",),
    "chebpoly.logsinh.calls": ("chebpoly.logsinh",),
    "roots.angular_scan.calls": ("_roots.angular_scan",),
    "roots.brentq.calls": ("_roots.brentq",),
    "roots.invert_monotone_ratio.calls": ("_roots.invert_monotone_ratio",),
    "classify.classify_numeric.calls": ("classify.classify_numeric",),
    "hamiltonian.eigensolve_dense.calls": ("hamiltonian.eigensolve_dense",),
}
# per-layer metric -> traced functions whose inclusive time it sums (none
# of them calls another of its group, so nothing is counted twice)
TIMES = {
    "chebpoly.u_all.s": ("chebpoly.u_all",),
    "roots.brentq.s": ("_roots.brentq",),
    "square_ribbon.zigzag_spectrum.s": ("square_ribbon.zigzag_spectrum",),
    "square_ribbon.zigzag_full_state.s": ("square_ribbon.zigzag_full_state",),
    "square_ribbon.lr.s": ("square_ribbon.lr_isotropic_spectrum",
                           "square_ribbon.lr_isotropic_state"),
    "triangle_ribbon.roots.s": ("triangle_ribbon.zz1_roots",
                                "triangle_ribbon.zz2_roots"),
    "triangle_ribbon.state.s": ("triangle_ribbon.zz1_state",
                                "triangle_ribbon.zz2_state",
                                "triangle_ribbon.zz1_edge_state",
                                "triangle_ribbon.zz2_edge_state",
                                "triangle_ribbon.zz2_edge_bloch_state"),
    "triangle_ribbon.edge_solutions.s": ("triangle_ribbon.zz1_edge_solutions",
                                         "triangle_ribbon.zz2_edge_solutions"),
    "classify.classify_numeric.s": ("classify.classify_numeric",),
    "classify.ipr.s": ("classify.ipr",),
    "hamiltonian.eigensolve_dense.s": ("hamiltonian.eigensolve_dense",),
    "hamiltonian.subspace_overlap.s": ("hamiltonian.subspace_overlap",),
}


def traced_functions():
    """{original function: "layer.name"} for every traced function: the
    public functions each layer module defines, scipy's ``brentq`` as bound
    in ``_roots``, and ``cli.run``, whose span is the root of a command."""
    found = {}
    for layer in LAYERS[:-1]:
        module = importlib.import_module(f"chebribbon.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[obj] = f"{layer}.{name}"
    roots = importlib.import_module("chebribbon._roots")
    found[roots.brentq] = "_roots.brentq"
    found[importlib.import_module("chebribbon.cli").run] = "cli.run"
    return found


class Recorder:
    """Spans of the traced calls made while installed."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_command = -1
        self.scan_nodes = 0
        self.scan_roots = 0
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, command = self.name_id, self.parent, self.command
        start, end, stack, clock = self.start, self.end, self._stack, \
            time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            sid = len(end)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1])
            command.append(recorder.current_command)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scan(self, fn):
        """angular_scan, also counting grid nodes and roots found."""
        inner = self.wrap("_roots.angular_scan", fn)
        signature = inspect.signature(fn)

        def scan(*args, **kwargs):
            result = inner(*args, **kwargs)
            nodes = signature.bind(*args, **kwargs).arguments["nodes"]
            self.scan_nodes += len(nodes) - 2  # interior grid evaluations
            self.scan_roots += len(result[0]) + result[1] + result[2]
            return result

        return scan

    def install(self):
        wrappers = {}
        for fn, name in traced_functions().items():
            wrappers[id(fn)] = (self._wrap_scan(fn)
                                if name == "_roots.angular_scan"
                                else self.wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "chebribbon" and not modname.startswith("chebribbon."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "command": np.frombuffer(self.command, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children."""
    children = parent >= 0
    covered = np.bincount(parent[children], weights=duration[children],
                          minlength=len(duration))
    return duration - covered


def layer_metrics(recorder):
    """Per-layer metrics of one traced pass: self time per layer, CALLS,
    TIMES, grid nodes per root, and the total self time."""
    arrays = recorder.arrays()
    duration = arrays["end"] - arrays["start"]
    own = self_times(arrays["parent"], duration)
    layer_of = np.array([LAYERS.index(n.split(".")[0])
                         for n in recorder.names] or [0])
    span_layer = layer_of[arrays["name_id"]]
    # metric names start with a letter or digit: _roots -> roots
    out = {f"{layer.lstrip('_')}.self_s": float(own[span_layer == i].sum())
           for i, layer in enumerate(LAYERS)}
    by_name = {n: i for i, n in enumerate(recorder.names)}

    def selected(names):
        return np.isin(arrays["name_id"],
                       [by_name[n] for n in names if n in by_name])

    for metric, names in CALLS.items():
        out[metric] = int(selected(names).sum())
    for metric, names in TIMES.items():
        out[metric] = float(duration[selected(names)].sum())
    out["roots.nodes_per_root"] = (recorder.scan_nodes / recorder.scan_roots
                                   if recorder.scan_roots else 0.0)
    out["self_total_s"] = float(own.sum())
    return out


def write(recorders, path):
    """Write the spans of all traced passes to one .npz file; ``pass``
    numbers the traced pass and ``parent`` indexes the whole file."""
    names = sorted({n for r in recorders for n in r.names})
    columns = {"name_id": [], "parent": [], "command": [], "start": [],
               "end": [], "pass": []}
    offset = 0
    for index, rec in enumerate(recorders):
        arrays = rec.arrays()
        remap = np.array([names.index(n) for n in rec.names] or [0])
        columns["name_id"].append(remap[arrays["name_id"]])
        columns["parent"].append(np.where(arrays["parent"] >= 0,
                                          arrays["parent"] + offset, -1))
        for key in ("command", "start", "end"):
            columns[key].append(arrays[key])
        columns["pass"].append(np.full(len(arrays["start"]), index))
        offset += len(arrays["start"])
    np.savez(path, names=np.array(names),
             **{k: np.concatenate(v) for k, v in columns.items()})
