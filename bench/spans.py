"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every binding of a traced
function in every loaded ``mixedvol`` module namespace (modules import
``build_graph``, ``mv3`` and others by name), plus the ``cli.SUITES`` and
``cli.COMMANDS`` dispatch tables, is replaced by a wrapper that records a
span. Nothing under ``src/`` is edited. Spans stay in memory and are written
out when the run ends.

Size counters are derived from the public arguments and return values at the
same boundaries, so each layer's time can be read against its size.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> functions traced in that layer
LAYERS = {
    "bodies": ("hull", "affine_dim"),
    "measures": ("mixed_volume", "mixed_area_measure", "merge_atoms",
                 "vbbm_conewise", "mv3"),
    "quadrature": ("integrate_pair", "integrate_evaluator",
                   "arc_sample_nodes", "evaluator_breakpoints"),
    "graph": ("build_graph", "assemble", "spectrum", "kernel_analysis",
              "form_value"),
    "extremal": ("fit_linear_on_sbm", "sup_on_sbm",
                 "certify_equality_fulldim", "weak_stability_check",
                 "rigidity_check"),
    "lowerdim": ("assemble_lowerdim", "verify_spectrum",
                 "certify_equality_lowerdim"),
    "cli": ("run_command", "parse_body", "render_report"),
}

# size counters, all derived from public arguments and return values
SIZE_COUNTERS = ("bodies.hull.points_in", "bodies.hull.facets_out",
                 "measures.polarization_points", "measures.merge_atoms.atoms_in",
                 "quadrature.arcs", "quadrature.breakpoints",
                 "quadrature.segments", "graph.edges", "graph.dofs",
                 "graph.matrix_bytes", "lowerdim.dofs", "lowerdim.matrix_bytes")

_ARC_USERS = {"quadrature.integrate_pair": (2, "frame"),
              "quadrature.integrate_evaluator": (1, "frame"),
              "quadrature.arc_sample_nodes": (0, "frame")}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans (name, start, end, parent, op) and per-op counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name_id, start, end, parent, op]
        self.op_counters: list[Counter] = []
        self.op_labels: list[str] = []
        self._stack: list[int] = []
        self._child_bps: list[list] = []  # breakpoint lists seen per open span
        self._arc_keys: set = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op_labels.append(label)
        self.op_counters.append(Counter())
        self._arc_keys = set()

    def end_op(self) -> None:
        self.op_counters[-1]["quadrature.arcs"] += len(self._arc_keys)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, child_bps = self.spans, self._stack, self._child_bps
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1,
                    len(tracer.op_labels) - 1]
            spans.append(span)
            stack.append(sid)
            child_bps.append([])
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                bps = child_bps.pop()
            tracer._count(name, args, kwargs, result, bps)
            return result

        return traced

    def _count(self, name, args, kwargs, result, bps) -> None:
        c = self.op_counters[-1]
        if name == "bodies.hull":
            c["bodies.hull.points_in"] += len(_arg(args, kwargs, 0, "points"))
            c["bodies.hull.facets_out"] += len(result.facets)
        elif name == "measures.mixed_volume":
            nk, nl, nm = (len(b.vertices) for b in args[:3])
            c["measures.polarization_points"] += (nk * nl * nm + nk * nl
                                                  + nk * nm + nl * nm)
        elif name == "measures.merge_atoms":
            c["measures.merge_atoms.atoms_in"] += len(_arg(args, kwargs, 0, "raw"))
        elif name == "graph.build_graph":
            c["graph.edges"] += len(result.edges)
        elif name in ("graph.assemble", "lowerdim.assemble_lowerdim"):
            layer = name.split(".")[0]
            c[f"{layer}.dofs"] += result.size
            c[f"{layer}.matrix_bytes"] += (result.e_matrix.nbytes
                                           + result.mass.nbytes)
        elif name == "quadrature.evaluator_breakpoints":
            c["quadrature.breakpoints"] += len(result)
            if self._child_bps:
                self._child_bps[-1].append(result)
        elif name in _ARC_USERS:
            frame = _arg(args, kwargs, *_ARC_USERS[name])
            self._arc_keys.add((frame.start.tobytes(), frame.tangent.tobytes(),
                                frame.length))
            c["quadrature.segments"] += len(set().union(*bps)) + 1

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Replace every binding of each traced function in every loaded
        ``mixedvol`` namespace, and the cli dispatch-table entries."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        cli = sys.modules[f"{package.__name__}.cli"]
        for table, kind in ((cli.SUITES, "suite"), (cli.COMMANDS, "command")):
            for key, original in list(table.items()):
                wrapper = self.wrap(f"cli.{kind}.{key}", original)
                self._set_item(table, key, wrapper)
                for attr, value in list(vars(cli).items()):
                    if value is original:
                        self._set(cli, attr, wrapper)

    def _set(self, mod, attr, value) -> None:
        self._installed.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _set_item(self, table, key, value) -> None:
        self._installed.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for target, key, original in reversed(self._installed):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._installed.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus time covered by direct
        children) and call counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {n: 0.0 for n in self.names}
        calls: dict[str, int] = {n: 0 for n in self.names}
        for sid, (nid, start, end, _, _) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        return self_s, calls

    def totals(self) -> Counter:
        total: Counter = Counter({k: 0 for k in SIZE_COUNTERS})
        for c in self.op_counters:
            total.update(c)
        return total
