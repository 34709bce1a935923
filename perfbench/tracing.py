"""Spans recorded from outside the library.

``Tracer.install`` replaces the names one nullcurves module looks up in
another with timing wrappers, and ``uninstall`` puts the originals back.
Nothing under ``src/`` knows about it.  An untraced run never calls
``install``, so it runs the library exactly as shipped.

A span is ``[name, start, end, parent, request, status, nodes]``: times
from ``time.perf_counter``, ``parent`` the index of the enclosing span (or
None), ``request`` the id of the CLI request it belongs to, ``status``
"ok" or the exception class name, ``nodes`` a computed graph size for
Dijkstra calls (None elsewhere).
"""

import contextlib
import functools
import importlib
import json
import time

# (module, owner attribute or None, attribute, span name)
#
# Each entry wraps the name at the site where the caller looks it up, so
# one call is recorded once: the CLI reaches rh through ``cli.rh_null_*``,
# the recursions through ``pipelines._rh_null``.  The certificate, the
# profile fit and the edge weights have no public entry point and are
# wrapped on their own module.
WRAPS = (
    ("nullcurves.series", "SeriesMap", "circle_values", "series.circle_values"),
    ("nullcurves.series", "SeriesMap", "antiderivative", "series.antiderivative"),
    ("nullcurves.series", None, "to_json", "series.json"),
    ("nullcurves.series", None, "from_json", "series.json"),
    ("nullcurves.geometry", None, "spinor_lift", "geometry.spinor_lift"),
    ("nullcurves.pipelines", None, "tmap_on_curve", "geometry.tmap_on_curve"),
    ("nullcurves.rh", None, "periods", "weierstrass.periods"),
    ("nullcurves.cli", None, "periods", "weierstrass.periods"),
    ("nullcurves.rh", None, "kill_periods", "weierstrass.kill_periods"),
    ("nullcurves.pipelines", None, "_rh_null", "rh.push"),
    ("nullcurves.cli", None, "rh_null_disc", "rh.push"),
    ("nullcurves.cli", None, "rh_null_annulus", "rh.push"),
    ("nullcurves.rh", None, "_certify_null", "rh.certify"),
    ("nullcurves.rh", None, "_fit_boundary_profile", "rh.fit"),
    ("nullcurves.pipelines", None, "intrinsic_radius", "diagnostics.intrinsic_radius"),
    ("nullcurves.cli", None, "intrinsic_radius", "diagnostics.intrinsic_radius"),
    ("nullcurves.diagnostics", None, "_polar_weights", "diagnostics.edge_weights"),
    ("nullcurves.pipelines", None, "bounded_coordinate_report", "diagnostics.bounded_report"),
    ("nullcurves.cli", None, "embedded_check", "diagnostics.embedded_check"),
    ("nullcurves.cli", None, "nullity_residual", "diagnostics.nullity"),
    ("nullcurves.kernels", None, "dijkstra_polar", "kernels.dijkstra"),
    ("nullcurves.kernels", None, "pair_scan", "kernels.pair_scan"),
    ("nullcurves.series", None, "horner_eval", "kernels.horner"),
    ("nullcurves.cli", None, "run_completeness_recursion", "pipelines.recurse"),
    ("nullcurves.cli", None, "run_bounded_third", "pipelines.recurse"),
    ("nullcurves.cli", None, "export_surface", "pipelines.export"),
)

LAYERS = ("series", "geometry", "weierstrass", "rh", "diagnostics", "kernels", "pipelines", "cli")


def _dijkstra_nodes(args):
    """Graph size of one polar Dijkstra call: rings x angles, from w_tan."""
    nrad, nang = args[0].shape
    return int(nrad * nang)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.last_ledger = None
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, owner_name, attr, name in WRAPS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        tracer = self
        nodes_of = _dijkstra_nodes if name == "kernels.dijkstra" else None
        keep = name == "pipelines.recurse"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:  # output checks run between requests
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.request, "ok", nodes_of(args) if nodes_of else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if keep:
                tracer.last_ledger = out
            return out

        return traced

    @contextlib.contextmanager
    def request_span(self, name, request_id):
        """Root span of one CLI request; spans are recorded only inside one."""
        span = [name, 0.0, 0.0, None, request_id, "ok", None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.request = request_id
        span[1] = time.perf_counter()
        try:
            yield
        except BaseException as err:
            span[5] = type(err).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.request = None

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, req, status, nodes) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req,
                                     "status": status, "nodes": nodes}) + "\n")

    def summary(self):
        """Per span name: calls, total and self seconds, and error count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        table = {}
        for i, (name, t0, t1, parent, req, status, nodes) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "errors": 0, "nodes": 0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            row["errors"] += status != "ok"
            row["nodes"] += nodes or 0
        return table


def layer_self_times(table):
    """Self seconds summed per layer (the span name's first component)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out


def span_cost(n=20000):
    """Seconds one recorded span adds to a call, from n wrapped no-op calls."""
    tracer = Tracer()
    noop = lambda: None
    traced = tracer._wrap(noop, "cost")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    with tracer.request_span("cost", "cost"):
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        wrapped = time.perf_counter() - t0
    return max(0.0, wrapped - bare) / n
