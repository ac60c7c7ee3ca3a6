"""Spans around the calls into each phimin layer, for the traced run.

The tracer replaces a function by a timing wrapper at the name its
caller looks up (a module attribute), records one span per call and
restores the originals on exit.  Spans live in memory: a list of
[name, start, end, parent index, command label, pass number].

Private functions wrapped because their layer has no public entry:
``solvers._integrate_profile`` (shooting), ``solvers._graph_jacobian``,
``solvers._harmonic_extension`` and ``estimates._csgraph_dijkstra``.
Renaming one of them makes the wrap fail loudly (AttributeError), so a
span never disappears silently.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from pathlib import Path
from time import perf_counter

# metric name -> unit; per-pass values of the traced run
COUNTS = {
    "solvers.spsolve.calls": "count",
    "solvers.newton.iters": "count",
    "solvers.residual.calls": "count",
    "solvers.shoot.steps": "count",
    "potential.eval_potential.calls": "count",
    "surface_geometry.sample_geometry.calls": "count",
    "stability.eig.iters": "count",
    "stability.splu.calls": "count",
    "stability.splu.fill_nnz": "count",
    "estimates.dijkstra.calls": "count",
    "cli.write.bytes": "bytes",
}
TIMES = (
    "solvers.spsolve.s", "solvers.jacobian.s", "solvers.harmonic.s",
    "solvers.solve_graph.self_s", "solvers.shoot.s",
    "potential.eval_potential.s", "potential.check_conditions.s",
    "surface_geometry.sample_geometry.s", "surface_geometry.identities.s",
    "stability.build_assembly.s", "stability.first_eigenvalue.self_s",
    "stability.splu.s",
    "estimates.dijkstra.s", "estimates.area.s", "estimates.density.s",
    "estimates.convexity.s", "estimates.blowup.s", "estimates.curvature_ratio.s",
    "cli.write.s", "cli.parse_config.s", "cli.run.self_s",
)
# span name -> the only parent span under which it counts.  The harmonic
# initial guess also calls spsolve; that solve stays in solvers.harmonic.s
# so that solvers.spsolve.* measures the Newton solves alone.
ONLY_UNDER = {"solvers.spsolve": "solvers.solve_graph"}


def _targets():
    """(modules, attribute, span name, result hook) for every wrap."""
    import scipy.sparse.linalg as spla

    from phimin import cli, estimates, potential, solvers, stability
    from phimin import surface_geometry as sg

    def newton(counts, result, args):
        counts["solvers.newton.iters"] += result.iterations

    def shoot(counts, result, args):
        counts["solvers.shoot.steps"] += len(result[0]) - 1

    def eig(counts, result, args):
        counts["stability.eig.iters"] += result.iterations

    def fill(counts, result, args):
        counts["stability.splu.fill_nnz"] += result.L.nnz + result.U.nnz

    def written(counts, result, args):
        # the manifest's wall-time field varies in length, so it is left out
        if Path(args[0]).name != "manifest.json":
            counts["cli.write.bytes"] += Path(args[0]).stat().st_size

    return [
        ((potential, solvers, stability, estimates, sg), "eval_potential",
         "potential.eval_potential", None),
        ((cli, potential), "check_conditions", "potential.check_conditions", None),
        ((cli,), "solve_graph", "solvers.solve_graph", newton),
        ((cli, estimates), "solve_rotational_profile", "solvers.solve_profile", None),
        ((cli, estimates), "solve_translation_profile", "solvers.solve_profile", None),
        ((solvers,), "_integrate_profile", "solvers.shoot", shoot),
        ((solvers,), "_graph_jacobian", "solvers.jacobian", None),
        ((solvers,), "_harmonic_extension", "solvers.harmonic", None),
        ((solvers,), "graph_pde_residual", "solvers.residual", None),
        ((spla,), "spsolve", "solvers.spsolve", None),
        ((cli, solvers, estimates), "sample_geometry",
         "surface_geometry.sample_geometry", None),
        ((cli, solvers), "phi_minimal_residual", "surface_geometry.identities", None),
        ((cli,), "fundamental_identity_residuals", "surface_geometry.identities", None),
        ((stability,), "build_assembly", "stability.build_assembly", None),
        ((stability,), "first_eigenvalue", "stability.first_eigenvalue", eig),
        ((spla,), "splu", "stability.splu", fill),
        ((estimates,), "_csgraph_dijkstra", "estimates.dijkstra", None),
        ((estimates,), "geodesic_disk_area_check", "estimates.area", None),
        ((estimates,), "density_monotonicity", "estimates.density", None),
        ((estimates,), "convexity_report", "estimates.convexity", None),
        ((estimates,), "blowup_rescale", "estimates.blowup", None),
        ((estimates,), "curvature_ratio_sup", "estimates.curvature_ratio", None),
        ((cli,), "parse_config", "cli.parse_config", None),
        ((cli,), "run", "cli.run", None),
        ((cli,), "write_profile_csv", "cli.write", None),
        ((cli,), "write_graph_csv", "cli.write", None),
        ((cli,), "write_graph_obj", "cli.write", None),
        ((cli,), "write_report_json", "cli.write", None),
        ((cli,), "_atomic_write", "cli.write", written),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # pass number -> Counter filled by the result hooks
        self._stack = []
        self.command = None
        self.pass_no = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.command, self.pass_no]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counts.setdefault(self.pass_no, Counter()), result, args)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for modules, attr, name, hook in _targets():
                for module in modules:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def pass_metrics(self, pass_no: int) -> dict:
        """Per-layer values of one traced pass: counts and busy times."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_no]
        child_time = Counter()
        for _, s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        total, self_time, calls = Counter(), Counter(), Counter()
        for i, s in spans:
            name, dur = s[0], s[2] - s[1]
            if name in ONLY_UNDER and (
                    s[3] is None or self.spans[s[3]][0] != ONLY_UNDER[name]):
                continue
            calls[name] += 1
            self_time[name] += dur - child_time[i]
            # nested spans of one name (a writer calling the atomic write) count once
            if s[3] is None or self.spans[s[3]][0] != name:
                total[name] += dur
        hooked = self.counts.get(pass_no, Counter())
        values = {}
        for metric in COUNTS:
            span_name = metric.rsplit(".", 1)[0]
            values[metric] = calls[span_name] if metric.endswith(".calls") else hooked[metric]
        for metric in TIMES:
            span_name, kind = metric.rsplit(".", 1)
            values[metric] = self_time[span_name] if kind == "self_s" else total[span_name]
        return values

    def records(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "command": s[4], "pass": s[5]} for s in self.spans]
