"""Command-line front end: config parsing, pipelines, artifact emission.

Usage:  phimin <command> --config <file> [--out DIR] [--seed N] [--verbose]

The JSON config carries the weight spec, the command, and per-command
parameters; artifacts (CSV profiles/graphs, OBJ meshes, JSON reports and
a manifest with content hashes) are written atomically to the output
directory.  Exit codes: 0 all gated audits pass, 1 an audit whose
hypotheses hold fails its conclusion, 2 errors.  PHIMIN_THREADS caps
worker parallelism; the implementation is sequential with a fixed
summation order, so artifacts are byte-identical for any cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .potential import (PotentialSpec, check_conditions, spec_from_json,
                        to_json_dict)
from .solvers import (AxisRegular, NewtonConfig, PointStart, ShootingConfig,
                      SolveResult, solve_graph, solve_rotational_profile,
                      solve_translation_profile)
from .surface_geometry import (GeometryField, GraphPatch, ProfileCurve,
                               fundamental_identity_residuals,
                               phi_minimal_residual, sample_geometry)
from . import estimates, stability

COMMANDS = (
    "PotentialCheck", "SolveRotational", "SolveTranslation", "SolveGraph",
    "AuditFundamental", "AuditStability", "AuditArea", "AuditMonotonicity",
    "AuditCurvatureRatio", "AuditConvexity", "Blowup", "Export",
)


class ConfigError(ValueError):
    """Schema violations, each as 'json.path: message'."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnconvergedSolveError(RuntimeError):
    """An audit or an export was asked to use a solve that did not converge."""


@dataclass
class RunConfig:
    potential: PotentialSpec
    command: str
    command_params: dict
    output_dir: str = "."
    seed: int = 0


@dataclass
class RunManifest:
    config: dict
    artifacts: list
    versions: dict
    wall_time_s: float
    exit_code: int


# ---------------------------------------------------------------------------
# config parsing and validation


def _validate_potential(obj, errors) -> PotentialSpec | None:
    try:
        spec = spec_from_json(obj)
    except (ValueError, TypeError) as exc:
        errors.append(f"potential: {exc}")
        return None
    p = spec.params
    if "Lambda" in p:
        if p["Lambda"] < 0.0:
            errors.append("potential.Lambda: admissible tails need Lambda >= 0")
        if p["Lambda"] == 0.0 and not p["beta"] > 0.0:
            errors.append("potential.beta: beta > 0 required when Lambda = 0")
    return spec


_REQUIRED_PARAMS = {
    "PotentialCheck": ("z_lo", "z_hi", "n_samples"),
    "SolveRotational": ("start", "s_max", "step"),
    "SolveTranslation": ("start", "s_max", "step"),
    "SolveGraph": ("domain", "h", "boundary"),
    "AuditFundamental": ("surface", "items"),
    "AuditStability": ("surface",),
    "AuditArea": ("surface", "rho"),
    "AuditMonotonicity": ("surface", "radii", "epsilon"),
    "AuditCurvatureRatio": ("surface",),
    "AuditConvexity": ("surface",),
    "Blowup": ("surface", "heights", "scales", "model"),
    "Export": ("surface", "formats"),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Raises ConfigError with a violation list (JSON paths and messages)
    on schema problems, or json.JSONDecodeError on malformed input.
    """
    obj = json.loads(text)
    errors = []
    if not isinstance(obj, dict):
        raise ConfigError(["$: config must be a JSON object"])
    if "potential" not in obj:
        errors.append("potential: missing")
        spec = None
    else:
        spec = _validate_potential(obj["potential"], errors)
    command = obj.get("command")
    if command not in COMMANDS:
        errors.append(f"command: {command!r} not one of {COMMANDS}")
    params = obj.get("command_params", {})
    if not isinstance(params, dict):
        errors.append("command_params: must be an object")
        params = {}
    if command in _REQUIRED_PARAMS:
        for key in _REQUIRED_PARAMS[command]:
            if key not in params:
                errors.append(f"command_params.{key}: missing")
    for key in ("step", "h", "rho", "epsilon"):
        if key in params and not (isinstance(params[key], (int, float))
                                  and params[key] > 0):
            errors.append(f"command_params.{key}: must be a positive number")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        potential=spec,
        command=command,
        command_params=params,
        output_dir=str(obj.get("output_dir", ".")),
        seed=seed,
    )


def serialize_config(config: RunConfig) -> str:
    obj = {
        "potential": to_json_dict(config.potential),
        "command": config.command,
        "command_params": config.command_params,
        "output_dir": config.output_dir,
        "seed": config.seed,
    }
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# artifact writers (atomic, deterministic formatting)


def _atomic_write(path: Path, data) -> None:
    """Write a str, or an iterable of str chunks, to path atomically."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines([data] if isinstance(data, str) else data)
    os.replace(tmp, path)


# table rows converted to text per block, so no file is held in memory whole
_ROW_BLOCK = 4096


def _rows(*columns, sep=",", prefix=""):
    """Text chunks of a table, one line per row; each value is written as
    its repr (shortest round-trip digits of a float, the digits of an int)."""
    line = prefix + sep.join(["%r"] * len(columns)) + "\n"
    n = min(len(c) for c in columns)
    for start in range(0, n, _ROW_BLOCK):
        block = [np.asarray(c)[start:start + _ROW_BLOCK].tolist() for c in columns]
        yield "".join(line % row for row in zip(*block))


def _write_csv(path: Path, header: str, *columns) -> None:
    _atomic_write(path, chain([header + "\n"], _rows(*columns)))


def write_profile_csv(path: Path, field: GeometryField) -> None:
    curve: ProfileCurve = field.source
    _write_csv(path, "s,x,z,theta,k1,k2,H,K,eta,mu",
               curve.s, curve.x, curve.z, curve.theta, field.k1, field.k2,
               field.H, field.K, field.eta, field.mu)


def _grid_nodes(patch: GraphPatch):
    """Row-major (i, j, x, y) columns of the patch nodes."""
    i = np.repeat(np.arange(patch.nx), patch.ny)
    j = np.tile(np.arange(patch.ny), patch.nx)
    return i, j, patch.domain[0] + i * patch.h, patch.domain[2] + j * patch.h


def write_graph_csv(path: Path, field: GeometryField) -> None:
    patch: GraphPatch = field.source
    i, j, x, y = _grid_nodes(patch)
    _write_csv(path, "i,j,x,y,u,H,K,k1,k2,eta", i, j, x, y, patch.u.ravel(),
               field.H, field.K, field.k1, field.k2, field.eta)


def write_graph_obj(path: Path, patch: GraphPatch) -> None:
    """Row-major vertices, two triangles per grid cell, 1-based faces."""
    _, _, x, y = _grid_nodes(patch)
    v00 = (np.arange(patch.nx - 1)[:, None] * patch.ny
           + np.arange(patch.ny - 1) + 1).ravel()
    v11 = v00 + patch.ny + 1
    # each cell's two faces, (v00 v10 v11) then (v00 v11 v01)
    faces = np.stack([v00, v00 + patch.ny, v11, v00, v11, v00 + 1],
                     axis=1).reshape(-1, 3)
    _atomic_write(path, chain(
        _rows(x, y, patch.u.ravel(), sep=" ", prefix="v "),
        _rows(*faces.T, sep=" ", prefix="f ")))


def write_report_json(path: Path, reports) -> None:
    """Reports in the stable schema {name, hypotheses, values, tolerances,
    passed}, sorted keys, deterministic float formatting."""
    _atomic_write(path, json.dumps(reports, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _report(name: str, hypotheses: dict, values: dict, tolerances: dict,
            passed: bool) -> dict:
    return {"name": name, "hypotheses": hypotheses, "values": values,
            "tolerances": tolerances, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# surface sub-config -> solve


def _solve_surface(spec: PotentialSpec, sub: dict) -> SolveResult:
    kind = sub.get("kind")
    if kind == "rotational":
        cfg = ShootingConfig(start=_parse_start(sub["start"]),
                             s_max=float(sub["s_max"]), step=float(sub["step"]))
        return solve_rotational_profile(spec, cfg)
    if kind == "translation":
        cfg = ShootingConfig(start=_parse_start(sub["start"]),
                             s_max=float(sub["s_max"]), step=float(sub["step"]))
        return solve_translation_profile(spec, cfg)
    if kind == "graph":
        boundary = _parse_boundary(spec, sub["boundary"])
        newton = NewtonConfig(
            tol_residual=float(sub.get("tol_residual", 1e-10)),
            max_iters=int(sub.get("max_iters", 30)),
            initial_guess=sub.get("initial_guess", "harmonic"),
        )
        return solve_graph(spec, tuple(sub["domain"]), float(sub["h"]),
                           boundary, newton)
    raise ConfigError([f"surface.kind: unknown {kind!r}"])


def _converged_surface(spec: PotentialSpec, sub: dict) -> SolveResult:
    """The solve an audit or an export works on; an unconverged one is refused."""
    result = _solve_surface(spec, sub)
    if not result.converged:
        raise UnconvergedSolveError(
            f"surface solve did not converge: {result.diagnostics}")
    return result


def _parse_start(obj: dict):
    if obj.get("kind") == "axis":
        return AxisRegular(z0=float(obj["z0"]))
    if obj.get("kind") == "point":
        return PointStart(x0=float(obj["x0"]), z0=float(obj["z0"]),
                          theta0=float(obj["theta0"]))
    raise ConfigError([f"start.kind: unknown {obj.get('kind')!r}"])


def _parse_boundary(spec: PotentialSpec, obj: dict):
    kind = obj.get("kind")
    if kind == "constant":
        value = float(obj["value"])
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
    if kind == "grim_reaper":
        return lambda x, y: -np.log(np.cos(x))
    if kind == "bowl_profile":
        step = float(obj.get("step", 5e-4))
        s_max = float(obj.get("s_max", 3.0))
        z0 = float(obj.get("z0", 0.0))
        res = solve_rotational_profile(
            spec, ShootingConfig(start=AxisRegular(z0), s_max=s_max, step=step))
        curve: ProfileCurve = res.surface
        return lambda x, y: np.interp(np.hypot(x, y), curve.x, curve.z)
    if kind == "csv":
        # columns x,y,value; boundary nodes must match listed points
        data = np.genfromtxt(obj["path"], delimiter=",", names=True)
        table = {(round(float(px), 9), round(float(py), 9)): float(v)
                 for px, py, v in zip(data["x"], data["y"], data["value"])}

        def lookup(x, y):
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            ys = np.atleast_1d(np.asarray(y, dtype=float))
            try:
                return np.array([table[(round(float(a), 9), round(float(b), 9))]
                                 for a, b in zip(xs, ys)])
            except KeyError as exc:
                raise ConfigError(
                    [f"boundary.path: node {exc} missing from the CSV"]) from exc

        return lookup
    raise ConfigError([f"boundary.kind: unknown {kind!r}"])


def _center_index(params: dict, field: GeometryField) -> int:
    """The configured center sample; by default the first sample of a
    profile (its axis point or start) and the middle node of a graph."""
    patch = field.source
    middle = 0 if field.is_profile else (patch.nx // 2) * patch.ny + patch.ny // 2
    return int(params.get("center_index", middle))


def _export_solve(result: SolveResult, spec: PotentialSpec, out: Path,
                  stem: str, formats=("CSV",)):
    paths = []
    if isinstance(result.surface, ProfileCurve):
        if "CSV" in formats:
            path = out / f"{stem}.csv"
            write_profile_csv(path, sample_geometry(result.surface, spec))
            paths.append(path)
    else:
        if "CSV" in formats:
            path = out / f"{stem}.csv"
            write_graph_csv(path, sample_geometry(result.surface, spec))
            paths.append(path)
        if "OBJ" in formats:
            # the mesh needs no geometry field, so any grid size works
            path = out / f"{stem}.obj"
            write_graph_obj(path, result.surface)
            paths.append(path)
    return paths


def export_artifacts(result, fmt: str, out_dir, stem: str = "surface",
                     spec: PotentialSpec | None = None):
    """Write a SolveResult (CSV/OBJ) or a report list (JSON); returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(result, SolveResult):
        if spec is None:
            raise ValueError("exporting a solve needs the weight spec")
        return _export_solve(result, spec, out, stem, formats=(fmt,))
    path = out / f"{stem}.json"
    write_report_json(path, result)
    return [path]


# ---------------------------------------------------------------------------
# command pipelines; each returns (artifact paths, audit outcome list)


def _run_potential_check(config, out: Path):
    p = config.command_params
    rep = check_conditions(config.potential, float(p["z_lo"]), float(p["z_hi"]),
                           int(p["n_samples"]))
    doc = _report("potential_conditions", {}, {
        "c1_holds": rep.c1_holds, "gamma": rep.gamma, "c2_holds": rep.c2_holds,
        "cc3_holds": rep.cc3_holds, "d3_nonpositive": rep.d3_nonpositive,
        "Lambda": rep.lam, "beta": rep.beta, "sample_count": rep.sample_count,
        "gamma_is_analytic": rep.gamma_is_analytic}, {}, True)
    path = out / "potential_check.json"
    write_report_json(path, [doc])
    return [path], []


def _run_solve(config, out: Path, kind: str):
    p = dict(config.command_params)
    p["kind"] = kind
    result = _solve_surface(config.potential, p)
    paths = _export_solve(result, config.potential, out, "surface",
                          formats=("CSV", "OBJ"))
    doc = _report(f"solve_{kind}", {"converged": result.converged}, {
        "residual": result.residual, "iterations": result.iterations,
        "diagnostics": result.diagnostics}, {}, result.converged)
    path = out / "solve.json"
    write_report_json(path, [doc])
    paths.append(path)
    return paths, [(True, result.converged)]


def _run_audit_fundamental(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    items = [int(i) for i in p["items"]]
    reports = fundamental_identity_residuals(field, config.potential, items)
    reports.insert(0, phi_minimal_residual(field, config.potential))
    docs = [_report(r.identity_name, {}, {
        "max_abs_residual": r.max_abs_residual, "l2_residual": r.l2_residual,
        "grid_h": r.grid_h, "interior_margin": r.interior_margin}, {}, True)
        for r in reports]
    path = out / "fundamental_identities.json"
    write_report_json(path, docs)
    return [path], []


def _run_audit_stability(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    h = field.grid_h
    margin = 2
    interior = np.where(field.interior_mask(margin))[0]
    lam_floor = float(p.get("lambda_floor", 10.0 * h))
    spectrum = stability.first_eigenvalue(field, config.potential, interior,
                                          tol=float(p.get("tol", 1e-9)))
    rng = np.random.default_rng(config.seed)
    trials = [spectrum.assembly.rayleigh(rng.standard_normal(interior.size))
              for _ in range(int(p.get("n_trials", 20)))]
    mean_convex = bool(np.max(field.H) <= 1e-8)
    hypotheses = {"mean_convex": mean_convex}
    passed = spectrum.lambda1 >= -lam_floor
    doc = _report("stability_first_eigenvalue", hypotheses, {
        "lambda1": spectrum.lambda1, "residual": spectrum.residual,
        "iterations": spectrum.iterations,
        "rayleigh_trial_min": min(trials) if trials else None},
        {"lambda_floor": lam_floor}, passed)
    path = out / "stability.json"
    write_report_json(path, [doc])
    csv_path = out / "eigenfunction.csv"
    _write_csv(csv_path, "sample,value",
               np.arange(spectrum.eigenfunction.size), spectrum.eigenfunction)
    return [path, csv_path], [(mean_convex, passed)]


def _run_audit_area(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    z_lo = float(field.mu.min())
    z_hi = float(field.mu.max()) + 1.0
    cond = check_conditions(config.potential, z_lo + 1e-9, z_hi, 101)
    rep = estimates.geodesic_disk_area_check(
        field, _center_index(p, field), float(p["rho"]),
        config.potential, float(p.get("gamma", cond.gamma)))
    doc = _report("geodesic_disk_area", {"hypothesis_ok": rep.hypothesis_ok}, {
        "disk_area": rep.disk_area, "bound": rep.bound, "rho": rep.rho,
        "center_index": rep.center_index}, {}, rep.passed)
    path = out / "area.json"
    write_report_json(path, [doc])
    return [path], [(rep.hypothesis_ok, rep.passed)]


def _run_audit_monotonicity(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    rep = estimates.density_monotonicity(
        field, _center_index(p, field), [float(r) for r in p["radii"]],
        config.potential, float(p["epsilon"]))
    minimality = phi_minimal_residual(field, config.potential)
    z_lo = float(field.mu.min())
    cond = check_conditions(config.potential, z_lo + 1e-9, z_lo + 2.0, 51)
    hyp_ok = bool(cond.c1_holds and minimality.max_abs_residual
                  <= float(p.get("minimality_tol", 100.0 * field.grid_h**2)))
    doc = _report("density_monotonicity", {"c1_and_minimal": hyp_ok}, {
        "radii": list(rep.radii), "o_values": list(rep.o_values),
        "epsilon": rep.epsilon}, {"clip": list(rep.tolerance)}, rep.monotone)
    path = out / "monotonicity.json"
    write_report_json(path, [doc])
    csv_path = out / "density.csv"
    _write_csv(csv_path, "r,o_value", rep.radii, rep.o_values)
    return [path, csv_path], [(hyp_ok, rep.monotone)]


def _run_audit_curvature_ratio(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    sup = estimates.curvature_ratio_sup(field, config.potential)
    doc = _report("curvature_ratio_sup", {}, {"sup": sup}, {}, True)
    path = out / "curvature_ratio.json"
    write_report_json(path, [doc])
    return [path], []


def _run_audit_convexity(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    h = field.grid_h
    tol = float(p.get("tol", 10.0 * h**2 * max(field.norm_s2().max(), 1.0)))
    rep = estimates.convexity_report(field, config.potential, tol)
    hyp_ok = all(rep.hypotheses.values())
    passed = (rep.verdict != "NotConvex")
    doc = _report("convexity", rep.hypotheses, {
        "min_K": rep.min_K, "min_k2": rep.min_k2, "theta_sup": rep.theta_sup,
        "lambda_K_inf": rep.lambda_K_inf, "verdict": rep.verdict},
        {"tol": tol}, passed)
    path = out / "convexity.json"
    write_report_json(path, [doc])
    csv_path = out / "convexity_samples.csv"
    k_hi = np.maximum(field.k1, field.k2)
    ratio = np.divide(k_hi, field.eta, out=np.full(field.n_samples, np.nan),
                      where=field.eta > 1e-10)
    _write_csv(csv_path, "sample,K,k2_over_eta",
               np.arange(field.n_samples), field.K, ratio)
    return [path, csv_path], [(hyp_ok, passed)]


def _run_blowup(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    field = sample_geometry(result.surface, config.potential)
    heights = [float(hh) for hh in p["heights"]]
    basepoints = [int(np.argmin(np.abs(field.mu - hh))) for hh in heights]
    rep = estimates.blowup_rescale(result, basepoints,
                                   [float(s) for s in p["scales"]],
                                   config.potential, p["model"])
    doc = _report("blowup", {}, {
        "model": rep.model, "slope_constant": rep.slope_constant,
        "stages": [{"scale": s.scale, "slope_ratio": s.slope_ratio,
                    "hausdorff": s.hausdorff_distance, "c2": s.c2_distance}
                   for s in rep.stages]}, {}, True)
    path = out / "blowup.json"
    write_report_json(path, [doc])
    return [path], []


def _run_export(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    formats = [str(f) for f in p["formats"]]
    paths = _export_solve(result, config.potential, out, "surface",
                          formats=formats)
    if "JSON" in formats:
        doc = _report("export", {}, {"residual": result.residual}, {}, True)
        path = out / "export.json"
        write_report_json(path, [doc])
        paths.append(path)
    return paths, []


_PIPELINES = {
    "PotentialCheck": _run_potential_check,
    "SolveRotational": lambda c, o: _run_solve(c, o, "rotational"),
    "SolveTranslation": lambda c, o: _run_solve(c, o, "translation"),
    "SolveGraph": lambda c, o: _run_solve(c, o, "graph"),
    "AuditFundamental": _run_audit_fundamental,
    "AuditStability": _run_audit_stability,
    "AuditArea": _run_audit_area,
    "AuditMonotonicity": _run_audit_monotonicity,
    "AuditCurvatureRatio": _run_audit_curvature_ratio,
    "AuditConvexity": _run_audit_convexity,
    "Blowup": _run_blowup,
    "Export": _run_export,
}


def _threads_cap() -> int:
    raw = os.environ.get("PHIMIN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError([f"PHIMIN_THREADS: not an integer: {raw!r}"])
    if n < 1:
        raise ConfigError(["PHIMIN_THREADS: must be >= 1"])
    return n


def run(config: RunConfig) -> RunManifest:
    """Execute the configured pipeline and write the artifact manifest.

    Deterministic for a fixed (config, seed): the computation is
    sequential with fixed summation order regardless of PHIMIN_THREADS.
    """
    t0 = time.perf_counter()
    threads = _threads_cap()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths, audits = _PIPELINES[config.command](config, out)
    exit_code = 1 if any(hyp and not ok for hyp, ok in audits) else 0
    artifacts = []
    for path in paths:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        artifacts.append({"path": str(Path(path).name), "sha256": digest})
    manifest = RunManifest(
        config=json.loads(serialize_config(config)),
        artifacts=artifacts,
        versions={"phimin": __version__, "numpy": np.__version__,
                  "threads": threads},
        wall_time_s=time.perf_counter() - t0,
        exit_code=exit_code,
    )
    _atomic_write(out / "manifest.json", json.dumps(
        asdict(manifest), sort_keys=True, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phimin",
        description="construction and audits of weighted minimal surfaces")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.command != args.command:
        print(f"config command {config.command!r} does not match "
              f"CLI command {args.command!r}", file=sys.stderr)
        return 2
    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    try:
        manifest = run(config)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        for art in manifest.artifacts:
            print(f"wrote {art['path']}  sha256={art['sha256'][:16]}...")
    print(f"{config.command}: exit {manifest.exit_code} "
          f"({manifest.wall_time_s:.2f}s, {len(manifest.artifacts)} artifacts)")
    return manifest.exit_code


if __name__ == "__main__":
    sys.exit(main())
