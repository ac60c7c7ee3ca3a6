"""Command-line front end: config parsing, pipelines, artifact emission.

Usage:  phimin <command> --config <file> [--out DIR] [--seed N] [--verbose]

The JSON config carries the weight spec, the command, and per-command
parameters; artifacts (CSV profiles/graphs, OBJ meshes, JSON reports and
a manifest with content hashes) are written atomically to the output
directory.  Exit codes: 0 all gated audits pass, 1 an audit whose
hypotheses hold fails its conclusion, 2 errors.  The computation is
sequential with a fixed summation order, so reruns of a config and seed
give byte-identical artifacts.  ``_COMMANDS`` maps each command to the
command_params keys it reads and to its pipeline, ``_SUBCONFIGS`` each
sub-config kind to its keys; any other key is a config error.
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
import orjson

from . import __version__
from .potential import (PotentialSpec, asymptotics, check_conditions,
                        spec_from_json, to_json_dict)
from .solvers import (AxisRegular, NewtonConfig, PointStart, ShootingConfig,
                      SolveResult, rotational_curve, solve_graph,
                      solve_rotational_profile, solve_translation_profile)
from .surface_geometry import (IDENTITY_NAMES, ROTATIONAL, GeometryField,
                               GraphPatch, ProfileCurve,
                               fundamental_identity_residuals, grid_shape,
                               phi_minimal_residual, sample_geometry)
from . import estimates, stability

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
    # checked as given, since spec_from_json passes offset, alpha and the
    # coefficients through float(), which takes bools and numeric strings
    given = {**dict(obj.get("params") or {}), **obj}
    bad = [f"potential.{key}: must be a number"
           for key in (*p, "offset", "alpha")
           if key in given and key != "coefficients" and not _number(given[key])
           and not (key == "alpha" and given[key] is None)]
    if "coefficients" in p and not all(map(_number, given["coefficients"])):
        bad.append("potential.coefficients: must be a list of numbers")
    errors += bad
    if "Lambda" in p and not bad and asymptotics(spec).violates_constraint:
        # a nonzero Lambda violates the constraint only by its sign
        errors.append("potential.Lambda: admissible tails need Lambda >= 0" if p["Lambda"]
                      else "potential.beta: beta > 0 required when Lambda = 0")
    return spec


# sub-config -> kind -> (required keys, optional keys); a key of that name
# holds a sub-config, whose "kind" picks the entry
_SUBCONFIGS = {
    "surface": {
        "rotational": (("start", "s_max", "step"), ()),
        "translation": (("start", "s_max", "step"), ()),
        "graph": (("domain", "h", "boundary"),
                  ("tol_residual", "max_iters")),
    },
    "start": {"axis": (("z0",), ()), "point": (("x0", "z0", "theta0"), ())},
    "boundary": {"constant": (("value",), ()), "grim_reaper": ((), ()),
                 "bowl_profile": ((), ("step", "s_max")), "csv": (("path",), ())},
}
# kind -> the shot a sub-config of that kind runs when it omits step or s_max
_SHOT_DEFAULTS = {"bowl_profile": {"s_max": 3.0, "step": 5e-4}}


def _number(v, types=(int, float)) -> bool:
    """A JSON number (a JSON integer for types=int) that a float holds;
    bools are neither, nor NaN and Infinity, which json.loads accepts."""
    return (isinstance(v, types) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


_EXPORT_FORMATS = ("CSV", "OBJ", "JSON")

# key -> (test of its value, what the value must be), wherever the key is
_VALUES = {
    **dict.fromkeys(("z_lo", "z_hi", "s_max", "z0", "x0", "theta0", "value"),
                    (_number, "a number")),
    **dict.fromkeys(("step", "h", "rho", "epsilon", "tol_residual"),
                    (lambda v: _number(v) and v > 0, "a positive number")),
    "n_samples": (lambda v: _number(v, int), "an integer"),
    "max_iters": (lambda v: _number(v, int) and v >= 1, "a positive integer"),
    "seed": (lambda v: _number(v, int) and v >= 0, "a non-negative integer"),
    "heights": (lambda v: isinstance(v, list) and all(map(_number, v)),
                "a list of numbers"),
    # the test that estimates.blowup_rescale makes
    "scales": (lambda v: isinstance(v, list) and all(_number(s) and s > 0 for s in v)
               and sorted(v) == v, "a list of positive numbers in nondecreasing order"),
    "model": (lambda v: v in estimates.BLOWUP_MODELS,
              f"one of {estimates.BLOWUP_MODELS}"),
    "radii": (lambda v: isinstance(v, list) and len(v) > 0
              and all(_number(r) and r > 0 for r in v),
              "a non-empty list of positive numbers"),
    "items": (lambda v: isinstance(v, list) and len(v) > 0
              and all(_number(i, int) and i in IDENTITY_NAMES for i in v),
              f"a non-empty list drawn from {tuple(IDENTITY_NAMES)}"),
    "formats": (lambda v: isinstance(v, list) and len(v) > 0
                and all(f in _EXPORT_FORMATS for f in v),
                f"a non-empty list drawn from {_EXPORT_FORMATS}"),
    "domain": (lambda v: isinstance(v, list) and len(v) == 4
               and all(map(_number, v)) and v[0] < v[1] and v[2] < v[3],
               "four numbers [x_lo, x_hi, y_lo, y_hi] with x_lo < x_hi "
               "and y_lo < y_hi"),
}


def _check_keys(obj: dict, path: str, required, optional, errors) -> None:
    """Append to errors a violation for each missing and each unknown key
    of obj, the object at path, and for each value _VALUES refuses, and
    check the sub-configs it holds."""
    at = f"{path}." if path else ""
    errors += [f"{at}{key}: missing" for key in required if key not in obj]
    for key, value in obj.items():
        if key not in required and key not in optional:
            errors.append(f"{at}{key}: unknown key")
        elif key in _SUBCONFIGS:
            _check_kind(value, at + key, _SUBCONFIGS[key], errors)
        elif key in _VALUES and not _VALUES[key][0](value):
            errors.append(f"{at}{key}: must be {_VALUES[key][1]}")


def _check_kind(obj, path: str, kinds: dict, errors) -> None:
    """Check obj, the sub-config at path, against the entry of its kind."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: must be an object")
    elif obj.get("kind") not in kinds:
        errors.append(f"{path}.kind: {obj.get('kind')!r} not one of {tuple(kinds)}")
    else:
        required, optional = kinds[obj["kind"]]
        _check_keys(obj, path, ("kind", *required), optional, errors)
        shot = {**_SHOT_DEFAULTS.get(obj["kind"], {}), **obj}
        step, s_max = shot.get("step"), shot.get("s_max")
        if _number(step) and _number(s_max) and 0 < step and s_max <= step:
            errors.append(f"{path}.step: must be below s_max")
        start = obj.get("start")
        if (obj["kind"] == "translation" and isinstance(start, dict)
                and start.get("kind") == "axis"):
            errors.append(f"{path}.start.kind: an axis start needs a rotational surface")
        domain, h = obj.get("domain"), obj.get("h")
        if _VALUES["domain"][0](domain) and _VALUES["h"][0](h):
            try:
                grid_shape(domain, h)
            except (ValueError, OverflowError):
                errors.append(f"{path}.h: must divide both sides of the domain")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Raises ConfigError with a violation list (JSON paths and messages)
    on schema problems, or json.JSONDecodeError on malformed input.
    """
    obj = json.loads(text)
    errors = []
    if not isinstance(obj, dict):
        raise ConfigError(["$: config must be a JSON object"])
    _check_keys(obj, "", ("potential", "command"),
                ("command_params", "output_dir", "seed"), errors)
    spec = _validate_potential(obj["potential"], errors) if "potential" in obj else None
    command = obj.get("command")
    if "command" in obj and command not in COMMANDS:
        errors.append(f"command: {command!r} not one of {COMMANDS}")
    params = obj.get("command_params", {})
    if not isinstance(params, dict):
        errors.append("command_params: must be an object")
        params = {}
    if command in _COMMANDS:
        keys = _COMMANDS[command][0]
        if isinstance(keys, str):  # Solve<Kind>: the params are a surface of that kind
            _check_kind({"kind": keys, **params}, "command_params",
                        {keys: _SUBCONFIGS["surface"][keys]}, errors)
        else:
            _check_keys(params, "command_params", *keys, errors)
    surface = params.get("surface")
    kind = surface.get("kind") if isinstance(surface, dict) else None
    if (command == "Export" and isinstance(params.get("formats"), list)
            and "OBJ" in params["formats"] and kind in ("rotational", "translation")):
        errors.append("command_params.formats: OBJ needs a graph surface")
    if command == "Blowup":
        if kind == "graph":
            errors.append("command_params.surface.kind: a blow-up needs a profile surface")
        heights, scales = params.get("heights"), params.get("scales")
        if (isinstance(heights, list) and isinstance(scales, list)
                and len(heights) != len(scales)):
            errors.append("command_params.scales: must have one entry per height")
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        potential=spec,
        command=command,
        command_params=params,
        output_dir=str(obj.get("output_dir", ".")),
        seed=obj.get("seed", 0),
    )


def serialize_config(config: RunConfig) -> str:
    obj = {**asdict(config), "potential": to_json_dict(config.potential)}
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# artifact writers (atomic, deterministic formatting)


def _atomic_write(path: Path, data) -> None:
    """Write a str, or an iterable of str chunks, to path atomically; if
    the chunks raise, the temporary file is removed and path is untouched."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# table rows converted to text per block, so no file is held in memory whole;
# blocks of 4096 rows wrote no faster and left the process about 4 MiB more
# resident memory after a 20,001-row profile table
_ROW_BLOCK = 1024


def _rows(*columns, sep=",", prefix=""):
    """Text chunks of a table, one line per row, as long as the shortest
    column; each value is written as its repr (shortest round-trip digits
    of a float, the digits of an int), and sep is one character.

    Per block of _ROW_BLOCK rows, each run of adjacent float (or int)
    columns is stacked as one float64 (int64) array and written flat by
    one orjson call, which writes the shortest round-trip digits of a
    float (Ryu; Adams, PLDI 2018) and the digits of an int, so the digits
    repr writes; every k-th comma of a run of k columns becomes a newline.
    The notation differs only for 1e-9 <= |x| < 1e-4 and |x| >= 1e16
    (orjson writes 0.00001 and 1e16 where repr writes 1e-05 and 1e+16)
    and for inf and nan (orjson writes null); a row holding such a float
    is written by repr.
    """
    arrays = [np.asarray(c) for c in columns]
    runs = []  # (float64 or int64, the adjacent columns of that kind)
    for a in arrays:
        if a.dtype.kind not in "fiu":
            raise TypeError(f"table columns must be float or int, not {a.dtype}")
        dtype = np.float64 if a.dtype.kind == "f" else np.int64
        if runs and runs[-1][0] is dtype:
            runs[-1][1].append(a)
        else:
            runs.append((dtype, [a]))
    n = min(a.size for a in arrays)
    sep_b, head = sep.encode(), prefix.encode()
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        parts = []
        for dtype, run in runs:
            block = np.empty((stop - start, len(run)), dtype)
            for k, a in enumerate(run):
                block[:, k] = a[start:stop]
            text = orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
            chars = np.frombuffer(text, np.uint8)[1:-1].copy()
            commas = np.flatnonzero(chars == ord(","))
            chars[commas] = ord(sep)
            chars[commas[len(run) - 1::len(run)]] = ord("\n")
            lines = chars.tobytes().split(b"\n")
            if dtype is np.float64:
                mag = np.abs(block)
                same = (mag < 1e16) & ((mag >= 1e-4) | (mag < 1e-9))
                rows = np.flatnonzero(~same.all(axis=1))
                for i, row in zip(rows.tolist(), block[rows].tolist()):
                    lines[i] = sep.join(map(repr, row)).encode()
            parts.append(lines)
        lines = parts[0] if len(parts) == 1 else map(sep_b.join, zip(*parts))
        yield (head + (b"\n" + head).join(lines) + b"\n").decode("ascii")


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
    X, Y = patch.grid()
    return i, j, X.ravel(), Y.ravel()


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
    _atomic_write(path, json.dumps(reports, sort_keys=True, indent=2) + "\n")


def _report(name: str, hypotheses: dict, values: dict, tolerances: dict,
            passed: bool) -> dict:
    return {"name": name, "hypotheses": hypotheses, "values": values,
            "tolerances": tolerances, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# surface sub-config -> solve


def _solve_surface(spec: PotentialSpec, sub: dict, path: str) -> SolveResult:
    """Solve the surface sub-config at the JSON path; parse_config has
    checked its keys."""
    if sub["kind"] == "graph":
        newton = NewtonConfig(**{key: sub[key] for key in ("tol_residual", "max_iters")
                                 if key in sub})
        return solve_graph(spec, tuple(sub["domain"]), float(sub["h"]),
                           _parse_boundary(spec, sub["boundary"], f"{path}.boundary"),
                           newton)
    cfg = ShootingConfig(start=_parse_start(sub["start"]),
                         s_max=float(sub["s_max"]), step=float(sub["step"]))
    if sub["kind"] == "rotational":
        return solve_rotational_profile(spec, cfg)
    return solve_translation_profile(spec, cfg)


def _converged_surface(spec: PotentialSpec, sub: dict) -> SolveResult:
    """The solve an audit or an export works on; an unconverged one is refused."""
    result = _solve_surface(spec, sub, "command_params.surface")
    if not result.converged:
        raise UnconvergedSolveError(
            f"surface solve did not converge: {result.diagnostics}")
    return result


def _field(result: SolveResult, spec: PotentialSpec) -> GeometryField:
    """A profile solve's sampled geometry, or a graph's, sampled here."""
    field = result.field
    return sample_geometry(result.surface, spec) if field is None else field


def _surface_field(config: RunConfig):
    """(converged solve, geometry field) of command_params["surface"]."""
    result = _converged_surface(config.potential, config.command_params["surface"])
    return result, _field(result, config.potential)


def _parse_start(obj: dict):
    if obj["kind"] == "axis":
        return AxisRegular(z0=float(obj["z0"]))
    return PointStart(x0=float(obj["x0"]), z0=float(obj["z0"]),
                      theta0=float(obj["theta0"]))


def _parse_boundary(spec: PotentialSpec, obj: dict, path: str):
    """The boundary data of the sub-config obj at the JSON path, as a
    callable (x, y) -> heights; a refusal at run time names that path."""
    kind = obj["kind"]
    if kind == "constant":
        value = float(obj["value"])
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
    if kind == "grim_reaper":
        return lambda x, y: -np.log(np.cos(x))
    if kind == "bowl_profile":
        shot = {**_SHOT_DEFAULTS[kind], **obj}
        cfg = ShootingConfig(start=AxisRegular(0.0), s_max=float(shot["s_max"]),
                             step=float(shot["step"]))

        def bowl(x, y):
            r = np.hypot(x, y)
            # shot as far as the farthest node; np.interp reads only the
            # interval about each radius, and would hold the last height
            # past the profile's end
            curve = rotational_curve(spec, cfg, x_stop=r.max())
            if curve.x[-1] < r.max():
                raise ConfigError([
                    f"{path}.s_max: the profile ends at radius {curve.x[-1]:.6g}, "
                    f"inside the edge node at radius {r.max():.6g}"])
            return np.interp(r, curve.x, curve.z)

        return bowl
    # csv: columns x,y,value; boundary nodes must match listed points
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
                [f"{path}.path: node {exc} missing from the CSV"]) from exc

    return lookup


def _center_index(params: dict, field: GeometryField) -> int:
    """The configured center sample, a JSON integer in [0, n_samples); by
    default the first sample of a profile (its axis point or start) and the
    middle node of a graph."""
    if "center_index" not in params:
        patch = field.source
        return 0 if field.is_profile else (patch.nx // 2) * patch.ny + patch.ny // 2
    c = params["center_index"]
    if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < field.n_samples:
        raise ConfigError([f"command_params.center_index: {c!r} is not an "
                           f"integer in [0, {field.n_samples})"])
    return c


def _export_solve(result: SolveResult, spec: PotentialSpec, out: Path, formats):
    """Write surface.csv (profile or graph table) and, for a graph,
    surface.obj, as listed in formats; returns the paths."""
    paths = []
    surface = result.surface
    if "CSV" in formats:
        write = (write_profile_csv if isinstance(surface, ProfileCurve)
                 else write_graph_csv)
        paths.append(out / "surface.csv")
        write(paths[-1], _field(result, spec))
    if "OBJ" in formats and not isinstance(surface, ProfileCurve):
        # the mesh needs no geometry field, so any grid size works
        paths.append(out / "surface.obj")
        write_graph_obj(paths[-1], surface)
    return paths


def _write_report(out: Path, name: str, doc: dict) -> Path:
    """Write the one-report list [doc] to out/name; returns the path."""
    path = out / name
    write_report_json(path, [doc])
    return path


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
    return [_write_report(out, "potential_check.json", doc)], []


def _run_solve(config, out: Path):
    kind = _COMMANDS[config.command][0]
    result = _solve_surface(config.potential, {**config.command_params, "kind": kind},
                            "command_params")
    paths = _export_solve(result, config.potential, out, ("CSV", "OBJ"))
    doc = _report(f"solve_{kind}", {"converged": result.converged}, {
        "residual": result.residual, "iterations": result.iterations,
        "diagnostics": result.diagnostics}, {}, result.converged)
    paths.append(_write_report(out, "solve.json", doc))
    return paths, [(True, result.converged)]


def _run_audit_fundamental(config, out: Path):
    _, field = _surface_field(config)
    items = [int(i) for i in config.command_params["items"]]
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
    _, field = _surface_field(config)
    interior = np.where(field.interior_mask(2))[0]
    lam_floor = float(10.0 * field.grid_h)
    spectrum = stability.first_eigenvalue(field, config.potential, interior, tol=1e-9)
    rng = np.random.default_rng(config.seed)
    trials = [spectrum.assembly.rayleigh(rng.standard_normal(interior.size))
              for _ in range(20)]
    mean_convex = bool(np.max(field.H) <= 1e-8)
    hypotheses = {"mean_convex": mean_convex}
    passed = spectrum.lambda1 >= -lam_floor
    doc = _report("stability_first_eigenvalue", hypotheses, {
        "lambda1": spectrum.lambda1, "residual": spectrum.residual,
        "iterations": spectrum.iterations,
        "rayleigh_trial_min": min(trials)},
        {"lambda_floor": lam_floor}, passed)
    path = _write_report(out, "stability.json", doc)
    csv_path = out / "eigenfunction.csv"
    _write_csv(csv_path, "sample,value",
               np.arange(spectrum.eigenfunction.size), spectrum.eigenfunction)
    return [path, csv_path], [(mean_convex, passed)]


def _run_audit_area(config, out: Path):
    p = config.command_params
    _, field = _surface_field(config)
    center = _center_index(p, field)
    if field.is_profile and field.source.kind == ROTATIONAL and center != 0:
        raise ConfigError([f"command_params.center_index: {center} is not the "
                           "axis sample 0 of a rotational profile"])
    z_lo = float(field.mu.min())
    z_hi = float(field.mu.max()) + 1.0
    cond = check_conditions(config.potential, z_lo + 1e-9, z_hi, 101)
    rep = estimates.geodesic_disk_area_check(
        field, center, float(p["rho"]), config.potential, float(cond.gamma))
    doc = _report("geodesic_disk_area", {"hypothesis_ok": rep.hypothesis_ok}, {
        "disk_area": rep.disk_area, "bound": rep.bound, "rho": rep.rho,
        "center_index": rep.center_index}, {}, rep.passed)
    return [_write_report(out, "area.json", doc)], [(rep.hypothesis_ok, rep.passed)]


def _run_audit_monotonicity(config, out: Path):
    p = config.command_params
    _, field = _surface_field(config)
    rep = estimates.density_monotonicity(
        field, _center_index(p, field), [float(r) for r in p["radii"]],
        config.potential, float(p["epsilon"]))
    minimality = phi_minimal_residual(field, config.potential)
    z_lo = float(field.mu.min())
    cond = check_conditions(config.potential, z_lo + 1e-9, z_lo + 2.0, 51)
    hyp_ok = bool(cond.c1_holds and minimality.max_abs_residual
                  <= 100.0 * field.grid_h**2)
    doc = _report("density_monotonicity", {"c1_and_minimal": hyp_ok}, {
        "radii": list(rep.radii), "o_values": list(rep.o_values),
        "epsilon": rep.epsilon}, {"clip": list(rep.tolerance)}, rep.monotone)
    path = _write_report(out, "monotonicity.json", doc)
    csv_path = out / "density.csv"
    _write_csv(csv_path, "r,o_value", rep.radii, rep.o_values)
    return [path, csv_path], [(hyp_ok, rep.monotone)]


def _run_audit_curvature_ratio(config, out: Path):
    _, field = _surface_field(config)
    sup = estimates.curvature_ratio_sup(field, config.potential)
    doc = _report("curvature_ratio_sup", {}, {"sup": sup}, {}, True)
    return [_write_report(out, "curvature_ratio.json", doc)], []


def _run_audit_convexity(config, out: Path):
    _, field = _surface_field(config)
    tol = float(10.0 * field.grid_h**2 * max(field.norm_s2().max(), 1.0))
    rep = estimates.convexity_report(field, config.potential, tol)
    hyp_ok = all(rep.hypotheses.values())
    passed = (rep.verdict != "NotConvex")
    doc = _report("convexity", rep.hypotheses, {
        "min_K": rep.min_K, "min_k2": rep.min_k2, "theta_sup": rep.theta_sup,
        "lambda_K_inf": rep.lambda_K_inf, "verdict": rep.verdict},
        {"tol": tol}, passed)
    path = _write_report(out, "convexity.json", doc)
    csv_path = out / "convexity_samples.csv"
    _write_csv(csv_path, "sample,K,k2_over_eta",
               np.arange(field.n_samples), field.K, rep.k2_over_eta)
    return [path, csv_path], [(hyp_ok, passed)]


def _run_blowup(config, out: Path):
    p = config.command_params
    result, field = _surface_field(config)
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
    return [_write_report(out, "blowup.json", doc)], []


def _run_export(config, out: Path):
    p = config.command_params
    result = _converged_surface(config.potential, p["surface"])
    paths = _export_solve(result, config.potential, out, p["formats"])
    if "JSON" in p["formats"]:
        doc = _report("export", {}, {"residual": result.residual}, {}, True)
        paths.append(_write_report(out, "export.json", doc))
    return paths, []


# command -> (command_params keys, pipeline); the keys are (required,
# optional), or for Solve<Kind> the surface kind that its params are
_COMMANDS = {
    "PotentialCheck": ((("z_lo", "z_hi", "n_samples"), ()), _run_potential_check),
    "SolveRotational": ("rotational", _run_solve),
    "SolveTranslation": ("translation", _run_solve),
    "SolveGraph": ("graph", _run_solve),
    "AuditFundamental": ((("surface", "items"), ()), _run_audit_fundamental),
    "AuditStability": ((("surface",), ()), _run_audit_stability),
    "AuditArea": ((("surface", "rho"), ("center_index",)), _run_audit_area),
    "AuditMonotonicity": ((("surface", "radii", "epsilon"), ("center_index",)),
                          _run_audit_monotonicity),
    "AuditCurvatureRatio": ((("surface",), ()), _run_audit_curvature_ratio),
    "AuditConvexity": ((("surface",), ()), _run_audit_convexity),
    "Blowup": ((("surface", "heights", "scales", "model"), ()), _run_blowup),
    "Export": ((("surface", "formats"), ()), _run_export),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> RunManifest:
    """Run the command's pipeline and write the artifact manifest.

    Deterministic for a fixed (config, seed): the computation is
    sequential with a fixed summation order.
    """
    t0 = time.perf_counter()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths, audits = _COMMANDS[config.command][1](config, out)
    exit_code = 1 if any(hyp and not ok for hyp, ok in audits) else 0
    artifacts = []
    for path in paths:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        artifacts.append({"path": str(Path(path).name), "sha256": digest})
    manifest = RunManifest(
        config=json.loads(serialize_config(config)),
        artifacts=artifacts,
        versions={"phimin": __version__, "numpy": np.__version__},
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
        if args.seed < 0:
            print("config error: --seed: must be a non-negative integer", file=sys.stderr)
            return 2
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
