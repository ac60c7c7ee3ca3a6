"""The benchmark's workloads: command lists, generated inputs and checks.

Each workload is a list of CLI configs that one pass runs in order.  A
check reads a command's artifacts from its output directory and returns
a list of problems (empty when the output is right).  Checks compare
against ``reference`` (solutions computed apart from phimin) or against
properties the method must have; each tolerance is fixed here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FOUR_PI = 4.0 * math.pi
HALF_PI = 0.5 * math.pi

CONSTANT = {"family": "Constant", "c0": 0.0}
LINEAR = {"family": "Linear", "slope": 1.0}
QUADRATIC = {"family": "Quadratic", "Lambda": 1.0, "beta": 1.0}
LOG_POWER = {"family": "LogPower", "a": 1.0}
SERIES = {"family": "Series", "Lambda": 0.0, "beta": 1.0,
          "coefficients": [-0.2], "u0": 1.0}

# tolerances of the checks; every measured error sits at least 2 times below its own
PROFILE_TOL = 1e-9        # RK4 at step <= 2e-4 against the DOP853 reference
GAMMA_RTOL = 1e-9         # sampled + golden-section sup against the closed form
GRAPH_C = 0.1             # |u - u_ref| <= GRAPH_C h^2 on second-order graphs
PLANE_TOL = 1e-12         # affine data on a Constant weight: the plane itself
MINIMALITY_GRAPH_TOL = 1e-8   # Newton stops at PDE residual 1e-10
MINIMALITY_PROFILE_C = 10.0   # |H + phi' eta| <= C step^2 on shot profiles
RATIO_RTOL = 1e-6         # translation profiles: |S|/phi' = |cos theta| <= 1
RATIO_GRAPH_TOL = 3e-3    # grim reaper graph: sup cos x = 1, second order
ERROR_RATIO = (3.2, 4.8)  # graph error ratio between h = 1/64 and 1/128


@dataclass
class Command:
    label: str
    potential: dict
    command: str
    params: dict
    checks: list = field(default_factory=list)

    def config_text(self, seed: int) -> str:
        return json.dumps({"potential": self.potential, "command": self.command,
                           "command_params": self.params, "seed": seed})

    def kind(self) -> tuple:
        """(command, surface or boundary kind), used to pick warm-ups."""
        sub = self.params.get("surface", self.params)
        return self.command, sub.get("kind"), sub.get("boundary", {}).get("kind")


@dataclass
class Workload:
    name: str
    commands: list
    warmup: list
    pass_checks: list = field(default_factory=list)


class References:
    """Lazily computed, cached reference solutions.  ``reference`` (and
    scipy.integrate with it) is imported on first use, so the benchmark's
    own set-up stays out of the program's set-up time."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, make):
        key = json.dumps(key, sort_keys=True)
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def profile(self, pot, kind, start, s_max):
        import reference
        return self._get(["profile", pot, kind, start, s_max],
                         lambda: reference.ProfileReference(pot, kind, start, s_max))

    def bowl(self, pot):
        """The axis-regular profile through the origin, as the CLI's
        bowl_profile boundary shoots it, out to past the [-1, 1]^2 corners."""
        import reference
        return self._get(["bowl", pot],
                         lambda: reference.BowlGraphReference(pot, 0.0, 1.5))


# ---------------------------------------------------------------------------
# artifact readers


def read_report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())[0]


def read_csv(path: Path):
    header = path.read_text().split("\n", 1)[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def manifest_digests(out: Path) -> tuple[list, list]:
    """(problems, [(artifact, sha256)]) for one command's manifest."""
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    problems = []
    for art in artifacts:
        data = (out / art["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != art["sha256"]:
            problems.append(f"{art['path']}: manifest sha256 does not match the file")
    return problems, [(a["path"], a["sha256"]) for a in artifacts]


def grid_shape(domain, h) -> tuple[int, int]:
    a, b, c, d = domain
    return int(round((b - a) / h)) + 1, int(round((d - c) / h)) + 1


def read_graph(out: Path, name: str, domain, h):
    """(problems, X, Y, U) from a graph CSV, checked against its grid."""
    a, _, c, _ = domain
    nx, ny = grid_shape(domain, h)
    header, rows = read_csv(out / name)
    if header != ["i", "j", "x", "y", "u", "H", "K", "k1", "k2", "eta"]:
        return [f"{name}: header {header}"], None, None, None
    if rows.shape[0] != nx * ny:
        return [f"{name}: {rows.shape[0]} rows for a {nx}x{ny} grid"], None, None, None
    X, Y, U = (rows[:, k].reshape(nx, ny) for k in (2, 3, 4))
    gx, gy = np.meshgrid(a + h * np.arange(nx), c + h * np.arange(ny), indexing="ij")
    if np.abs(X - gx).max() > 1e-12 or np.abs(Y - gy).max() > 1e-12:
        return [f"{name}: node coordinates off the grid"], None, None, None
    return [], X, Y, U


# ---------------------------------------------------------------------------
# checks; each is  check(out, refs) -> list of problems


def check_obj(domain, h):
    nx, ny = grid_shape(domain, h)

    def check(out, refs):
        lines = (out / "surface.obj").read_text().splitlines()
        n_v = sum(1 for line in lines if line.startswith("v "))
        n_f = sum(1 for line in lines if line.startswith("f "))
        want = (nx * ny, 2 * (nx - 1) * (ny - 1))
        if (n_v, n_f) != want:
            return [f"surface.obj: {n_v} vertices, {n_f} faces; want {want}"]
        return []
    return check


def check_converged(report="solve.json"):
    def check(out, refs):
        doc = read_report(out, report)
        if doc["values"]["residual"] > 1e-10:
            return [f"{report}: residual {doc['values']['residual']:.3e} > 1e-10"]
        if report == "solve.json" and doc["hypotheses"]["converged"] is not True:
            return [f"{report}: not converged"]
        return []
    return check


def graph_error(out, refs, pot, boundary, domain, h):
    """Max interior |u - u_ref| of a graph CSV for closed-form boundaries."""
    problems, X, Y, U = read_graph(out, "surface.csv", domain, h)
    if problems:
        return problems, math.inf
    if boundary["kind"] == "grim_reaper":
        ref = -np.log(np.cos(X))
    elif boundary["kind"] == "bowl_profile":
        ref = refs.bowl(pot).height(np.hypot(X, Y))
    else:
        raise ValueError(boundary["kind"])
    return [], float(np.abs(U - ref)[1:-1, 1:-1].max())


def check_graph_reference(pot, boundary, domain, h):
    def check(out, refs):
        problems, err = graph_error(out, refs, pot, boundary, domain, h)
        if not problems and not err <= GRAPH_C * h * h:
            problems.append(f"surface.csv: |u - u_ref| = {err:.3e} > {GRAPH_C} h^2")
        return problems
    return check


def check_graph_plane(domain, h, plane):
    """Constant weight: the exact solution of affine data is the plane."""
    def check(out, refs):
        problems, X, Y, U = read_graph(out, "surface.csv", domain, h)
        if not problems:
            err = float(np.abs(U - plane(X, Y)).max())
            if not err <= PLANE_TOL:
                problems.append(f"surface.csv: plane error {err:.3e} > {PLANE_TOL}")
        return problems
    return check


def check_graph_csv_boundary(domain, h, values):
    """CSV data reproduced on the edge; phi' > 0 forbids an interior max."""
    def check(out, refs):
        problems, X, Y, U = read_graph(out, "surface.csv", domain, h)
        if problems:
            return problems
        edge = np.ones_like(U, dtype=bool)
        edge[1:-1, 1:-1] = False
        if not np.array_equal(U[edge], values(X[edge], Y[edge])):
            problems.append("surface.csv: edge heights differ from the CSV boundary")
        if not U[~edge].max() < U[edge].max():
            problems.append("surface.csv: interior maximum above the boundary maximum")
        return problems
    return check


def check_profile(pot, kind, start, s_max, step, closed_form=None):
    """Profile CSV against a closed form  (x, z) -> residual  or the
    DOP853 reference in (x, z, theta)."""
    def check(out, refs):
        header, rows = read_csv(out / "surface.csv")
        if header != ["s", "x", "z", "theta", "k1", "k2", "H", "K", "eta", "mu"]:
            return [f"surface.csv: header {header}"]
        n = int(round(s_max / step)) + 1
        if rows.shape[0] != n:
            return [f"surface.csv: {rows.shape[0]} samples, want {n}"]
        s, x, z, t = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        if closed_form is not None:
            err = float(np.abs(closed_form(x, z)).max())
        else:
            ref = refs.profile(pot, kind, start, s_max)
            keep = s >= ref.s0
            err = float(np.abs(np.stack([x, z, t])[:, keep] - ref.at(s[keep])).max())
        if not err <= PROFILE_TOL:
            return [f"surface.csv: profile error {err:.3e} > {PROFILE_TOL}"]
        return []
    return check


def check_gamma(pot, z_lo, z_hi):
    def check(out, refs):
        import reference
        gamma = read_report(out, "potential_check.json")["values"]["gamma"]
        want = reference.gamma_sup(pot, z_lo, z_hi)
        if not abs(gamma - want) <= GAMMA_RTOL * max(1.0, abs(want)):
            return [f"potential_check.json: Gamma {gamma!r}, closed form {want!r}"]
        return []
    return check


def check_minimality(tol):
    def check(out, refs):
        docs = json.loads((out / "fundamental_identities.json").read_text())
        res = {d["name"]: d["values"]["max_abs_residual"] for d in docs}
        problems = [f"{k}: residual {v!r} not finite" for k, v in res.items()
                    if not math.isfinite(v)]
        if not res.get("weighted_minimality", math.inf) <= tol:
            problems.append(f"weighted_minimality residual "
                            f"{res.get('weighted_minimality')!r} > {tol:.3e}")
        return problems
    return check


def check_stability(positive: bool):
    def check(out, refs):
        v = read_report(out, "stability.json")["values"]
        problems = []
        if positive and not v["lambda1"] > 0.0:
            problems.append(f"stability.json: lambda1 = {v['lambda1']!r} <= 0")
        if not v["lambda1"] <= v["rayleigh_trial_min"]:
            problems.append(f"stability.json: lambda1 = {v['lambda1']!r} above the "
                            f"Rayleigh quotient {v['rayleigh_trial_min']!r}")
        return problems
    return check


def check_area():
    def check(out, refs):
        v = read_report(out, "area.json")["values"]
        bound = FOUR_PI * v["rho"] ** 2
        if not 0.0 < v["disk_area"] < bound:
            return [f"area.json: disk area {v['disk_area']!r} outside (0, 4 pi rho^2)"]
        return []
    return check


def check_density():
    def check(out, refs):
        doc = read_report(out, "monotonicity.json")
        o, tol = doc["values"]["o_values"], doc["tolerances"]["clip"]
        bad = [k for k in range(len(o) - 1) if o[k + 1] < o[k] - (tol[k] + tol[k + 1])]
        if bad or len(o) < 2:
            return [f"monotonicity.json: o-values fall after radii {bad}"]
        return []
    return check


def check_verdict(verdict: str):
    def check(out, refs):
        got = read_report(out, "convexity.json")["values"]["verdict"]
        return [] if got == verdict else [f"convexity.json: verdict {got}, want {verdict}"]
    return check


def check_ratio(want: float, tol: float):
    def check(out, refs):
        sup = read_report(out, "curvature_ratio.json")["values"]["sup"]
        if not abs(sup - want) <= tol:
            return [f"curvature_ratio.json: sup {sup!r}, want {want} +- {tol}"]
        return []
    return check


def check_blowup():
    def check(out, refs):
        c2 = [st["c2"] for st in read_report(out, "blowup.json")["values"]["stages"]]
        if not all(a > b for a, b in zip(c2, c2[1:])):
            return [f"blowup.json: C2 distances {c2} do not shrink with the scale"]
        return []
    return check


# ---------------------------------------------------------------------------
# graph_fine: the bowl graph on [-1, 1]^2 at h = 1/64 and 1/128

FINE_DOMAIN = [-1.0, 1.0, -1.0, 1.0]
BOWL = {"kind": "bowl_profile"}


def _center(domain, h):
    nx, ny = grid_shape(domain, h)
    return (nx // 2) * ny + ny // 2


def graph_fine_commands(solve_hs, audit_h):
    cmds = []
    for h in solve_hs:
        cmds.append(Command(
            f"solve_h{round(1 / h)}", LINEAR, "SolveGraph",
            {"domain": FINE_DOMAIN, "h": h, "boundary": BOWL},
            [check_converged(), check_obj(FINE_DOMAIN, h),
             check_graph_reference(LINEAR, BOWL, FINE_DOMAIN, h)]))
    surface = {"kind": "graph", "domain": FINE_DOMAIN, "h": audit_h, "boundary": BOWL}
    center = _center(FINE_DOMAIN, audit_h)
    tag = f"h{round(1 / audit_h)}"
    cmds += [
        Command(f"stability_{tag}", LINEAR, "AuditStability", {"surface": surface},
                [check_stability(positive=True)]),
        Command(f"area_{tag}", LINEAR, "AuditArea",
                {"surface": surface, "rho": 0.3, "center_index": center},
                [check_area()]),
        Command(f"density_{tag}", LINEAR, "AuditMonotonicity",
                {"surface": surface, "radii": [0.1, 0.2, 0.3, 0.4, 0.5],
                 "epsilon": 0.9, "center_index": center},
                [check_density()]),
    ]
    return cmds


def error_ratio_check(outs, refs):
    errs = []
    for h in (1 / 64, 1 / 128):
        problems, err = graph_error(outs[f"solve_h{round(1 / h)}"], refs, LINEAR,
                                    BOWL, FINE_DOMAIN, h)
        if problems:
            return problems
        errs.append(err)
    ratio = errs[0] / errs[1]
    lo, hi = ERROR_RATIO
    return [] if lo <= ratio <= hi else [f"bowl graph error ratio {ratio:.3f} not in [{lo}, {hi}]"]


# ---------------------------------------------------------------------------
# profile_families: every profile command on the five weight families

# family -> (weight, rotational start, rotational s_max, low height, blow-up heights)
FAMILIES = {
    "Constant": (CONSTANT, {"kind": "point", "x0": 1.0, "z0": 0.0, "theta0": HALF_PI},
                 1.2, 0.0, [1.0, 1.5, 2.0]),
    "Linear": (LINEAR, {"kind": "axis", "z0": 0.0}, 2.0, 0.0, [1.5, 2.5, 3.5]),
    "Quadratic": (QUADRATIC, {"kind": "axis", "z0": 0.0}, 1.5, 0.0, [1.5, 2.5, 3.5]),
    "LogPower": (LOG_POWER, {"kind": "axis", "z0": 1.0}, 2.0, 1.0, [1.75, 2.5, 3.25]),
    "Series": (SERIES, {"kind": "axis", "z0": 1.0}, 2.0, 1.0, [2.0, 3.0, 4.0]),
}
DENSITY_EPSILON = {"Constant": 0.9, "Linear": 0.9, "Quadratic": 0.7}
CONVEX_VERDICT = {"Constant": "HypothesesFail", "Linear": "ConvexWithinTol",
                  "Quadratic": "ConvexWithinTol"}


def profile_commands(solve_step, audit_step, families=FAMILIES):
    cmds = []
    for fam, (pot, rot_start, rot_smax, z0, heights) in families.items():
        trans_start = {"kind": "point", "x0": 0.0, "z0": z0, "theta0": 0.0}
        if fam == "Constant":
            # straight line; the flat disk is its axis-regular rotational profile
            trans_start = {**trans_start, "theta0": 0.3}
            axis_start = {"kind": "axis", "z0": 0.0}
        else:
            axis_start = rot_start
        z_lo = 0.5 if fam in ("LogPower", "Series") else -3.0
        rot = {"kind": "rotational", "start": rot_start, "s_max": rot_smax,
               "step": audit_step}
        axis = {**rot, "start": axis_start, "s_max": 1.5}
        trans = {"kind": "translation", "start": trans_start, "s_max": 1.4,
                 "step": audit_step}
        if fam == "Constant":
            rot_form = lambda x, z: (x - np.cosh(z)) / np.cosh(z)
            trans_form = lambda x, z: z - math.tan(0.3) * x
        else:
            rot_form = None
            trans_form = (lambda x, z: z + np.log(np.cos(x))) if fam == "Linear" else None
        solve_rot = {"start": rot_start, "s_max": rot_smax, "step": solve_step}
        solve_trans = {"start": trans_start, "s_max": 2.0, "step": solve_step}
        cmds += [
            Command(f"{fam}/potential", pot, "PotentialCheck",
                    {"z_lo": z_lo, "z_hi": 5.0, "n_samples": 201},
                    [check_gamma(pot, z_lo, 5.0)]),
            Command(f"{fam}/rotational", pot, "SolveRotational", solve_rot,
                    [check_profile(pot, "rotational", rot_start, rot_smax,
                                   solve_step, rot_form)]),
            Command(f"{fam}/translation", pot, "SolveTranslation", solve_trans,
                    [check_profile(pot, "translation", trans_start, 2.0,
                                   solve_step, trans_form)]),
            Command(f"{fam}/fundamental", pot, "AuditFundamental",
                    {"surface": rot, "items": [1, 2, 3, 4, 5, 6, 7, 8]},
                    [check_minimality(MINIMALITY_PROFILE_C * audit_step**2)]),
            Command(f"{fam}/stability", pot, "AuditStability", {"surface": rot},
                    [check_stability(positive=fam == "Linear")]),
            Command(f"{fam}/convexity", pot, "AuditConvexity", {"surface": rot},
                    [check_verdict(CONVEX_VERDICT[fam])] if fam in CONVEX_VERDICT else []),
        ]
        if fam != "Constant":  # |S| / phi' needs phi' > 0
            cmds.append(Command(f"{fam}/ratio", pot, "AuditCurvatureRatio",
                                {"surface": trans}, [check_ratio(1.0, RATIO_RTOL)]))
        cmds.append(Command(f"{fam}/area", pot, "AuditArea",
                            {"surface": axis, "rho": 0.25}, [check_area()]))
        if fam in DENSITY_EPSILON:  # the window needs the domain to contain ]0, eps]
            cmds.append(Command(f"{fam}/density", pot, "AuditMonotonicity",
                                {"surface": axis, "radii": [0.1, 0.2, 0.3, 0.4, 0.5],
                                 "epsilon": DENSITY_EPSILON[fam]}, [check_density()]))
        blow = {**rot, "s_max": 6.0}
        cmds.append(Command(f"{fam}/blowup", pot, "Blowup",
                            {"surface": blow, "heights": heights,
                             "scales": [2.0, 4.0, 8.0], "model": "Plane"},
                            [check_blowup()]))
    return cmds


# ---------------------------------------------------------------------------
# graph_small_batch: many small graph commands over every boundary kind

SMALL_DOMAIN = [-1.0, 1.0, -1.0, 1.0]
PLANE_VALUE = 0.25
CSV_H = 1.0 / 32.0  # the CSV lists every edge node of this grid and its coarsenings


def affine_coefficients(seed: int):
    """Random affine boundary heights a + b x + c y for a seed."""
    rng = np.random.default_rng(seed)
    return tuple(float(v) for v in rng.uniform(-0.5, 0.5, size=3))


def write_boundary_csv(path: Path, seed: int) -> None:
    a, b, c = affine_coefficients(seed)
    n = int(round((SMALL_DOMAIN[1] - SMALL_DOMAIN[0]) / CSV_H)) + 1
    xs = SMALL_DOMAIN[0] + CSV_H * np.arange(n)
    lines = ["x,y,value"]
    for i in range(n):
        for j in range(n):
            if i in (0, n - 1) or j in (0, n - 1):
                x, y = float(xs[i]), float(xs[j])
                lines.append(f"{x!r},{y!r},{a + b * x + c * y!r}")
    path.write_text("\n".join(lines) + "\n")


def small_batch_commands(hs, csv_path: Path, seed: int):
    a, b, c = affine_coefficients(seed)
    affine = lambda x, y: a + b * x + c * y
    boundaries = [
        ("plane", CONSTANT, {"kind": "constant", "value": PLANE_VALUE}),
        ("reaper", LINEAR, {"kind": "grim_reaper"}),
        ("bowl", LINEAR, BOWL),
        ("qbowl", QUADRATIC, BOWL),
        ("csv_plane", CONSTANT, {"kind": "csv", "path": str(csv_path)}),
        ("csv_linear", LINEAR, {"kind": "csv", "path": str(csv_path)}),
    ]
    cmds = []
    for h in hs:
        for tag, pot, boundary in boundaries:
            d = SMALL_DOMAIN
            if tag == "plane":
                shape = [check_graph_plane(d, h, lambda x, y: PLANE_VALUE + 0.0 * x)]
            elif tag == "csv_plane":
                shape = [check_graph_plane(d, h, affine)]
            elif tag == "csv_linear":
                shape = [check_graph_csv_boundary(d, h, affine)]
            else:
                shape = [check_graph_reference(pot, boundary, d, h)]
            surface = {"kind": "graph", "domain": d, "h": h, "boundary": boundary}
            label = f"{tag}_h{round(1 / h)}"
            cmds += [
                Command(f"{label}/solve", pot, "SolveGraph",
                        {"domain": d, "h": h, "boundary": boundary},
                        [check_converged(), check_obj(d, h)] + shape),
                Command(f"{label}/export", pot, "Export",
                        {"surface": surface, "formats": ["CSV", "OBJ", "JSON"]},
                        [check_converged("export.json"), check_obj(d, h)] + shape),
                Command(f"{label}/fundamental", pot, "AuditFundamental",
                        {"surface": surface, "items": [1, 2, 3, 5]},
                        [check_minimality(MINIMALITY_GRAPH_TOL)]),
            ]
            if tag != "csv_linear":
                # mean convex random data need not give a convex patch: the
                # verdict (and exit code) would depend on the seed
                cmds.append(Command(
                    f"{label}/convexity", pot, "AuditConvexity", {"surface": surface},
                    [check_verdict("HypothesesFail" if pot is CONSTANT
                                   else "ConvexWithinTol")]))
            if pot is not CONSTANT:
                cmds.append(Command(f"{label}/ratio", pot, "AuditCurvatureRatio",
                                    {"surface": surface},
                                    [check_ratio(1.0, RATIO_GRAPH_TOL)] if tag == "reaper"
                                    else []))
            cmds.append(Command(f"{label}/stability", pot, "AuditStability",
                                {"surface": surface},
                                [check_stability(positive=tag in ("plane", "bowl"))]))
    return cmds


# ---------------------------------------------------------------------------


def _first_of_each_kind(cmds):
    seen, out = set(), []
    for cmd in cmds:
        if cmd.kind() not in seen:
            seen.add(cmd.kind())
            out.append(cmd)
    return out


WORKLOADS = ("graph_fine", "profile_families", "graph_small_batch")


def build(name: str, seed: int, data_dir: Path) -> Workload:
    """Generate the workload's inputs under data_dir and its command lists.

    The seed sets each config's seed and the CSV boundary values; grid
    sizes and step counts are fixed.  The warm-up runs each command kind
    once at a small size.
    """
    if name == "graph_fine":
        return Workload(name, graph_fine_commands((1 / 64, 1 / 128), 1 / 64),
                        _first_of_each_kind(graph_fine_commands((1 / 16,), 1 / 16)),
                        [error_ratio_check])
    if name == "profile_families":
        return Workload(name, profile_commands(1e-4, 2e-4),
                        _first_of_each_kind(profile_commands(1e-3, 1e-3)))
    if name == "graph_small_batch":
        data_dir.mkdir(parents=True, exist_ok=True)
        csv_path = data_dir / "boundary.csv"
        write_boundary_csv(csv_path, seed)
        return Workload(name, small_batch_commands((1 / 16, 1 / 32), csv_path, seed),
                        _first_of_each_kind(small_batch_commands((1 / 8,), csv_path, seed)))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
