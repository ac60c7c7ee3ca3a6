import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phimin.cli as cli_module
from phimin import estimates, stability
from phimin.cli import (COMMANDS, ConfigError, RunConfig, main, parse_config,
                        run, serialize_config, write_graph_obj,
                        write_report_json)
from phimin.potential import FAMILIES, PotentialSpec
from phimin.solvers import (AxisRegular, ShootingConfig, rotational_curve,
                            solve_rotational_profile)
from phimin.surface_geometry import GraphPatch, grid_shape, sample_geometry


def _base_config(command, params, potential=None):
    return {
        "potential": potential or {"family": "Linear", "slope": 1, "alpha": None},
        "command": command,
        "command_params": params,
        "seed": 3,
    }


REAPER_PARAMS = {
    "start": {"kind": "point", "x0": 0.0, "z0": 0.0, "theta0": 0.0},
    "s_max": 2.5, "step": 1e-4,
}


def test_parse_valid_config():
    cfg = parse_config(json.dumps(_base_config("SolveRotational", {
        "start": {"kind": "axis", "z0": 0.0}, "s_max": 1.0, "step": 1e-3})))
    assert cfg.command == "SolveRotational"
    assert cfg.potential.params["slope"] == 1.0
    assert cfg.seed == 3


def test_parse_rejects_negative_quadratic_coefficient():
    doc = _base_config("SolveRotational", {
        "start": {"kind": "axis", "z0": 0.0}, "s_max": 1.0, "step": 1e-3},
        potential={"family": "Quadratic", "Lambda": -1, "beta": 1})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("Lambda" in v for v in err.value.violations)


def test_parse_rejects_misspelt_and_malformed_potentials():
    doc = _base_config("PotentialCheck", {"z_lo": 0.1, "z_hi": 1.0, "n_samples": 5})
    for potential, violation in [
            ({"family": "Linear", "slope": 1, "slop": 2}, "potential.slop: unknown key"),
            ({"family": "Linear"}, "potential.slope: missing"),
            (5, "potential: must be an object"),
            ({"family": "Cubic", "slope": 1},
             "potential.family: 'Cubic' not one of "
             "('Constant', 'Linear', 'Quadratic', 'LogPower', 'Series')"),
            ({"family": ["Linear"], "slope": 1},
             "potential.family: ['Linear'] not one of "
             "('Constant', 'Linear', 'Quadratic', 'LogPower', 'Series')")]:
        doc["potential"] = potential
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.violations == [violation]


def test_parse_lets_unexpected_potential_errors_through(monkeypatch):
    def broken(obj):
        raise RuntimeError("bug in spec_from_json")

    monkeypatch.setattr(cli_module, "spec_from_json", broken)
    with pytest.raises(RuntimeError, match="bug in spec_from_json"):
        parse_config(json.dumps(_base_config("PotentialCheck", {
            "z_lo": 0.1, "z_hi": 1.0, "n_samples": 5})))


def test_parse_rejects_malformed_document():
    with pytest.raises(json.JSONDecodeError):
        parse_config("")
    with pytest.raises(json.JSONDecodeError):
        parse_config("{not json")


def test_parse_rejects_unknown_command_and_missing_params():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"potential": {"family": "Linear", "slope": 1},
                                 "command": "Bogus"}))
    assert any(v.startswith("command:") for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_base_config("SolveGraph", {})))
    paths = " ".join(err.value.violations)
    assert "command_params.domain" in paths and "command_params.h" in paths


# the command list and each command's required command_params keys
REQUIRED_PARAMS = {
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


def test_commands_keep_their_order():
    assert COMMANDS == tuple(REQUIRED_PARAMS)


@pytest.mark.parametrize("command", sorted(REQUIRED_PARAMS))
def test_empty_params_report_every_required_key(command):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_base_config(command, {})))
    assert err.value.violations == [
        f"command_params.{key}: missing" for key in REQUIRED_PARAMS[command]]


def test_config_round_trip():
    cfg = parse_config(json.dumps(_base_config("SolveTranslation", REAPER_PARAMS)))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_solve_translation_run(tmp_path):
    cfg = parse_config(json.dumps(_base_config("SolveTranslation", REAPER_PARAMS)))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    assert manifest.exit_code == 0
    data = np.genfromtxt(tmp_path / "surface.csv", delimiter=",", names=True)
    mask = np.abs(data["x"]) <= 1.4
    dev = np.abs(data["z"] + np.log(np.cos(data["x"])))[mask]
    assert dev.max() <= 1e-6
    listed = {a["path"] for a in manifest.artifacts}
    assert "surface.csv" in listed and "solve.json" in listed


def test_profile_csv_header_exact(tmp_path):
    cfg = parse_config(json.dumps(_base_config("SolveTranslation", {
        **REAPER_PARAMS, "step": 1e-3})))
    cfg.output_dir = str(tmp_path)
    run(cfg)
    header = (tmp_path / "surface.csv").read_text().splitlines()[0]
    assert header == "s,x,z,theta,k1,k2,H,K,eta,mu"


def test_obj_export_counts(tmp_path):
    patch = GraphPatch(domain=(0, 2, 0, 2), h=1.0, u=np.zeros((3, 3)))
    path = tmp_path / "mesh.obj"
    write_graph_obj(path, patch)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 9
    assert sum(1 for l in lines if l.startswith("f ")) == 8


def test_empty_report_list(tmp_path):
    path = tmp_path / "empty.json"
    write_report_json(path, [])
    assert json.loads(path.read_text()) == []


def test_audit_area_run_and_gate(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditArea", {
        "surface": {"kind": "rotational", "start": {"kind": "axis", "z0": 0.0},
                    "s_max": 1.6, "step": 1e-3},
        "rho": 0.3})))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    assert manifest.exit_code == 0
    report = json.loads((tmp_path / "area.json").read_text())[0]
    assert report["passed"] and report["hypotheses"]["hypothesis_ok"]
    assert report["values"]["disk_area"] < report["values"]["bound"]


def test_audit_convexity_hypotheses_fail_exits_zero(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditConvexity", {
        "surface": {"kind": "rotational",
                    "start": {"kind": "point", "x0": 1.0, "z0": 0.0,
                              "theta0": 1.5707963267948966},
                    "s_max": 1.2, "step": 1e-3}},
        potential={"family": "Constant", "c0": 0.0})))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    assert manifest.exit_code == 0
    report = _strict_json((tmp_path / "convexity.json").read_text())[0]
    assert report["values"]["verdict"] == "HypothesesFail"
    assert report["values"]["min_K"] < 0.0
    # a vertical plane has eta = 0 at every sample, so the sup of k2/eta is
    # over no sample: null in strict JSON, where it was -Infinity
    cfg = parse_config(json.dumps(_base_config("AuditConvexity", {
        "surface": {"kind": "translation",
                    "start": {"kind": "point", "x0": 1.0, "z0": 0.0,
                              "theta0": 1.5707963267948966},
                    "s_max": 1.0, "step": 0.01}},
        potential={"family": "Constant", "c0": 0.0})))
    cfg.output_dir = str(tmp_path / "plane")
    assert run(cfg).exit_code == 0
    report = _strict_json((tmp_path / "plane" / "convexity.json").read_text())[0]
    assert report["values"]["verdict"] == "HypothesesFail"
    assert report["values"]["theta_sup"] is None


def test_report_json_refuses_a_non_finite_number(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_json(tmp_path / "report.json", [{"values": {"x": value}}])
    assert not (tmp_path / "report.json").exists()


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 readers do."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_determinism_across_runs(tmp_path):
    doc = json.dumps(_base_config("SolveTranslation", {
        **REAPER_PARAMS, "step": 1e-3}))
    outputs = {}
    for label in ("a", "b", "c"):
        cfg = parse_config(doc)
        cfg.output_dir = str(tmp_path / label)
        run(cfg)
        outputs[label] = {
            name: (tmp_path / label / name).read_bytes()
            for name in ("surface.csv", "solve.json")
        }
    assert outputs["a"] == outputs["b"] == outputs["c"]


def test_manifest_hashes_match_files(tmp_path):
    cfg = parse_config(json.dumps(_base_config("PotentialCheck", {
        "z_lo": 0.0, "z_hi": 10.0, "n_samples": 51})))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    import hashlib
    for art in manifest.artifacts:
        digest = hashlib.sha256((tmp_path / art["path"]).read_bytes()).hexdigest()
        assert digest == art["sha256"]


def test_main_exit_codes(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_base_config("SolveTranslation", {
        **REAPER_PARAMS, "step": 1e-3})))
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["--config", str(bad), "--out", str(tmp_path / "bad")]) == 2


def test_domain_exit_inside_a_step_is_a_typed_error(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_base_config("SolveTranslation", {
        "start": {"kind": "point", "x0": 1.0, "z0": 5e-4, "theta0": -np.pi / 2},
        "step": 1e-3, "s_max": 0.1}, potential={"family": "LogPower", "a": 1})))
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert "PotentialDomainError" in capsys.readouterr().err


def test_export_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("Export", {
        "surface": {"kind": "graph", "domain": [0, 1, 0, 1], "h": 0.125,
                    "boundary": {"kind": "constant", "value": 0.0}},
        "formats": ["CSV", "OBJ"]})))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    names = {a["path"] for a in manifest.artifacts}
    assert names == {"surface.csv", "surface.obj"}
    header = (tmp_path / "surface.csv").read_text().splitlines()[0]
    assert header == "i,j,x,y,u,H,K,k1,k2,eta"


def test_export_json_reports_the_solve_residual(tmp_path):
    surface = {"kind": "graph", "domain": [0, 1, 0, 1], "h": 0.125,
               "boundary": {"kind": "constant", "value": 0.0}}
    cfg = parse_config(json.dumps(_base_config("Export", {
        "surface": surface, "formats": ["JSON"]})))
    cfg.output_dir = str(tmp_path / "export")
    manifest = run(cfg)
    solve = parse_config(json.dumps(_base_config("SolveGraph", surface)))
    solve.output_dir = str(tmp_path / "solve")
    run(solve)
    path = tmp_path / "export" / "export.json"
    [doc] = json.loads(path.read_text())
    [solved] = json.loads((tmp_path / "solve" / "solve.json").read_text())
    assert doc["name"] == "export" and doc["passed"]
    assert doc["values"] == {"residual": solved["values"]["residual"]}
    assert manifest.exit_code == 0 and manifest.artifacts == [{
        "path": "export.json",
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}]


ROT_SURF = {"kind": "rotational", "start": {"kind": "axis", "z0": 0.0},
            "s_max": 1.5, "step": 2e-3}


def test_potential_check_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("PotentialCheck", {
        "z_lo": 0.0, "z_hi": 5.0, "n_samples": 21})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    doc = json.loads((tmp_path / "potential_check.json").read_text())[0]
    assert doc["values"]["c1_holds"] and doc["values"]["gamma"] == -1.0


def test_solve_rotational_and_graph_commands(tmp_path):
    cfg = parse_config(json.dumps(_base_config("SolveRotational", {
        "start": {"kind": "axis", "z0": 0.0}, "s_max": 1.0, "step": 1e-3})))
    cfg.output_dir = str(tmp_path / "rot")
    assert run(cfg).exit_code == 0
    cfg2 = parse_config(json.dumps(_base_config("SolveGraph", {
        "domain": [-0.5, 0.5, -0.5, 0.5], "h": 0.0625,
        "boundary": {"kind": "bowl_profile", "s_max": 1.5, "step": 1e-3}})))
    cfg2.output_dir = str(tmp_path / "graph")
    manifest = run(cfg2)
    assert manifest.exit_code == 0
    assert {"surface.csv", "surface.obj", "solve.json"} <= {
        a["path"] for a in manifest.artifacts}


def test_audit_fundamental_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditFundamental", {
        "surface": ROT_SURF, "items": [1, 2, 5]})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    docs = json.loads((tmp_path / "fundamental_identities.json").read_text())
    names = {d["name"] for d in docs}
    assert "weighted_minimality" in names and "height_laplacian" in names


def test_audit_stability_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditStability", {
        "surface": ROT_SURF})))
    cfg.output_dir = str(tmp_path)
    manifest = run(cfg)
    assert manifest.exit_code == 0
    doc = json.loads((tmp_path / "stability.json").read_text())[0]
    assert doc["values"]["lambda1"] > 0.0
    assert (tmp_path / "eigenfunction.csv").exists()


def test_audit_stability_assembles_once(tmp_path, monkeypatch):
    real = stability.build_assembly
    calls = []
    monkeypatch.setattr(stability, "build_assembly",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    cfg = parse_config(json.dumps(_base_config("AuditStability", {
        "surface": ROT_SURF})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    assert len(calls) == 1
    # the Rayleigh trials are those of a second assembly with the same seed
    spec = cfg.potential
    curve = solve_rotational_profile(spec, ShootingConfig(
        start=AxisRegular(0.0), s_max=ROT_SURF["s_max"], step=ROT_SURF["step"])).surface
    field = sample_geometry(curve, spec)
    interior = np.where(field.interior_mask(2))[0]
    asm = real(field, spec, interior)
    rng = np.random.default_rng(cfg.seed)
    trials = [asm.rayleigh(rng.standard_normal(interior.size)) for _ in range(20)]
    doc = json.loads((tmp_path / "stability.json").read_text())[0]
    assert doc["values"]["rayleigh_trial_min"] == min(trials)


def _main_stability(tmp_path, label, *flags, seed=3):
    """main on an AuditStability config of the seed, with the extra flags,
    into tmp_path/label: (exit code, manifest, stability report)."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({**_base_config("AuditStability", {"surface": ROT_SURF}),
                                "seed": seed}))
    out = tmp_path / label
    code = main(["--config", str(path), "--out", str(out), *flags])
    return (code, json.loads((out / "manifest.json").read_text()),
            json.loads((out / "stability.json").read_text())[0])


def test_config_seed_sets_only_the_rayleigh_trials(tmp_path):
    _, manifest, doc = _main_stability(tmp_path, "three")
    _, seeded, seeded_doc = _main_stability(tmp_path, "seven", seed=7)
    assert (manifest["config"]["seed"], seeded["config"]["seed"]) == (3, 7)
    # the Rayleigh trials are the only seeded values
    assert seeded_doc["values"]["lambda1"] == doc["values"]["lambda1"]
    assert (seeded_doc["values"]["rayleigh_trial_min"]
            != doc["values"]["rayleigh_trial_min"])


def test_verbose_prints_one_line_per_artifact(tmp_path, capsys):
    code, manifest, _ = _main_stability(tmp_path, "out", "--verbose")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(manifest["artifacts"]) == 2
    assert lines[:-1] == [f"wrote {art['path']}  sha256={art['sha256'][:16]}..."
                          for art in manifest["artifacts"]]
    assert lines[-1].startswith("AuditStability: exit 0 (")


# one config of every command kind on a profile surface, then one graph
# command: run in a fresh interpreter, the profile commands must leave scipy
# unloaded, and the graph one must load it, or the check could not fail
TRANS_SURF = {"kind": "translation", "s_max": 1.4, "step": 2e-3,
              "start": {"kind": "point", "x0": 0.0, "z0": 0.0, "theta0": 0.0}}
PROFILE_COMMANDS = [
    ("PotentialCheck", {"z_lo": 0.0, "z_hi": 5.0, "n_samples": 21}),
    ("SolveRotational", {"start": {"kind": "axis", "z0": 0.0}, "s_max": 1.0, "step": 2e-3}),
    ("SolveTranslation", {k: v for k, v in TRANS_SURF.items() if k != "kind"}),
    ("AuditFundamental", {"surface": ROT_SURF, "items": [1, 2, 3, 4, 5, 6, 7, 8]}),
    ("AuditStability", {"surface": ROT_SURF}),
    ("AuditStability", {"surface": TRANS_SURF}),
    ("AuditArea", {"surface": ROT_SURF, "rho": 0.25}),
    ("AuditMonotonicity", {"surface": ROT_SURF, "radii": [0.1, 0.2], "epsilon": 0.9}),
    ("AuditCurvatureRatio", {"surface": TRANS_SURF}),
    ("AuditConvexity", {"surface": ROT_SURF}),
    ("Blowup", {"surface": {**ROT_SURF, "s_max": 6.0}, "heights": [1.0, 2.0],
                "scales": [2.0, 4.0], "model": "Plane"}),
    ("Export", {"surface": ROT_SURF, "formats": ["CSV", "JSON"]}),
]
LOADED_SCIPY = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import phimin.cli as cli
seen = [["import phimin.cli", 0, scipy_modules()]]
for k, config in enumerate(json.loads(open(sys.argv[1]).read())):
    parsed = cli.parse_config(json.dumps(config))
    parsed.output_dir = f"{sys.argv[2]}/{k}"
    seen.append([config["command"], cli.run(parsed).exit_code, scipy_modules()])
print(json.dumps(seen))
"""


def test_profile_commands_load_no_scipy(tmp_path):
    configs = [_base_config(command, params) for command, params in PROFILE_COMMANDS]
    configs.append(_base_config("SolveGraph", {
        "domain": [0, 1, 0, 1], "h": 0.25, "boundary": {"kind": "constant", "value": 0.0}}))
    (tmp_path / "configs.json").write_text(json.dumps(configs))
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LOADED_SCIPY, str(tmp_path / "configs.json"),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    *profile, (graph, graph_code, graph_scipy) = json.loads(proc.stdout)
    assert [(command, code) for command, code, _ in profile] == [
        ("import phimin.cli", 0)] + [(command, 0) for command, _ in PROFILE_COMMANDS]
    assert [(command, loaded) for command, _, loaded in profile if loaded] == []
    assert (graph, graph_code) == ("SolveGraph", 0) and "scipy.sparse" in graph_scipy


def test_audit_monotonicity_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditMonotonicity", {
        "surface": ROT_SURF, "radii": [0.1, 0.2, 0.3], "epsilon": 0.9})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "r,o_value" and len(lines) == 4


def test_audit_curvature_ratio_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditCurvatureRatio", {
        "surface": ROT_SURF})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    doc = json.loads((tmp_path / "curvature_ratio.json").read_text())[0]
    assert 0.5 < doc["values"]["sup"] < 1.0


def test_csv_boundary_data(tmp_path):
    h = 0.125
    n = int(round(1.0 / h)) + 1
    xs = h * np.arange(n)
    lines = ["x,y,value"]
    for i in range(n):
        for j in range(n):
            if i in (0, n - 1) or j in (0, n - 1):
                lines.append(f"{float(xs[i])!r},{float(xs[j])!r},0.25")
    path = tmp_path / "boundary.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = parse_config(json.dumps(_base_config("SolveGraph", {
        "domain": [0, 1, 0, 1], "h": h,
        "boundary": {"kind": "csv", "path": str(path)}},
        potential={"family": "Constant", "c0": 0.0})))
    cfg.output_dir = str(tmp_path / "out")
    assert run(cfg).exit_code == 0
    data = np.genfromtxt(tmp_path / "out" / "surface.csv", delimiter=",",
                         names=True)
    assert np.allclose(data["u"], 0.25)  # constant data: flat plane


@pytest.mark.parametrize("command, params, path", [
    ("SolveGraph", {}, "command_params.boundary.path"),
    ("Export", {"formats": ["CSV"]}, "command_params.surface.boundary.path")])
def test_csv_boundary_missing_a_node_exits_2_with_its_path(tmp_path, capsys, command,
                                                           params, path):
    # the CSV lists the edge nodes of the h = 1/4 grid; the h = 1/8 grid's
    # second node (0, 0.125) is not among them
    coarse = [k / 4 for k in range(5)]
    lines = ["x,y,value"] + [f"{x!r},{y!r},0.25" for x in coarse for y in coarse
                             if x in (0.0, 1.0) or y in (0.0, 1.0)]
    missing = tmp_path / "missing.csv"
    # file name -> (its lines, or None for no file; the refusal after the path)
    tables = {
        "boundary.csv": (lines, "node (0.0, 0.125) missing from the CSV"),
        # one row, the node (0, 0): a table of one node, not a 0-d array
        "one_row.csv": (lines[:2], "node (0.0, 0.125) missing from the CSV"),
        "no_value.csv": (["x,y,height"] + lines[1:], "no column value in the CSV"),
        # a value that is not a number reads as NaN
        "nan_value.csv": (lines[:3] + [lines[3].replace("0.25", "abc")] + lines[4:],
                          "data row 3 of the CSV has an x, y or value that is "
                          "not a finite number"),
        "inf_x.csv": (lines[:2] + ["inf,0.0,0.25"] + lines[2:],
                      "data row 2 of the CSV has an x, y or value that is "
                      "not a finite number"),
        "missing.csv": (None, f"cannot read the CSV: {missing} not found."),
    }
    for name, (table, refusal) in tables.items():
        if table is not None:
            (tmp_path / name).write_text("\n".join(table) + "\n")
        surface = {"kind": "graph", "domain": [0, 1, 0, 1], "h": 0.125,
                   "boundary": {"kind": "csv", "path": str(tmp_path / name)}}
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(_base_config(
            command, {"surface": surface, **params} if params else surface,
            {"family": "Constant", "c0": 0.0})))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {path}: {refusal}\n"


def test_blowup_command(tmp_path):
    cfg = parse_config(json.dumps(_base_config("Blowup", {
        "surface": {"kind": "rotational", "start": {"kind": "axis", "z0": 0.0},
                    "s_max": 16.0, "step": 4e-3},
        "heights": [4.0, 8.0], "scales": [4.0, 8.0], "model": "Plane"})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    doc = json.loads((tmp_path / "blowup.json").read_text())[0]
    stages = doc["values"]["stages"]
    assert stages[0]["c2"] > stages[1]["c2"]


def test_graph_obj_from_export_is_triangulated(tmp_path):
    cfg = parse_config(json.dumps(_base_config("Export", {
        "surface": {"kind": "graph", "domain": [0, 1, 0, 1], "h": 0.25,
                    "boundary": {"kind": "constant", "value": 0.0}},
        "formats": ["OBJ"]})))
    cfg.output_dir = str(tmp_path)
    run(cfg)
    lines = (tmp_path / "surface.obj").read_text().splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    n_f = sum(1 for l in lines if l.startswith("f "))
    assert n_v == 25 and n_f == 2 * 16


BOWL_GRAPH = {"kind": "graph", "domain": [-1, 1, -1, 1], "h": 0.0625,
              "boundary": {"kind": "bowl_profile"}}


def test_audits_and_export_refuse_unconverged_graph(tmp_path):
    # one Newton step from the nested start leaves residual 6.75e-4
    surface = {**BOWL_GRAPH, "max_iters": 1}
    cases = [("SolveGraph", dict(surface), 1),
             ("AuditConvexity", {"surface": surface}, 2),
             ("AuditStability", {"surface": surface}, 2),
             ("Export", {"surface": surface, "formats": ["CSV"]}, 2)]
    for command, params, code in cases:
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(_base_config(command, params)))
        assert main(["--config", str(config_path),
                     "--out", str(tmp_path / command)]) == code


def test_one_node_translation_stability_exits_2_in_one_line(tmp_path, capsys):
    # five samples leave one interior node at margin 2, too short to set
    # the ruling width
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config("AuditStability", {
        "surface": {"kind": "translation", **REAPER_PARAMS, "s_max": 0.04,
                    "step": 0.01}})))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RulingWidthError: a one-node translation region")
    assert err.count("\n") == 1


def test_graph_height_hessian_identity_on_grim_reaper(tmp_path):
    # every item a graph supports, in the order asked for
    cfg = parse_config(json.dumps(_base_config("AuditFundamental", {
        "surface": {"kind": "graph", "domain": [-1, 1, -1, 1], "h": 0.03125,
                    "boundary": {"kind": "grim_reaper"}},
        "items": [1, 2, 3, 5]})))
    cfg.output_dir = str(tmp_path)
    assert run(cfg).exit_code == 0
    docs = json.loads((tmp_path / "fundamental_identities.json").read_text())
    res = {d["name"]: d["values"]["max_abs_residual"] for d in docs}
    assert list(res) == ["weighted_minimality", "gradient_decomposition",
                         "slope_curvature_balance", "height_hessian",
                         "height_laplacian"]
    # item 1 compares a difference quotient of eta with its exact 1-form
    # (7.4e-4 here); items 2, 3 and 5 are algebraic in the sampled fields
    assert res["gradient_decomposition"] <= 1.5e-3
    assert max(res[name] for name in list(res)[2:]) <= 1e-8


def test_graph_audits_default_to_the_middle_node(tmp_path):
    # the corner node 0 would put every ball on the patch boundary
    for command, params in (("AuditArea", {"rho": 0.3}),
                            ("AuditMonotonicity", {"radii": [0.1, 0.2, 0.3],
                                                   "epsilon": 0.9})):
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(_base_config(
            command, {"surface": BOWL_GRAPH, **params})))
        out = tmp_path / command
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
    area = json.loads((tmp_path / "AuditArea" / "area.json").read_text())[0]
    assert area["values"]["center_index"] == 16 * 33 + 16


# -- table writers against the per-row format ---------------------------------

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -5e-324, 1.7976931348623157e308]


def _old_table(header, rows, sep=",", prefix=""):
    """The per-row text: f"{i}" for an int, repr(float(v)) for a float."""
    lines = [] if header is None else [header]
    for row in rows:
        lines.append(prefix + sep.join(f"{v}" if isinstance(v, int)
                                       else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _awkward_values(rng, n):
    """Floats over the whole exponent range, with the special values spread
    across the row blocks."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[rng.choice(n, len(SPECIALS), replace=False)] = SPECIALS
    v[:len(SPECIALS)] = SPECIALS
    return v


@pytest.fixture
def awkward_graph():
    from types import SimpleNamespace
    rng = np.random.default_rng(7)
    nx, ny = 67, 71  # 4757 nodes, 9240 faces: neither a whole number of blocks
    patch = GraphPatch(domain=(-1, 0.98, 0.5, 2.6), h=0.03,
                       u=_awkward_values(rng, nx * ny).reshape(nx, ny))
    return SimpleNamespace(source=patch, **{
        name: _awkward_values(rng, nx * ny) for name in ("H", "K", "k1", "k2", "eta")})


def test_graph_csv_bytes_match_per_row_format(tmp_path, awkward_graph):
    from phimin.cli import write_graph_csv
    field, patch = awkward_graph, awkward_graph.source
    rows = []
    for i in range(patch.nx):
        for j in range(patch.ny):
            k = i * patch.ny + j
            rows.append((i, j, patch.domain[0] + i * patch.h,
                         patch.domain[2] + j * patch.h, patch.u[i, j], field.H[k],
                         field.K[k], field.k1[k], field.k2[k], field.eta[k]))
    path = tmp_path / "surface.csv"
    write_graph_csv(path, field)
    assert path.read_bytes() == _old_table("i,j,x,y,u,H,K,k1,k2,eta", rows).encode()


def test_graph_obj_bytes_match_per_row_format(tmp_path, awkward_graph):
    patch = awkward_graph.source
    text = _old_table(None, [
        (patch.domain[0] + i * patch.h, patch.domain[2] + j * patch.h, patch.u[i, j])
        for i in range(patch.nx) for j in range(patch.ny)], sep=" ", prefix="v ")
    faces = []
    for i in range(patch.nx - 1):
        for j in range(patch.ny - 1):
            v00, v10 = i * patch.ny + j + 1, (i + 1) * patch.ny + j + 1
            faces += [(v00, v10, v10 + 1), (v00, v10 + 1, v00 + 1)]
    text += _old_table(None, faces, sep=" ", prefix="f ")
    path = tmp_path / "surface.obj"
    write_graph_obj(path, patch)
    assert path.read_bytes() == text.encode()


def test_eigenfunction_csv_bytes_match_per_row_format(tmp_path, monkeypatch):
    from phimin import stability
    real, seen = stability.first_eigenvalue, []

    def with_specials(*args, **kwargs):
        spectrum = real(*args, **kwargs)
        spectrum.eigenfunction[:len(SPECIALS)] = SPECIALS
        seen.append(spectrum.eigenfunction.copy())
        return spectrum

    monkeypatch.setattr(stability, "first_eigenvalue", with_specials)
    cfg = parse_config(json.dumps(_base_config("AuditStability", {
        "surface": {**ROT_SURF, "step": 2.5e-4}})))
    cfg.output_dir = str(tmp_path)
    run(cfg)
    (values,) = seen
    assert values.size == 6001
    want = _old_table("sample,value", enumerate(values.tolist()))
    assert (tmp_path / "eigenfunction.csv").read_bytes() == want.encode()


def test_convexity_csv_bytes_match_per_row_format(tmp_path):
    from phimin.cli import _solve_surface
    from phimin.surface_geometry import sample_geometry
    surface = {"kind": "rotational",
               "start": {"kind": "point", "x0": 1.0, "z0": 0.0,
                         "theta0": 1.5707963267948966},
               "s_max": 1.2, "step": 2.5e-4}
    cfg = parse_config(json.dumps(_base_config(
        "AuditConvexity", {"surface": surface},
        potential={"family": "Constant", "c0": 0.0})))
    cfg.output_dir = str(tmp_path)
    run(cfg)
    field = sample_geometry(
        _solve_surface(cfg.potential, surface, "command_params.surface").surface,
        cfg.potential)
    k_hi = np.maximum(field.k1, field.k2)
    rows = [(i, field.K[i], k_hi[i] / field.eta[i] if field.eta[i] > 1e-10
             else float("nan")) for i in range(field.n_samples)]
    data = (tmp_path / "convexity_samples.csv").read_bytes()
    assert b",nan\n" in data
    assert data == _old_table("sample,K,k2_over_eta", rows).encode()


# -- the table writer against a pinned copy of the per-row writer -------------

def _per_row_rows(*columns, sep=",", prefix=""):
    """The earlier writer: every row formatted by one "%r" line."""
    line = prefix + sep.join(["%r"] * len(columns)) + "\n"
    n = min(len(c) for c in columns)
    for start in range(0, n, cli_module._ROW_BLOCK):
        block = [np.asarray(c)[start:start + cli_module._ROW_BLOCK].tolist()
                 for c in columns]
        yield "".join(line % row for row in zip(*block))


def _bits(x):
    return int(np.array(x, np.float64).view(np.int64))


INT64 = np.iinfo(np.int64)
# bit patterns of +-0, NaNs (negative and with payloads), +-inf, subnormals,
# the extreme normals, and the values about 1e16 and 1e-5 where repr turns
# to the exponent form
FLOAT_BITS = [_bits(v) for v in (
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 9999999999999998.0,
    -1e16, 1e-5, 9.999999999999999e-06, 1e-4, 0.1, 1.0)] + [
    0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001,
    0x7FF4000000000123, -0x000FFFFFFFFFFFFF]
INT_VALUES = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]


@st.composite
def _tables(draw):
    """(columns, sep, prefix) of a table whose columns may differ in length."""
    block = cli_module._ROW_BLOCK
    n_rows = draw(st.sampled_from([0, 1, block - 1, block, block + 1])
                  | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        length = n_rows + draw(st.sampled_from([0, 0, 1, 7]))
        if draw(st.booleans()):
            pool = FLOAT_BITS + draw(st.lists(st.integers(INT64.min, INT64.max)))
            columns.append(rng.choice(np.array(pool, np.int64), length)
                           .view(np.float64))
        else:
            pool = INT_VALUES + draw(st.lists(st.integers(INT64.min, INT64.max)))
            columns.append(rng.choice(np.array(pool, np.int64), length))
    sep, prefix = draw(st.sampled_from([(",", ""), (" ", "v "), (" ", "f ")]))
    return columns, sep, prefix


def _column(keys, kind):
    """The int64 keys as a float column (their bit patterns) or an int one."""
    return keys.view(np.float64) if kind == "f" else keys


# lists of lines, so that a failure reports the first differing line rather
# than a diff of two texts of 10**6 lines
def _written(keys, kind):
    return "".join(cli_module._rows(_column(keys, kind))).splitlines(keepends=True)


def _reprs(keys, kind):
    return [f"{v!r}\n" for v in _column(keys, kind).tolist()]


def _word_keys(seed):
    """Seeded int64 keys: 10**6 random bit patterns (NaN payloads,
    subnormals and both of repr's notations among them), 2*10**5 floats
    spread over [1e-4, 1e16), where the words are orjson's, integral floats,
    the neighbours of the notation switches (orjson's at 1e-9, repr's at
    1e-4 and 1e16) and the edge values."""
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-4, 16, 2 * 10**5)
    switches = np.array([1e-9, 1e-4, 1e16])
    floats = np.concatenate([
        spread, np.round(spread[:10**4]), switches,
        np.nextafter(switches, 0.0), np.nextafter(switches, np.inf)])
    floats = np.concatenate([floats, -floats])
    return np.unique(np.concatenate([
        np.array(FLOAT_BITS + INT_VALUES, np.int64), floats.view(np.int64),
        rng.integers(INT64.min, INT64.max, 10**6, np.int64, endpoint=True)]))


WORD_KEYS = _word_keys(12)


# each key is written as one line of a one-column float (its bit pattern)
# or int table
@pytest.mark.parametrize("kind", ["f", "i"])
def test_words_match_repr(kind):
    assert _written(WORD_KEYS, kind) == _reprs(WORD_KEYS, kind)


@pytest.mark.parametrize("kind", ["f", "i"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_words_match_repr_about_one_block(kind, offset):
    edges = np.array(FLOAT_BITS if kind == "f" else INT_VALUES, np.int64)
    rest = np.random.default_rng(offset + 1).choice(
        WORD_KEYS, cli_module._ROW_BLOCK + offset - edges.size, replace=False)
    keys = np.unique(np.concatenate([edges, rest]))
    assert keys.size == cli_module._ROW_BLOCK + offset
    assert _written(keys, kind) == _reprs(keys, kind)


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_rows_match_the_per_row_writer(table):
    columns, sep, prefix = table
    got = "".join(cli_module._rows(*columns, sep=sep, prefix=prefix))
    assert got == "".join(_per_row_rows(*columns, sep=sep, prefix=prefix))


# the values at and next to the notation switches (orjson's at 1e-9, repr's
# at 1e-4 and 1e16) and at +-0.0, with inf, nan and subnormals, both signs
_SWITCHES = np.array([0.0, 1e-9, 1e-4, 1e16])
_NOTATION_EDGES = np.concatenate([
    _SWITCHES, np.nextafter(_SWITCHES, 0.0), np.nextafter(_SWITCHES, np.inf),
    [np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072009e-308]])
_NOTATION_EDGES = np.concatenate([_NOTATION_EDGES, -_NOTATION_EDGES])


@st.composite
def _notation_tables(draw):
    """(columns, sep, prefix): float columns that mix ordinary values with
    the notation edges in a drawn share of their entries, and int runs."""
    block = cli_module._ROW_BLOCK
    n_rows = draw(st.sampled_from([block + 1, 2 * block + 5]) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from("ffi"), min_size=1, max_size=6)):
        if kind == "i":
            columns.append(rng.integers(INT64.min, INT64.max, n_rows, endpoint=True))
            continue
        col = rng.normal(size=n_rows) * 10.0 ** rng.integers(-12, 18, n_rows)
        edge = rng.random(n_rows) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        col[edge] = rng.choice(_NOTATION_EDGES, np.count_nonzero(edge))
        columns.append(col)
    sep, prefix = draw(st.sampled_from([(",", ""), (" ", "v "), (",", "p ")]))
    return columns, sep, prefix


@settings(max_examples=40, deadline=None)
@given(_notation_tables())
def test_rows_splice_repr_only_where_the_notations_differ(table):
    columns, sep, prefix = table
    want = "".join(prefix + sep.join(map(repr, row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))
    assert "".join(cli_module._rows(*columns, sep=sep, prefix=prefix)) == want


@pytest.mark.parametrize("column", [np.array([True, False]),
                                    np.array([1.0, None], dtype=object)])
def test_rows_refuse_columns_that_are_neither_float_nor_int(column):
    with pytest.raises(TypeError):
        list(cli_module._rows(np.arange(2.0), column))


def test_atomic_write_removes_its_temporary_file_when_the_chunks_raise(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old\n")

    def chunks():
        yield "a,b\n"
        raise RuntimeError("column failed")

    with pytest.raises(RuntimeError, match="column failed"):
        cli_module._atomic_write(path, chunks())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


# -- each audit owns its gate ---------------------------------------------------

# gated command -> (command_params beyond the surface, report file)
GATED = {"AuditStability": ({}, "stability.json"),
         "AuditArea": ({"rho": 0.3}, "area.json"),
         "AuditMonotonicity": ({"radii": [0.1, 0.2, 0.3], "epsilon": 0.9},
                               "monotonicity.json"),
         "AuditConvexity": ({}, "convexity.json")}


def _library_gate(command, cfg, field, center):
    """(hypotheses, tolerances, passed) of the library audit of the command."""
    spec, p = cfg.potential, cfg.command_params
    if command == "AuditStability":
        rep = stability.stability_audit(field, spec, cfg.seed)
        return {"mean_convex": rep.mean_convex}, {"lambda_floor": rep.lambda_floor}, rep.passed
    if command == "AuditArea":
        rep = estimates.geodesic_disk_area_check(field, center, p["rho"], spec)
        return {"hypothesis_ok": rep.hypothesis_ok}, {}, rep.passed
    if command == "AuditMonotonicity":
        rep = estimates.density_monotonicity(field, center, p["radii"], spec, p["epsilon"])
        return ({"c1_and_minimal": rep.c1_and_minimal}, {"clip": list(rep.tolerance)},
                rep.monotone)
    rep = estimates.convexity_report(field, spec)
    return rep.hypotheses, {"tol": rep.tol}, rep.verdict != "NotConvex"


@pytest.mark.parametrize("surface, center", [(ROT_SURF, 0), (BOWL_GRAPH, 16 * 33 + 16)],
                         ids=["rotational", "graph"])
@pytest.mark.parametrize("command", sorted(GATED))
def test_library_audit_gives_the_cli_verdict(tmp_path, command, surface, center):
    params, report = GATED[command]
    cfg = parse_config(json.dumps(_base_config(command, {
        "surface": surface, **params})))
    cfg.output_dir = str(tmp_path)
    code = run(cfg).exit_code
    doc = json.loads((tmp_path / report).read_text())[0]
    hypotheses, tolerances, passed = _library_gate(
        command, cfg, cli_module._surface_field(cfg)[1], center)
    assert (hypotheses, tolerances, passed) == (
        doc["hypotheses"], doc["tolerances"], doc["passed"])
    assert code == int(all(hypotheses.values()) and not passed)


# -- center_index --------------------------------------------------------------

BOWL_NODES = 33 * 33


@pytest.mark.parametrize("center", [-1, BOWL_NODES, 2.5, True])
def test_center_index_outside_the_samples_is_a_config_error(tmp_path, capsys, center):
    config_path = tmp_path / "area.json"
    config_path.write_text(json.dumps(_base_config("AuditArea", {
        "surface": BOWL_GRAPH, "rho": 0.3, "center_index": center})))
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert "ConfigError: command_params.center_index:" in capsys.readouterr().err


def test_center_index_off_the_axis_of_a_rotational_profile_is_a_config_error(
        tmp_path, capsys):
    config_path = tmp_path / "area.json"
    config_path.write_text(json.dumps(_base_config("AuditArea", {
        "surface": ROT_SURF, "rho": 0.3, "center_index": 17})))
    assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert "ConfigError: command_params.center_index: 17" in capsys.readouterr().err


@pytest.mark.parametrize("params, center", [({}, 16 * 33 + 16),
                                            ({"center_index": 500}, 500)])
def test_center_index_default_and_in_range(tmp_path, params, center):
    cfg = parse_config(json.dumps(_base_config("AuditArea", {
        "surface": BOWL_GRAPH, "rho": 0.3, **params})))
    cfg.output_dir = str(tmp_path)
    run(cfg)
    area = json.loads((tmp_path / "area.json").read_text())[0]
    assert area["values"]["center_index"] == center


# -- the key table -------------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_config_parses(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    texts = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 3, tmp_path / name)
        texts += [cmd.config_text(3) for cmd in wl.warmup + wl.commands]
    assert texts
    for text in texts:
        parse_config(text)


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


GRAPH_PARAMS = {"domain": [-1, 1, -1, 1], "h": 0.25, "boundary": {"kind": "grim_reaper"}}
AXIS = {"kind": "axis", "z0": 0.0}
ROT_PARAMS = {"start": AXIS, "s_max": 1.0, "step": 1e-2}

# one unknown and one missing key at each level, and an unknown kind at
# each level that has kinds
KEY_CASES = {
    "top-unknown": ({**_base_config("SolveGraph", GRAPH_PARAMS), "sede": 3},
                    "sede: unknown key"),
    "top-missing": (_without(_base_config("SolveGraph", GRAPH_PARAMS), "potential"),
                    "potential: missing"),
    "params-unknown": (_base_config("SolveGraph", {**GRAPH_PARAMS, "tol_residul": 1.0}),
                       "command_params.tol_residul: unknown key"),
    "params-missing": (_base_config("SolveGraph", _without(GRAPH_PARAMS, "h")),
                       "command_params.h: missing"),
    "params-kind": (_base_config("SolveRotational", {**ROT_PARAMS, "kind": "graph"}),
                    "command_params.kind: 'graph' not one of ('rotational',)"),
    "surface-unknown": (_base_config("AuditStability", {
        "surface": {**BOWL_GRAPH, "tol": 1e-9}}), "command_params.surface.tol: unknown key"),
    "surface-missing": (_base_config("AuditStability", {
        "surface": _without(BOWL_GRAPH, "h")}), "command_params.surface.h: missing"),
    "surface-kind": (_base_config("AuditStability", {
        "surface": {**BOWL_GRAPH, "kind": "sphere"}}),
        "command_params.surface.kind: 'sphere' not one of "
        "('rotational', 'translation', 'graph')"),
    "start-unknown": (_base_config("SolveRotational", {
        **ROT_PARAMS, "start": {**AXIS, "x0": 1.0}}),
        "command_params.start.x0: unknown key"),
    "start-missing": (_base_config("AuditConvexity", {"surface": {
        "kind": "rotational", **ROT_PARAMS, "start": {"kind": "point", "x0": 1, "z0": 0}}}),
        "command_params.surface.start.theta0: missing"),
    "start-kind": (_base_config("SolveRotational", {**ROT_PARAMS, "start": {"z0": 0.0}}),
                   "command_params.start.kind: None not one of ('axis', 'point')"),
    "boundary-unknown": (_base_config("SolveGraph", {
        **GRAPH_PARAMS, "boundary": {"kind": "grim_reaper", "value": 1.0}}),
        "command_params.boundary.value: unknown key"),
    "boundary-missing": (_base_config("Export", {"surface": {
        "kind": "graph", **GRAPH_PARAMS, "boundary": {"kind": "csv"}}, "formats": ["CSV"]}),
        "command_params.surface.boundary.path: missing"),
    "boundary-kind": (_base_config("SolveGraph", {
        **GRAPH_PARAMS, "boundary": {"kind": "bowl"}}),
        "command_params.boundary.kind: 'bowl' not one of "
        "('constant', 'grim_reaper', 'bowl_profile', 'csv')"),
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_unknown_and_missing_keys_exit_2_with_their_path(tmp_path, capsys, case):
    config, violation = KEY_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"


# the command_params options that became constants, each with a value
@pytest.mark.parametrize("command, params, key", [
    ("AuditStability", {"surface": ROT_SURF, "lambda_floor": 0.1}, "lambda_floor"),
    ("AuditStability", {"surface": ROT_SURF, "tol": 1e-9}, "tol"),
    ("AuditStability", {"surface": ROT_SURF, "n_trials": 20}, "n_trials"),
    ("AuditArea", {"surface": ROT_SURF, "rho": 0.3, "gamma": -1.0}, "gamma"),
    ("AuditMonotonicity", {"surface": ROT_SURF, "radii": [0.1, 0.2], "epsilon": 0.9,
                           "minimality_tol": 1e-4}, "minimality_tol"),
    ("AuditConvexity", {"surface": ROT_SURF, "tol": 1e-5}, "tol"),
    ("SolveGraph", {**GRAPH_PARAMS, "boundary": {"kind": "bowl_profile", "z0": 0.0}},
     "boundary.z0"),
    ("SolveGraph", {**GRAPH_PARAMS, "initial_guess": "harmonic"}, "initial_guess"),
])
def test_removed_options_are_config_errors(command, params, key):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_base_config(command, params)))
    assert err.value.violations == [f"command_params.{key}: unknown key"]


@pytest.mark.parametrize("boundary, code", [({"kind": "bowl_profile"}, 2),
                                            ({"kind": "bowl_profile", "s_max": 4.5}, 0)])
def test_bowl_profile_boundary_reaches_every_edge_node(tmp_path, capsys, boundary, code):
    # the Linear bowl shot to s = 3 ends at x = 2.3477, inside the corner
    # radius 2 sqrt 2 of [-2, 2]^2; shot to s = 4.5 it reaches x = 3.008
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config("SolveGraph", {
        "domain": [-2, 2, -2, 2], "h": 0.125, "boundary": boundary})))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert ("ConfigError: command_params.boundary.s_max:"
            in capsys.readouterr().err) == (code == 2)


def _graph_surface(**params):
    return {"kind": "graph", "domain": [-1, 1, -1, 1], "h": 0.25,
            "boundary": {"kind": "grim_reaper"}, **params}


BLOWUP_PARAMS = {"surface": ROT_SURF, "heights": [0.1, 0.2], "scales": [2.0, 4.0],
                 "model": "Plane"}
DOMAIN_RULE = ("must be four numbers [x_lo, x_hi, y_lo, y_hi] with x_lo < x_hi "
               "and y_lo < y_hi")
# case -> (command, command_params, the one violation[, potential])
VALUE_CASES = {
    "domain-two": ("AuditConvexity", {"surface": _graph_surface(domain=[-1, 1])},
                   f"command_params.surface.domain: {DOMAIN_RULE}"),
    "domain-reversed": ("AuditConvexity",
                        {"surface": _graph_surface(domain=[1, -1, -1, 1])},
                        f"command_params.surface.domain: {DOMAIN_RULE}"),
    "h-string": ("AuditConvexity", {"surface": _graph_surface(h="0.25")},
                 "command_params.surface.h: must be a positive number"),
    "tol-bool": ("AuditConvexity", {"surface": _graph_surface(tol_residual=True)},
                 "command_params.surface.tol_residual: must be a positive number"),
    "max-iters-float": ("AuditConvexity", {"surface": _graph_surface(max_iters=2.5)},
                        "command_params.surface.max_iters: must be a positive integer"),
    "max-iters-zero": ("AuditConvexity", {"surface": _graph_surface(max_iters=0)},
                       "command_params.surface.max_iters: must be a positive integer"),
    "step-string": ("AuditConvexity", {"surface": {**ROT_SURF, "step": "0.01"}},
                    "command_params.surface.step: must be a positive number"),
    "s-max-bool": ("AuditConvexity", {"surface": {**ROT_SURF, "s_max": False}},
                   "command_params.surface.s_max: must be a number"),
    "z0-string": ("AuditConvexity",
                  {"surface": {**ROT_SURF, "start": {"kind": "axis", "z0": "0"}}},
                  "command_params.surface.start.z0: must be a number"),
    "z-hi-string": ("PotentialCheck", {"z_lo": 0.1, "z_hi": "1", "n_samples": 5},
                    "command_params.z_hi: must be a number"),
    "n-samples-float": ("PotentialCheck", {"z_lo": 0.1, "z_hi": 1.0, "n_samples": 5.0},
                        "command_params.n_samples: must be an integer"),
    **{case: ("AuditFundamental", {"surface": ROT_SURF, "items": items},
              "command_params.items: must be a non-empty list drawn from "
              "(1, 2, 3, 4, 5, 6, 7, 8)")
       for case, items in [("items-string", [1, "2"]), ("items-empty", []),
                           ("items-unknown", [1, 9])]},
    **{case: ("AuditMonotonicity", {"surface": ROT_SURF, "radii": radii, "epsilon": 0.9},
              "command_params.radii: must be a non-empty list of positive numbers")
       for case, radii in [("radii-number", 0.1), ("radii-zero", [0.0, 0.1]),
                           ("radii-negative", [-0.1]), ("radii-empty", [])]},
    "step-at-s-max": ("SolveRotational", {**ROT_PARAMS, "step": 1.0},
                      "command_params.step: must be below s_max"),
    "step-above-surface-s-max": ("AuditConvexity",
                                 {"surface": {**ROT_SURF, "step": 2.0}},
                                 "command_params.surface.step: must be below s_max"),
    "step-above-bowl-default-s-max": (
        "SolveGraph", {**GRAPH_PARAMS, "boundary": {"kind": "bowl_profile", "step": 4.0}},
        "command_params.boundary.step: must be below s_max"),
    "s-max-negative": ("SolveTranslation",
                       {"start": {"kind": "point", "x0": 0.0, "z0": 0.0, "theta0": 0.0},
                        "s_max": -1.0, "step": 1e-2},
                       "command_params.step: must be below s_max"),
    **{case: ("Export", {"surface": surface, "formats": formats},
              "command_params.formats: OBJ needs a graph surface")
       for case, surface, formats in [
           ("formats-obj-rotational", ROT_SURF, ["OBJ"]),
           ("formats-csv-obj-translation",
            {"kind": "translation", "start": {"kind": "point", "x0": 0.0, "z0": 0.0,
                                              "theta0": 0.0},
             "s_max": 1.0, "step": 1e-2}, ["CSV", "OBJ"])]},
    "rho-negative": ("AuditArea", {"surface": ROT_SURF, "rho": -0.3},
                     "command_params.rho: must be a positive number"),
    "s-max-nan": ("SolveRotational", {**ROT_PARAMS, "s_max": float("nan")},
                  "command_params.s_max: must be a number"),
    "s-max-infinity": ("SolveRotational", {**ROT_PARAMS, "s_max": float("inf")},
                       "command_params.s_max: must be a number"),
    "step-infinity": ("AuditConvexity", {"surface": {**ROT_SURF, "step": float("inf")}},
                      "command_params.surface.step: must be a positive number"),
    "domain-infinity": ("AuditConvexity",
                        {"surface": _graph_surface(domain=[-1, 1, -1, float("inf")])},
                        f"command_params.surface.domain: {DOMAIN_RULE}"),
    "value-nan": ("SolveGraph",
                  {**GRAPH_PARAMS, "boundary": {"kind": "constant", "value": float("nan")}},
                  "command_params.boundary.value: must be a number"),
    **{case: ("Export", {"surface": ROT_SURF, "formats": formats},
              "command_params.formats: must be a non-empty list drawn from "
              "('CSV', 'OBJ', 'JSON')")
       for case, formats in [("formats-unknown", ["XYZ"]), ("formats-string", "CSV"),
                             ("formats-empty", [])]},
    "value-null": ("SolveGraph",
                   {**GRAPH_PARAMS, "boundary": {"kind": "constant", "value": None}},
                   "command_params.boundary.value: must be a number"),
    "h-not-tiling": ("SolveGraph", {**GRAPH_PARAMS, "h": 0.3},
                     "command_params.h: must divide both sides of the domain"),
    # 2 / h overflows to infinity
    "h-subnormal": ("SolveGraph", {**GRAPH_PARAMS, "h": 1e-310},
                    "command_params.h: must divide both sides of the domain"),
    "h-not-tiling-surface": ("AuditConvexity", {"surface": _graph_surface(h=0.3)},
                             "command_params.surface.h: must divide both sides "
                             "of the domain"),
    "translation-axis-start": ("SolveTranslation", ROT_PARAMS,
                               "command_params.start.kind: an axis start needs a "
                               "rotational surface"),
    "blowup-model-unknown": ("Blowup", {**BLOWUP_PARAMS, "model": "Sphere"},
                             "command_params.model: must be one of "
                             "('Plane', 'GrimReaper', 'Bowl')"),
    "blowup-lengths-differ": ("Blowup", {**BLOWUP_PARAMS, "scales": [2.0]},
                              "command_params.scales: must have one entry per height"),
    **{case: ("Blowup", {**BLOWUP_PARAMS, "scales": scales},
              "command_params.scales: must be a list of positive numbers in "
              "nondecreasing order")
       for case, scales in [("blowup-scales-decreasing", [4.0, 2.0]),
                            ("blowup-scales-zero", [0.0, 2.0])]},
    "blowup-graph-surface": ("Blowup", {**BLOWUP_PARAMS, "surface": _graph_surface()},
                             "command_params.surface.kind: a blow-up needs a "
                             "profile surface"),
}
# bad weight values, each run by PotentialCheck
CHECK_PARAMS = {"z_lo": 0.1, "z_hi": 1.0, "n_samples": 5}
SERIES = {"family": "Series", "Lambda": 0.0, "beta": 1.0, "coefficients": [-0.2],
          "u0": 1.0}
for case, potential, violation in [
        ("slope-nan", {"family": "Linear", "slope": float("nan")}, "slope"),
        ("slope-infinity", {"family": "Linear", "slope": float("inf")}, "slope"),
        ("slope-bool", {"family": "Linear", "slope": True}, "slope"),
        ("slope-null", {"family": "Linear", "slope": None}, "slope"),
        ("lambda-string", {**SERIES, "Lambda": "0"}, "Lambda"),
        ("offset-infinity", {"family": "Linear", "slope": 1, "offset": float("inf")},
         "offset"),
        ("offset-string", {"family": "Linear", "slope": 1, "offset": "1"}, "offset"),
        ("alpha-nan", {"family": "Linear", "slope": 1, "alpha": float("nan")}, "alpha"),
        ("alpha-bool", {"family": "LogPower", "a": 1, "alpha": True}, "alpha")]:
    VALUE_CASES[case] = ("PotentialCheck", CHECK_PARAMS,
                         f"potential.{violation}: must be a number", potential)
VALUE_CASES["lambda-negative"] = (
    "PotentialCheck", CHECK_PARAMS, "potential.Lambda: admissible tails need Lambda >= 0",
    {"family": "Quadratic", "Lambda": -1.0, "beta": 1.0})
VALUE_CASES["beta-zero-lambda"] = (
    "PotentialCheck", CHECK_PARAMS, "potential.beta: beta > 0 required when Lambda = 0",
    {**SERIES, "beta": 0.0})
for case, coefficients in [("coefficients-nan", [float("nan")]),
                           ("coefficients-bool", [-0.2, True])]:
    VALUE_CASES[case] = ("PotentialCheck", CHECK_PARAMS,
                         "potential.coefficients: must be a list of numbers",
                         {**SERIES, "coefficients": coefficients})


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_bad_values_exit_2_with_their_path(tmp_path, capsys, case):
    command, params, violation, *potential = VALUE_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(command, params, *potential)))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {violation}\n"


def test_empty_blowup_sequence_is_a_config_error():
    # it ran, and wrote a limit constant of NaN into blowup.json
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_base_config("Blowup", {
            **BLOWUP_PARAMS, "heights": [], "scales": []})))
    assert err.value.violations == [
        "command_params.heights: must be a non-empty list of numbers",
        "command_params.scales: must be a list of positive numbers in nondecreasing order"]


def _bench_weight(monkeypatch, family):
    """The benchmark's weight of the family."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    weights = (workloads.CONSTANT, workloads.LINEAR, workloads.QUADRATIC,
               workloads.LOG_POWER, workloads.SERIES)
    return {w["family"]: w for w in weights}[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_weight_parameter_is_checked_by_the_value_table(monkeypatch, family):
    weight = _bench_weight(monkeypatch, family)
    # the weight as given parses; each bad value is its one violation
    parse_config(json.dumps(_base_config("PotentialCheck", CHECK_PARAMS, weight)))
    for name in FAMILIES[family].params:
        rule = cli_module._VALUES[name][1]
        for bad in (True, "1", None, float("nan")):
            doc = _base_config("PotentialCheck", CHECK_PARAMS, {**weight, name: bad})
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(doc))
            assert err.value.violations == [f"potential.{name}: must be {rule}"]


def test_weight_keys_name_no_command_or_sub_config_key():
    # a _VALUES rule holds wherever its key is, so a shared name would be
    # checked by the other key's rule
    weight = {name for f in FAMILIES.values() for name in f.params} | {"alpha", "offset"}
    keys = set(cli_module._SUBCONFIGS)
    for entry, _ in cli_module._COMMANDS.values():
        if not isinstance(entry, str):
            keys.update(*entry)
    for kinds in cli_module._SUBCONFIGS.values():
        for required, optional in kinds.values():
            keys.update(required, optional)
    assert "domain" in keys and not weight & keys


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_manifest_config_reparses_to_the_config(tmp_path, monkeypatch, family):
    weight = _bench_weight(monkeypatch, family)
    # LogPower and a Series with coefficients need alpha >= 0
    alphas = (0.25,) if family in ("LogPower", "Series") else (None, 0.25)
    for alpha in alphas:
        cfg = parse_config(json.dumps(_base_config("PotentialCheck", {
            "z_lo": 1.0, "z_hi": 2.0, "n_samples": 5},
            {**weight, "alpha": alpha, "offset": -1.5})))
        assert parse_config(serialize_config(cfg)) == cfg
        cfg.output_dir = str(tmp_path / str(alpha))
        run(cfg)
        manifest = json.loads((tmp_path / str(alpha) / "manifest.json").read_text())
        assert "output_dir" not in manifest["config"]
        again = parse_config(json.dumps(manifest["config"]))
        again.output_dir = cfg.output_dir
        assert again == cfg


CONVEXITY = _base_config("AuditConvexity", {"surface": ROT_SURF})
# document (or JSON text), one of the violations reported
REFUSAL_CASES = {
    "surface-number": ({**CONVEXITY, "command_params": {"surface": 5}},
                       "command_params.surface: must be an object"),
    "config-array": ([CONVEXITY], "$: config must be a JSON object"),
    "params-list": ({**CONVEXITY, "command_params": [ROT_SURF]},
                    "command_params: must be an object"),
    **{case: ({**CONVEXITY, "seed": seed}, "seed: must be a non-negative integer")
       for case, seed in [("seed-string", "3"), ("seed-bool", True),
                          ("seed-negative", -1), ("seed-float", 3.0)]},
    # inputs that have one source elsewhere: --out, and the inline weight
    "output-dir": ({**CONVEXITY, "output_dir": "elsewhere"}, "output_dir: unknown key"),
    "potential-label": ({**CONVEXITY, "potential": {**CONVEXITY["potential"],
                                                    "label": "soliton"}},
                        "potential.label: unknown key"),
    "potential-params": ({**CONVEXITY, "potential": {"family": "Linear",
                                                     "params": {"slope": 1}}},
                         "potential.params: unknown key"),
    # a list is unhashable: a dict lookup of one raised TypeError, and Python
    # exited 1, the code of a failed audit
    "command-list": ({**CONVEXITY, "command": ["AuditConvexity"]},
                     f"command: ['AuditConvexity'] not one of {COMMANDS}"),
    "kind-list": ({**CONVEXITY, "command_params": {
        "surface": {**ROT_SURF, "start": {"kind": [1]}}}},
        "command_params.surface.start.kind: [1] not one of ('axis', 'point')"),
    "series-u0": ({**CONVEXITY, "potential": {
        "family": "Series", "Lambda": 0, "beta": 1, "coefficients": [-0.2], "u0": -1}},
        "potential: Series requires u0 > max(alpha, 0)"),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_CASES))
def test_refusals_exit_2_with_one_config_error_line(tmp_path, capsys, case):
    doc, violation = REFUSAL_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert violation in err[len("config error: "):-1].split("; ")
    assert not out.exists()


LINEAR, QUADRATIC = PotentialSpec.linear(1.0), PotentialSpec.quadratic(1.0, 1.0)
BOWL_BOUNDARY_CASES = {
    "Linear-1": (LINEAR, (-1.0, 1.0, -1.0, 1.0), 1 / 32, {"kind": "bowl_profile"}),
    "Quadratic-1": (QUADRATIC, (-1.0, 1.0, -1.0, 1.0), 1 / 32, {"kind": "bowl_profile"}),
    "Linear-2": (LINEAR, (-2.0, 2.0, -2.0, 2.0), 1 / 8,
                 {"kind": "bowl_profile", "s_max": 4.5}),
    # the Quadratic bowl shot to s = 4.5 ends at x = 1.46, inside the corners
    "Quadratic-2": (QUADRATIC, (-2.0, 2.0, -2.0, 2.0), 1 / 8,
                    {"kind": "bowl_profile", "s_max": 4.5}),
}


@pytest.mark.parametrize("case", sorted(BOWL_BOUNDARY_CASES))
def test_bowl_boundary_shot_to_the_farthest_node_matches_the_full_profile(case):
    spec, domain, h, boundary = BOWL_BOUNDARY_CASES[case]
    patch = GraphPatch(domain=domain, h=h, u=np.zeros(grid_shape(domain, h)))
    X, Y = patch.grid()
    edge = np.ones(X.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    x, y = X[edge], Y[edge]
    r = np.hypot(x, y)
    cfg = ShootingConfig(start=AxisRegular(0.0), s_max=boundary.get("s_max", 3.0),
                         step=5e-4)
    full = solve_rotational_profile(spec, cfg).surface
    bowl = cli_module._parse_boundary(spec, boundary, "command_params.boundary")
    if full.x[-1] < r.max():
        with pytest.raises(ConfigError, match=r"^command_params\.boundary\.s_max: "):
            bowl(x, y)
        return
    short = rotational_curve(spec, cfg, x_stop=r.max())
    assert short.x[-2] < r.max() <= short.x[-1] and len(short) < len(full)
    assert bowl(x, y).tobytes() == np.interp(r, full.x, full.z).tobytes()


def test_profile_solves_keep_the_field_that_the_audits_read(tmp_path):
    cfg = parse_config(json.dumps(_base_config("AuditConvexity", {"surface": ROT_SURF})))
    result, field = cli_module._surface_field(cfg)
    assert result.field is field
    assert field.source is result.surface
    graph = cli_module._solve_surface(cfg.potential, {"kind": "graph", **GRAPH_PARAMS},
                                      "command_params")
    assert graph.field is None
