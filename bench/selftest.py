"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one command of each checked kind, confirms every check accepts the
genuine output, then damages a copy of the output in one way per case
(a graph shifted by 1e-3, lambda1 with its sign flipped, a truncated OBJ
file, ...) and confirms the check rejects it.  Exits 1 if a check
rejects genuine output or misses a damaged one.
"""

import json
import shutil
import sys
from pathlib import Path

import run

SEED = 7


def edit_json(path: Path, change) -> None:
    docs = json.loads(path.read_text())
    change(docs[0])
    path.write_text(json.dumps(docs))


def edit_csv(path: Path, column: str, change) -> None:
    import numpy as np
    header = path.read_text().split("\n", 1)[0]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    k = header.split(",").index(column)
    rows[:, k] = change(rows[:, k])
    path.write_text(header + "\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                              for row in rows) + "\n")


def reseal(out: Path) -> None:
    """Rewrite the manifest digests after a change, so that the content
    checks, not the digest check, must catch it."""
    import hashlib
    manifest = json.loads((out / "manifest.json").read_text())
    for art in manifest["artifacts"]:
        art["sha256"] = hashlib.sha256((out / art["path"]).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def shift_interior(delta):
    """Raise interior graph nodes (rows of a row-major grid) by delta."""
    def change(u):
        import numpy as np
        n = int(round(np.sqrt(u.size)))
        grid = u.reshape(n, n).copy()
        grid[1:-1, 1:-1] += delta
        return grid.ravel()
    return change


def set_value(key, change):
    """A report edit: values[key] = change(values[key])."""
    def edit(doc):
        doc["values"][key] = change(doc["values"][key])
    return edit


def above_rayleigh(doc):
    doc["values"]["lambda1"] = doc["values"]["rayleigh_trial_min"] * 1.01


def large_residual(doc):
    doc["values"]["max_abs_residual"] = 1e-5


def truncate_obj(out: Path) -> None:
    lines = (out / "surface.obj").read_text().splitlines()
    (out / "surface.obj").write_text("\n".join(lines[:-1]) + "\n")


def flip_byte(out: Path) -> None:
    data = bytearray((out / "solve.json").read_bytes())
    data[10] ^= 1
    (out / "solve.json").write_bytes(bytes(data))


def csv_max_above_edge(out: Path) -> None:
    def change(u):
        u = u.copy()
        u[len(u) // 2] = u.max() + 1.0
        return u
    edit_csv(out / "surface.csv", "u", change)


def decreasing_density(doc):
    doc["values"]["o_values"] = list(reversed(doc["values"]["o_values"]))


def rising_blowup(doc):
    stages = doc["values"]["stages"]
    stages[-1]["c2"] = stages[0]["c2"] * 2.0


# (case, workload, command label, damage to a copy of its output directory)
CASES = [
    ("bowl graph shifted by 1e-3", "graph_fine", "solve_h64",
     lambda out: edit_csv(out / "surface.csv", "u", shift_interior(1e-3))),
    ("fine bowl graph shifted by 2e-6 (error ratio)", "graph_fine", "solve_h128",
     lambda out: edit_csv(out / "surface.csv", "u", shift_interior(2e-6))),
    ("truncated OBJ file", "graph_fine", "solve_h64", truncate_obj),
    ("Newton residual above tolerance", "graph_fine", "solve_h64",
     lambda out: edit_json(out / "solve.json", set_value("residual", lambda r: 1e-6))),
    ("bowl lambda1 with its sign flipped", "graph_fine", "stability_h64",
     lambda out: edit_json(out / "stability.json", set_value("lambda1", lambda v: -v))),
    ("lambda1 above a Rayleigh quotient", "profile_families", "Quadratic/stability",
     lambda out: edit_json(out / "stability.json", above_rayleigh)),
    ("disk area at 4 pi rho^2", "graph_fine", "area_h64",
     lambda out: edit_json(out / "area.json",
                           set_value("disk_area", lambda a: 4.0 * 3.141592653589793 * 0.09))),
    ("density o-values falling", "graph_fine", "density_h64",
     lambda out: edit_json(out / "monotonicity.json", decreasing_density)),
    ("Gamma off by 1e-6", "profile_families", "Series/potential",
     lambda out: edit_json(out / "potential_check.json", set_value("gamma", lambda g: g + 1e-6))),
    ("catenoid x off by 1e-8", "profile_families", "Constant/rotational",
     lambda out: edit_csv(out / "surface.csv", "x", lambda x: x + 1e-8)),
    ("grim reaper z off by 1e-8", "profile_families", "Linear/translation",
     lambda out: edit_csv(out / "surface.csv", "z", lambda z: z + 1e-8)),
    ("LogPower profile angle off by 1e-8", "profile_families", "LogPower/rotational",
     lambda out: edit_csv(out / "surface.csv", "theta", lambda t: t + 1e-8)),
    ("profile with a sample dropped", "profile_families", "Quadratic/translation",
     lambda out: (out / "surface.csv").write_text(
         "\n".join((out / "surface.csv").read_text().splitlines()[:-1]) + "\n")),
    ("minimality residual of 1e-5", "profile_families", "Linear/fundamental",
     lambda out: edit_json(out / "fundamental_identities.json", large_residual)),
    ("Linear bowl judged NotConvex", "profile_families", "Linear/convexity",
     lambda out: edit_json(out / "convexity.json", set_value("verdict", lambda v: "NotConvex"))),
    ("catenoid judged ConvexWithinTol", "profile_families", "Constant/convexity",
     lambda out: edit_json(out / "convexity.json",
                           set_value("verdict", lambda v: "ConvexWithinTol"))),
    ("curvature ratio 1.001", "profile_families", "LogPower/ratio",
     lambda out: edit_json(out / "curvature_ratio.json", set_value("sup", lambda s: 1.001))),
    ("blow-up C2 distance growing", "profile_families", "Series/blowup",
     lambda out: edit_json(out / "blowup.json", rising_blowup)),
    ("plane off by 1e-9", "graph_small_batch", "csv_plane_h16/solve",
     lambda out: edit_csv(out / "surface.csv", "u", shift_interior(1e-9))),
    ("grim reaper graph shifted by 1e-3", "graph_small_batch", "reaper_h16/export",
     lambda out: edit_csv(out / "surface.csv", "u", shift_interior(1e-3))),
    ("interior max above the CSV boundary", "graph_small_batch", "csv_linear_h16/solve",
     csv_max_above_edge),
    ("edge heights off the CSV boundary", "graph_small_batch", "csv_linear_h32/solve",
     lambda out: edit_csv(out / "surface.csv", "u", lambda u: u + 1e-12)),
    ("reaper graph curvature ratio 1.01", "graph_small_batch", "reaper_h16/ratio",
     lambda out: edit_json(out / "curvature_ratio.json", set_value("sup", lambda s: 1.01))),
]


def main() -> int:
    work = run.OUT_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _selftest(work: Path) -> int:
    cli, _, _ = run.setup("graph_fine", SEED, work / "setup")
    import workloads
    wls = {name: workloads.build(name, SEED, work / "data") for name in workloads.WORKLOADS}
    needed = {(wl, label) for _, wl, label, _ in CASES}
    cmds = {(name, c.label): c for name, wl in wls.items() for c in wl.commands
            if (name, c.label) in needed or name == "graph_fine"}
    outs = {key: work / "out" / key[0] / key[1] for key in cmds}
    bad = 0
    for key, cmd in cmds.items():
        code = run.run_command(cli, cmd.config_text(SEED), outs[key])
        if code != 0:
            print(f"FAILED {key}: exit code {code}")
            bad += 1
    refs = workloads.References()

    def problems(wl_name, label, out_dir):
        cmd = cmds[(wl_name, label)]
        found, _ = workloads.manifest_digests(out_dir)
        for check in cmd.checks:
            found += check(out_dir, refs)
        if wl_name == "graph_fine":
            fine = {c.label: outs[("graph_fine", c.label)]
                    for c in wls["graph_fine"].commands}
            fine[label] = out_dir
            for check in wls["graph_fine"].pass_checks:
                found += check(fine, refs)
        return found

    for key in cmds:
        found = problems(*key, outs[key])
        if found:
            print(f"GENUINE OUTPUT REJECTED {key}: {found}")
            bad += 1

    for case, wl_name, label, damage in CASES:
        copy = work / "damaged" / case.replace(" ", "_")
        shutil.copytree(outs[(wl_name, label)], copy)
        damage(copy)
        reseal(copy)
        found = problems(wl_name, label, copy)
        print(f"{'rejects' if found else 'MISSED '} {case}: {found[:1]}")
        bad += not found

    # the digest checks: a byte changed under its digest, and an artifact
    # that differs from the first pass
    copy = work / "damaged" / "digest"
    shutil.copytree(outs[("graph_fine", "solve_h64")], copy)
    flip_byte(copy)
    found, _ = workloads.manifest_digests(copy)
    print(f"{'rejects' if found else 'MISSED '} artifact byte changed under its digest: "
          f"{found[:1]}")
    bad += not found
    reseal(copy)
    label = "solve_h64"
    one = workloads.Workload("digest", [cmds[("graph_fine", label)]], [])
    checker = run.Checker(one, {label: outs[("graph_fine", label)]})
    checker.check({})
    checker.outs[label] = copy
    checker.check({})
    print(f"{'rejects' if checker.problems else 'MISSED '} artifact changed between passes: "
          f"{checker.problems[:1]}")
    bad += not checker.problems
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
