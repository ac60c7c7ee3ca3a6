"""End-to-end benchmark of the phimin CLI, with a traced per-layer mode.

    python3 bench/run.py --workload graph_fine --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process drives ``phimin.cli.run``
in-process over the workload's command list (see workloads.py), pass
after pass, until --seconds of passes have run, and checks every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, pass_s, slowest_cmd_s,
peak_rss_mib); --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of tracing.py, the tracing overhead and any
count that differs between traced passes.  See README.md.
"""

import os

# The program is sequential; a multi-threaded BLAS pool only adds noise on
# a small machine.  Pin the pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median
MIN_TRACE_ROUNDS = 2


def setup(workload: str, seed: int, work: Path):
    """Import phimin, generate the inputs and warm up each command kind.

    Returns (cli module, workload, seconds).  This window is setup_s.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import phimin.cli as cli
    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"phimin imported from {cli.__file__}, not from src/")
    import workloads
    wl = workloads.build(workload, seed, work)
    for k, cmd in enumerate(wl.warmup):
        config = cli.parse_config(cmd.config_text(seed))
        config.output_dir = str(work / "warmup" / str(k))
        code = cli.run(config).exit_code
        if code != 0:
            raise SystemExit(f"warm-up {cmd.label} exited {code}")
    return cli, wl, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(cli, wl, texts, outs, tracer=None):
    """One pass over the command list: (wall seconds, per-command seconds,
    {label: failure})."""
    times, failures = [], {}
    t0 = time.perf_counter()
    for cmd in wl.commands:
        t = time.perf_counter()
        try:
            if tracer is not None:
                tracer.command = cmd.label
                with tracer.span("command"):
                    code = run_command(cli, texts[cmd.label], outs[cmd.label])
            else:
                code = run_command(cli, texts[cmd.label], outs[cmd.label])
            if code != 0:
                failures[cmd.label] = f"exit code {code}"
        except Exception as exc:  # a failing command is counted, not fatal
            failures[cmd.label] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, times, failures


def run_command(cli, text: str, out: Path) -> int:
    """Parse one config and run it into `out`; returns the exit code."""
    config = cli.parse_config(text)
    config.output_dir = str(out)
    return cli.run(config).exit_code


class Checker:
    """Full output checks on the first pass; later passes must reproduce
    the first pass's manifest digests byte for byte."""

    def __init__(self, wl, outs):
        import workloads
        self.wl, self.outs = wl, outs
        self.refs = workloads.References()
        self.digests = None
        self.problems = []

    def check(self, failures):
        import workloads
        digests = {}
        for cmd in self.wl.commands:
            if cmd.label in failures:
                continue
            out = self.outs[cmd.label]
            problems, digests[cmd.label] = workloads.manifest_digests(out)
            if self.digests is None:
                for check in cmd.checks:
                    problems += check(out, self.refs)
            elif digests[cmd.label] != self.digests.get(cmd.label, digests[cmd.label]):
                problems.append("artifacts differ from the first pass")
            self.problems += [f"{cmd.label}: {p}" for p in problems]
        if self.digests is None:
            if not failures:
                for check in self.wl.pass_checks:
                    self.problems += check(self.outs, self.refs)
            self.digests = digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli, wl, setup_s = setup(args.workload, args.seed, run_dir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outs = {cmd.label: run_dir / "out" / cmd.label for cmd in wl.commands}
        texts = {cmd.label: cmd.config_text(args.seed) for cmd in wl.commands}
        checker = Checker(wl, outs)
        if args.trace:
            result = traced_run(cli, wl, texts, outs, checker, args)
        else:
            setups = [setup_s] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            result = timed_run(cli, wl, texts, outs, checker, args.seconds, setups)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in checker.problems:
        print(f"CHECK FAILED {problem}")
    print(json.dumps(result))
    return 0


class Pass(NamedTuple):
    number: int
    traced: bool
    wall: float
    times: list
    failures: dict


def _loop(cli, wl, texts, outs, checker, seconds, tracer=None):
    """Passes until `seconds` of pass time has run (in a traced run, until
    at least MIN_TRACE_ROUNDS untraced and traced passes have run)."""
    spent, n = 0.0, 0
    while n == 0 or spent < seconds or (tracer and n < 2 * MIN_TRACE_ROUNDS):
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.pass_no = n
            with tracer.installed():
                wall, times, failures = run_pass(cli, wl, texts, outs, tracer)
        else:
            wall, times, failures = run_pass(cli, wl, texts, outs)
        checker.check(failures)
        for label, why in failures.items():
            print(f"FAILED pass {n} {label}: {why}")
        spent += wall
        yield Pass(n, traced, wall, times, failures)
        n += 1


def _result(checker, passes, metrics):
    return {"correct": not checker.problems,
            "attempted": sum(len(p.times) for p in passes),
            "failed": sum(len(p.failures) for p in passes),
            "metrics": metrics}


def timed_run(cli, wl, texts, outs, checker, seconds, setups):
    passes = list(_loop(cli, wl, texts, outs, checker, seconds))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes {len(passes)}, pass_s "
          + " ".join(f"{p.wall:.4f}" for p in passes)
          + ", setup_s " + " ".join(f"{s:.4f}" for s in setups))
    return _result(checker, passes, {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
        # a command's median over passes, so that one stalled pass of one
        # command among dozens does not set the figure
        "slowest_cmd_s": {"value": max(statistics.median(t)
                                       for t in zip(*(p.times for p in passes))),
                          "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    })


def traced_run(cli, wl, texts, outs, checker, args):
    import tracing
    tracer = tracing.Tracer()
    passes = list(_loop(cli, wl, texts, outs, checker, args.seconds, tracer))
    traced = [p for p in passes if p.traced]
    per_pass = [tracer.pass_metrics(p.number) for p in traced]
    for name in tracing.COUNTS:
        seen = [v[name] for v in per_pass]
        if len(set(seen)) > 1:
            print(f"COUNT MISMATCH {name}: {seen}")
    untraced_s = statistics.median(p.wall for p in passes if not p.traced)
    traced_s = statistics.median(p.wall for p in traced)
    print(f"tracing overhead {traced_s - untraced_s:.4f} s per pass "
          f"(traced {traced_s:.4f} s, untraced {untraced_s:.4f} s)")
    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.records()))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = {name: {"value": per_pass[0][name], "unit": unit}
               for name, unit in tracing.COUNTS.items()}
    metrics.update({name: {"value": statistics.median(v[name] for v in per_pass),
                           "unit": "s"} for name in tracing.TIMES})
    return _result(checker, passes, metrics)


if __name__ == "__main__":
    sys.exit(main())
