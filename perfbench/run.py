"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7-serial --seed 0 --seconds 22 --trace 0

Run from the repository root.  ``--seed`` is the workload seed offset;
offsets of 1000 and above are held out for re-checking a claim on seeds
not used while writing it.  The run

1. times set-up (import ``repro`` and resolve the workload) in fresh
   interpreters and keeps the median, in reference seconds;
2. checks that the serial path still reproduces the committed fig4/fig7
   goldens;
3. computes the workload's reference digest once, untimed;
4. repeats the workload until ``--seconds`` are used, checking every
   repetition's digest against the reference and its exact work
   counters against the first repetition's (and against any earlier run
   of the same code and seed), and samples the host's speed between
   repetitions (``hostspeed.py``);
5. prints every metric by name and unit, a stamped record, and as its
   last line the JSON result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics plus
``trace.overhead_frac``; the spans of its last traced repetition are
written to ``.perfbench-runs/spans/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench-runs"
GOLDENS = ROOT / "tests" / "experiments" / "goldens"
GOLDEN_SCENARIOS = ("fig4", "fig7")
WORKLOAD_NAMES = ("fig7-serial", "fig9-serial", "fig4-fabric-resume",
                  "des-swap")
SETUP_SAMPLES = 5
HELD_OUT_OFFSET = 1000



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed offset (>= 0)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def layout_problems() -> "list[str]":
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py"]
    needed += [GOLDENS / f"{name}-seeds2.json" for name in GOLDEN_SCENARIOS]
    return [str(path.relative_to(ROOT)) for path in needed
            if not path.is_file()]


# -- stamps -------------------------------------------------------------------


def code_digest() -> str:
    """SHA-256 over the program and benchmark sources (the checkout may
    not be a git repository, so this identifies the code measured)."""
    hasher = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            hasher.update(str(path.relative_to(ROOT)).encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_rev() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def stamp(args, code: str, reps: int) -> dict:
    import numpy

    return {"workload": args.workload, "seed_offset": args.seed,
            "held_out": args.seed >= HELD_OUT_OFFSET,
            "seconds": args.seconds, "trace": args.trace, "reps": reps,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": git_rev(),
            "code_digest": code}


# -- set-up time --------------------------------------------------------------


def measure_setup(workload: str) -> "tuple[float, float]":
    """Median seconds to import ``repro`` and resolve ``workload`` in a
    fresh interpreter (one untimed warm-up probe first), in wall and in
    reference seconds (the host is sampled after every probe)."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True).stdout
        host.sample()
        if i:
            samples.append(float(out.strip().splitlines()[-1]))
    wall = statistics.median(samples)
    return wall, wall * host.scale()


# -- stats --------------------------------------------------------------------


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(reps, scale: float, setup_s: float, attempted: int,
               failed: int) -> dict:
    """Every time but ``setup_s`` is in reference seconds: wall seconds
    times the run's host-speed ``scale`` (:mod:`hostspeed`).  Rates are
    the run's total work over its total reference time.  Cell
    percentiles are taken over each computed cell's mean across
    repetitions."""
    per_cell: "dict[object, list[float]]" = {}
    for rep in reps:
        for key, wall in rep.cell_walls.items():
            per_cell.setdefault(key, []).append(wall)
    walls = [statistics.fmean(samples) * scale
             for samples in per_cell.values()]
    ref_time = sum(rep.wall for rep in reps) * scale
    return {"setup_s": setup_s,
            "iterations_per_s": sum(r.iterations for r in reps) / ref_time,
            "cells_per_s": sum(r.cells for r in reps) / ref_time,
            "cell_p50_ms": nearest_rank(walls, 50) * 1e3,
            "cell_p95_ms": nearest_rank(walls, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "pass_frac": 1.0 - failed / attempted}


def wall_rates(reps) -> "dict[str, float]":
    """The rates in plain wall seconds, for the record: what this host
    delivered during the run, its drift included."""
    wall = sum(rep.wall for rep in reps)
    return {"iterations_per_wall_s": sum(r.iterations for r in reps) / wall,
            "cells_per_wall_s": sum(r.cells for r in reps) / wall}


def wrapper_drift(workload, counts, rep) -> "list[str]":
    """Where the wrappers' counts disagree with the program's own
    counters (e.g. a kernel entry point went unwrapped)."""
    return [f"wrapper {mine}={counts[mine]} but program "
            f"{theirs}={rep.exact[theirs]}"
            for mine, theirs in workload.cross_checks
            if counts[mine] != rep.exact[theirs]]


# -- the run ------------------------------------------------------------------


class Run:
    """Attempts, failures and exact counters of one benchmark run."""

    def __init__(self, workload, args) -> None:
        self.workload = workload
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.exact: "dict | None" = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def check_goldens(self) -> None:
        from repro.experiments.executor import execute_sweep
        from repro.experiments.scenarios import get_scenario

        for name in GOLDEN_SCENARIOS:
            self.attempted += 1
            result, _timing = execute_sweep(get_scenario(name), seeds=2)
            got = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
            if got != (GOLDENS / f"{name}-seeds2.json").read_text():
                self.fail(f"serial {name} no longer reproduces its golden")

    def attempt(self, layers=None, pause=None):
        """One checked repetition; None if it raised or failed."""
        self.attempted += 1
        try:
            rep = self.workload.repeat(layers, pause)
        except Exception:
            traceback.print_exc()
            self.fail("repetition raised")
            return None
        if rep.digest != self.workload.ref:
            self.fail(f"result digest {rep.digest[:12]} != reference "
                      f"{self.workload.ref[:12]}")
            return None
        exact = dict(rep.exact)
        if layers is not None:
            drift = wrapper_drift(self.workload, layers.tracer.counts, rep)
            if drift:
                self.fail("; ".join(drift))
                return None
            exact.update(layers.exact_counts())
        if not self.same_counters(exact):
            return None
        return rep

    def same_counters(self, exact: dict) -> bool:
        """Exact counters repeat: untraced reps carry a subset of the
        traced reps' keys, and every shared key must agree."""
        if self.exact is None:
            self.exact = exact
            return True
        drift = {key: (self.exact[key], exact[key]) for key in exact
                 if key in self.exact and self.exact[key] != exact[key]}
        if drift:
            self.fail(f"exact counters drifted: {drift}")
            return False
        self.exact.update(exact)
        return True

    def check_across_runs(self, code: str) -> None:
        """Compare the exact counters with an earlier run of the same
        code, workload, seed and trace mode; record them if none."""
        if self.exact is None:
            return
        self.attempted += 1
        path = (STATE / "counters" / f"{self.args.workload}-seed"
                f"{self.args.seed}-trace{self.args.trace}-{code[:16]}.json")
        if path.is_file():
            earlier = json.loads(path.read_text())
            if earlier != self.exact:
                self.fail(f"exact counters differ from an earlier run: "
                          f"{earlier} != {self.exact}")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(self.exact, sort_keys=True))
        os.replace(tmp, path)


def measure(run: Run, seconds: float, trace: bool):
    """Repeat until ``seconds`` are used, without starting a round that
    would overrun; returns (untraced reps, per-layer values of each
    traced rep, traced/untraced wall ratio per round, the tracer holding
    the last traced rep's spans, the host-speed samples).  The host is
    sampled after every repetition and wherever a workload pauses."""
    from hostspeed import HostSpeed
    from layers import Layers
    from spans import Tracer

    plain, traced, ratios = [], [], []
    tracer = Tracer()
    host = HostSpeed()

    def attempt(layers=None):
        rep = run.attempt(layers, host.pause)
        host.sample()
        return rep

    min_rounds = 2 if trace else 3
    started = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        rep = traced_rep = None
        # Traced rounds alternate which half runs first.
        halves = ((False, True) if rounds % 2 == 0 else (True, False)) \
            if trace else (False,)
        for traced_half in halves:
            if not traced_half:
                rep = attempt()
                continue
            tracer.reset()
            with Layers(tracer,
                        compute=run.workload.traces_compute) as layers:
                traced_rep = attempt(layers)
            if traced_rep is not None:
                traced.append(layers.values(traced_rep.layer))
        if rep is not None:
            plain.append(rep)
            if traced_rep is not None:
                ratios.append(traced_rep.wall / rep.wall)
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and now + (now - round_start) > started + seconds:
            break
    return plain, traced, ratios, tracer, host


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = layout_problems()
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep temporaries (the fabric's socket directory) inside the
    # checkout; a relative path keeps the socket path short.
    tempfile.tempdir = str(workdir.relative_to(ROOT))

    try:
        setup_wall_s, setup_s = measure_setup(args.workload)
        import workloads

        workload = workloads.resolve(args.workload, args.seed, workdir / "w")
        run = Run(workload, args)
        run.check_goldens()
        workload.reference()
        plain, traced, ratios, tracer, host = measure(run, args.seconds,
                                                      bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    code = code_digest()
    run.check_across_runs(code)
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: statistics.median_low(v[name] for v in traced)
                   for name in traced[0]}
        metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0
                                          if ratios else 0.0)
        metrics["failed_frac"] = run.failed / run.attempted
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}.jsonl")
    else:
        metrics = end_to_end(plain, host.scale(), setup_s, run.attempted,
                             run.failed)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    record = {"stamp": stamp(args, code, len(plain) + len(traced)),
              "exact": run.exact, "problems": run.problems,
              "rep_walls": [rep.wall for rep in plain],
              "host_scale": host.scale(), "setup_wall_s": setup_wall_s,
              "kernel_samples": host.samples,
              "wall_rates": wall_rates(plain),
              "result": result}
    with open(STATE / "records.jsonl", "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    for name in units:
        print(f"{name:28s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({"record": record["stamp"], "exact": run.exact,
                      "host_scale": record["host_scale"],
                      "wall_rates": record["wall_rates"]}))
    print(json.dumps(result))
    return 0


def declared_units(group: str) -> "dict[str, str]":
    """Metric name -> unit of one BENCHMARK.json metric group: the
    output carries exactly the declared metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[group]}


if __name__ == "__main__":
    sys.exit(main())
