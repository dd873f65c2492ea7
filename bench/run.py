"""Registry-to-report benchmark for cellpp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --self-test

Each workload runs the ``cellpp`` command line from ``src/`` as child
processes, one at a time: a closed loop with one client.  Inputs come
from ``bench/inputs.py`` and depend only on the seed.  After a warm-up
(one import, then a few seconds of busy loops on every core), a run
repeats the workload while the next repetition is expected to end
within ``--seconds`` (at least once), checks every run's outputs, and
requires their SHA-256 to repeat.  One ``pipeline-4fam-K`` run
outlasts ``--seconds``, so there its bytes are compared between the
untraced and the traced run of ``--trace 1``.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, each the median over the runs:

* ``wall_s``: wall time of one workload run, all its invocations.
* ``setup_s``: time from spawning a fresh interpreter until it has
  imported ``cellpp.cli``, which every invocation pays; taken in every
  untraced invocation, so a run of the two-step registry workload
  gives two samples.
* ``cpu_s``: user plus system CPU time of the run's child processes.
* ``peak_rss_mb``: the largest max-RSS among the run's child processes.

``error_rate`` is ``failed / attempted`` in the same line; a run fails
on a non-zero exit, a failed output check, or output bytes that differ
from the first correct run of the set.  It is printed with the metrics but is not a
metric of ``BENCHMARK.json``, whose metrics must never read 0.

With ``--trace 1`` the workload alternates untraced runs with runs
through ``bench/tracer.py`` (``cellpp.cli.main`` in process, public
functions wrapped) and reports the per-layer metrics of
``tracer.per_layer_catalogue``: medians over the traced runs, plus
``trace.overhead_s``, traced minus untraced median wall time.  The
traced outputs must match the untraced bytes.

Results, environment and spans go to ``bench/results/``; working files
live under ``bench/_work/`` and are removed when the run ends.  The
``pipeline`` run with the CLI-default F contrast and all four families
takes ~15 min, so it waits for a later benchmark, after exact DPP F/G
curves land; ``pipeline-4fam-K`` stands in for it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

import checks
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# At least this many setup_s samples per benchmark run; a workload with
# fewer invocations tops them up with ``cellpp --help``.
MIN_SETUP_SAMPLES = 3
# Both cores spin this long before the first timed run.  On the 2-core
# VM it was measured on, the first run after a quiet spell was ~20%
# slower than the next one without it, and as fast with it.
SPIN_S = 3.0
# No run starts when it could not end by then; a benchmark run must end
# within 180 s.
TIME_BUDGET_S = 160.0
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# What the ``cellpp`` console script runs, plus one stderr line that
# stamps the moment the import finished (epoch seconds, so it compares
# with the parent's clock).
SETUP_MARK = "bench-imported-at"
CLI = ["-c", "import sys, time; from cellpp.cli import main; "
             f"print('{SETUP_MARK}', repr(time.time()), file=sys.stderr, "
             "flush=True); sys.exit(main())"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # (input directory, seed, sizes) -> dict of input paths and facts
    make_inputs: Callable
    # (inputs, output directory) -> argument lists, one per invocation
    commands: Callable
    # (inputs, output directory, stdout of each invocation) -> problems
    check: Callable
    # outputs whose bytes must repeat across runs
    outputs: tuple


def _pipeline(name: str, families: tuple, statistic: str) -> Workload:
    def make(directory, seed, sizes):
        return inputs.write_pattern_inputs(directory, seed, sizes, families,
                                           statistic)

    def commands(inp, out):
        return [["pipeline", "--config", f"@{inp['config']}",
                 "--input", str(inp["points"]), "--planar", "--out", str(out)]]

    return Workload(name, make, commands,
                    lambda inp, out, stdouts: checks.pipeline_problems(
                        out, families),
                    ("report.json",))


def _registry_commands(inp, out):
    return [["ingest", "--input", str(inp["registry"]),
             "--output", str(out / "points.csv"),
             "--operator-column", "operator",
             "--technology-column", "technology",
             "--technology", inputs.TARGET_TECHNOLOGY,
             "--rejects", str(out / "rejects.jsonl")],
            ["stats", "--input", str(out / "points.csv"),
             "--min-points", str(inp["min_points"]),
             "--seed", str(inp["seed"]),
             "--output", str(out / "curves.csv")]]


def _registry_inputs(directory, seed, sizes):
    return {**inputs.write_registry(directory, seed, sizes), "seed": seed}


WORKLOADS = {w.name: w for w in (
    _pipeline("pipeline-2fam", ("poisson", "beta-ginibre"), "F"),
    _pipeline("pipeline-4fam-K", tracer.FAMILIES, "K"),
    Workload("registry-10k", _registry_inputs, _registry_commands,
             checks.registry_problems, ("points.csv", "curves.csv")),
)}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    setup_s: float | None     # spawn to import done, when stamped


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], cwd: Path, log: Path, timeout: float) -> Child:
    """Run one child to completion; resource usage comes from wait4."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned_at = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    setup = None
    if stderr.startswith(SETUP_MARK):
        setup = float(stderr.split(None, 2)[1]) - spawned_at
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path.read_text(), stderr,
                 setup)


class Session:
    """One benchmark invocation on one workload: its work directory,
    inputs and time budget."""

    def __init__(self, workload: Workload, seed: int, sizes: inputs.Sizes,
                 work: Path, min_runs: int):
        self.workload = workload
        self.min_runs = min_runs
        self.started = time.perf_counter()
        self.work = work
        (work / "inputs").mkdir(parents=True)
        # Children run in the work directory and get relative paths, so
        # no checkout location reaches report.json.
        made = workload.make_inputs(work / "inputs", seed, sizes)
        self.inputs = {k: v.relative_to(work) if isinstance(v, Path) else v
                       for k, v in made.items()}
        self.runs = 0

    def remaining(self) -> float:
        return TIME_BUDGET_S - (time.perf_counter() - self.started)

    def warm_up(self) -> None:
        """One untimed import, which compiles the bytecode of a fresh
        checkout and fills the file cache, then ``SPIN_S`` of busy
        loops on every core."""
        child = self.help()
        if child.code != 0:
            raise SystemExit(f"importing cellpp.cli failed:\n{child.stderr}")
        spin = (f"import time\nend = time.perf_counter() + {SPIN_S}\n"
                f"while time.perf_counter() < end: pass")
        procs = [subprocess.Popen([sys.executable, "-c", spin])
                 for _ in range(len(os.sched_getaffinity(0)))]
        for proc in procs:
            try:
                proc.wait(timeout=SPIN_S + 30.0)
            finally:
                proc.kill()
                proc.wait()

    def help(self) -> Child:
        """``cellpp --help``: the import and nothing else."""
        return run_child([sys.executable, *CLI, "--help"], self.work,
                         self.work / "help", self.remaining())

    def run_once(self, traced: bool) -> dict:
        """One workload run: every invocation, checks and hashes."""
        self.runs += 1
        run_dir = Path(f"run{self.runs}")
        (self.work / run_dir / "out").mkdir(parents=True)
        out = run_dir / "out"
        result = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0,
                  "peak_rss_mb": 0.0, "setup_s": [], "problems": [],
                  "hashes": {}, "spans": []}
        stdouts = []
        start = time.perf_counter()
        for k, args in enumerate(self.workload.commands(self.inputs, out)):
            if traced:
                spans = run_dir / f"spans{k}.json"
                result["spans"].append(self.work / spans)
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                       f"{run_dir}.{k}", "--", *args]
            else:
                cmd = [sys.executable, *CLI, *args]
            child = run_child(cmd, self.work, self.work / run_dir / f"cmd{k}",
                              self.remaining())
            result["cpu_s"] += child.cpu_s
            result["peak_rss_mb"] = max(result["peak_rss_mb"], child.rss_mb)
            if child.setup_s is not None:
                result["setup_s"].append(child.setup_s)
            stdouts.append(child.stdout)
            if child.code != 0:
                result["problems"].append(
                    f"cellpp {args[0]} exited with {child.code}: "
                    f"{child.stderr.strip()[-400:]}")
                break
        result["wall_s"] = time.perf_counter() - start
        out_dir = self.work / out
        if not result["problems"]:
            try:
                result["problems"] = self.workload.check(self.inputs,
                                                         out_dir, stdouts)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result["problems"] = [f"unreadable output: {exc!r}"]
        result["hashes"] = {name: checks.sha256(out_dir / name)
                            for name in self.workload.outputs
                            if (out_dir / name).is_file()}
        result["out_dir"] = out_dir
        return result

    def repeat(self, step: Callable, seconds: float) -> list:
        """Closed loop: run ``step`` while another step is expected to
        end within ``seconds`` or fewer than ``min_runs`` are done, and
        never when it could overrun the time budget."""
        steps, start = [], time.perf_counter()
        while True:
            steps.append(step())
            elapsed = time.perf_counter() - start
            mean_step = elapsed / len(steps)
            if elapsed + mean_step > seconds and len(steps) >= self.min_runs:
                return steps
            if mean_step > self.remaining():
                return steps


def _mark_repeats(runs: list[dict], reference: dict | None,
                  what: str) -> None:
    """Add a problem to each run whose output bytes differ from
    ``reference``."""
    for run in runs:
        if run["problems"] or reference is None:
            continue
        differ = sorted(name for name in set(reference) | set(run["hashes"])
                        if reference.get(name) != run["hashes"].get(name))
        if differ:
            run["problems"].append(f"{', '.join(differ)} differ from {what}")


def _check_repeats(runs: list[dict]) -> None:
    """Every run's output bytes must match the first correct run's."""
    good = [r for r in runs if not r["problems"]]
    if good:
        _mark_repeats(runs, good[0]["hashes"], "the first correct run")


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_plain(session: Session, seconds: float) -> dict:
    session.warm_up()
    runs = session.repeat(lambda: session.run_once(traced=False), seconds)
    _check_repeats(runs)
    setup = [s for r in runs for s in r["setup_s"]]
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(session.help().setup_s)

    def median_of(key):
        return statistics.median(r[key] for r in runs)

    metrics = {
        "wall_s": {"value": median_of("wall_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cpu_s": {"value": median_of("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median_of("peak_rss_mb"), "unit": "MiB"},
    }
    return {"runs": runs, "metrics": metrics, "setup_samples": len(setup)}


def _evaluations(out_dir: Path) -> dict:
    """Fit evaluations per family from report.json's diagnostics."""
    try:
        families = json.loads((out_dir / "report.json").read_text())
        return {fam: entry["fit"]["diagnostics"]["evaluations"]
                for fam, entry in families["families"].items()}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _written_bytes(out_dir: Path) -> int:
    """Bytes of the files a pipeline run wrote (0 for other commands)."""
    if not (out_dir / "report.json").is_file():
        return 0
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def measure_traced(session: Session, seconds: float) -> dict:
    session.warm_up()
    turns = itertools.count()

    def pair():
        # Alternate which side runs first: a benchmark's first run tends
        # to be the slowest, which would bias the overhead.
        traced_first = next(turns) % 2 == 1
        first = session.run_once(traced=traced_first)
        second = session.run_once(traced=not traced_first)
        plain, traced = (second, first) if traced_first else (first, second)
        _mark_repeats([traced], plain["hashes"], "the untraced run")
        return plain, traced

    pairs = session.repeat(pair, seconds)
    plain_runs = [p for p, _ in pairs]
    traced_runs = [t for _, t in pairs]
    _check_repeats(plain_runs)
    values, missing, spans = [], set(), []
    for run in traced_runs:
        spans, run_missing = tracer.load_spans(
            p for p in run["spans"] if p.is_file())
        missing |= run_missing
        values.append(tracer.layer_values(spans, _evaluations(run["out_dir"]),
                                          _written_bytes(run["out_dir"])))
    overhead = (statistics.median(r["wall_s"] for r in traced_runs)
                - statistics.median(r["wall_s"] for r in plain_runs))
    metrics, dropped = tracer.layer_metrics(values, overhead, missing)
    return {"runs": plain_runs + traced_runs, "metrics": metrics,
            "missing_hooks": sorted(missing), "missing_metrics": dropped,
            "split": tracer.self_time_split(spans), "spans": spans}


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(load_at_start) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "blas": blas,
            "blas_thread_env": {k: os.environ.get(k)
                                for k in BLAS_THREAD_VARIABLES},
            "git_commit": _git_commit(),
            "loadavg_at_start": list(load_at_start)}


def _summary_lines(name, seed, trace, body, line) -> list[str]:
    runs = body["runs"]
    lines = [f"workload {name}, seed {seed}: {len(runs)} runs, "
             f"closed loop, 1 client, tracing {'on' if trace else 'off'}"]
    metrics = line["metrics"]
    if not trace:
        walls = [r["wall_s"] for r in runs]
        lines += [
            f"  wall_s       {metrics['wall_s']['value']:10.4f} s    median "
            f"of {len(walls)} (min {min(walls):.4f}, max {max(walls):.4f})",
            f"  setup_s      {metrics['setup_s']['value']:10.4f} s    median "
            f"of {body['setup_samples']} invocations",
            f"  cpu_s        {metrics['cpu_s']['value']:10.4f} s    median",
            f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:10.1f} MiB  "
            f"median of per-run maxima"]
    else:
        split = body["split"]
        lines.append(f"  self time of the last traced run "
                     f"({split['total_s']:.3f} s traced):")
        for key, self_s in list(split["self_s"].items())[:10]:
            share = self_s / split["total_s"] if split["total_s"] else 0.0
            lines.append(f"    {key:<40} {self_s:9.4f} s  {share:6.1%}")
        overhead = metrics["trace.overhead_s"]["value"]
        lines.append(f"  trace.overhead_s {overhead:.4f} s")
        if body["missing_hooks"]:
            lines.append(f"  missing hooks: {', '.join(body['missing_hooks'])}"
                         f"; metrics not reported: "
                         f"{', '.join(body['missing_metrics'])}")
    lines.append(f"  error_rate   {line['failed'] / line['attempted']:10.4f} "
                 f"ratio ({line['failed']} failed of {line['attempted']})")
    hashes = runs[0]["hashes"] if runs else {}
    for file_name, digest in sorted(hashes.items()):
        lines.append(f"  sha256 {file_name} {digest}")
    for i, run in enumerate(runs):
        for problem in run["problems"]:
            lines.append(f"  run {i + 1} failed: {problem}")
    return lines


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            sizes: inputs.Sizes = inputs.FULL, label: str = "",
            min_runs: int = 1) -> dict:
    """Run one workload; return the result line plus the details."""
    load_at_start = os.getloadavg()
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workload, seed, sizes, work, min_runs)
        body = (measure_traced if trace else measure_plain)(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = body["runs"]
    failed = sum(1 for r in runs if r["problems"])
    line = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": body["metrics"]}
    env = environment(load_at_start)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{label}{workload.name}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "result": line,
              "runs": [{k: v for k, v in r.items()
                        if k not in ("spans", "out_dir")} for r in runs]}
    if trace:
        record.update(split=body["split"],
                      missing_hooks=body["missing_hooks"],
                      missing_metrics=body["missing_metrics"])
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(body["spans"]))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return {"line": line, "lines": _summary_lines(workload.name, seed, trace,
                                                  body, line),
            "environment": env}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def self_test() -> int:
    """Every workload, untraced and traced, on tiny inputs and with two
    runs each, so the byte-repeat check runs too; checks that each
    result is correct and names exactly the metrics and units of
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    catalogue = {name: unit for name, unit, *_ in
                 tracer.per_layer_catalogue()}
    if catalogue != want[True]:
        problems.append("BENCHMARK.json per_layer differs from the tracer")
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = measure(workload, 1, 0.0, trace, inputs.TINY,
                             label="selftest-", min_runs=2)
            line = result["line"]
            print("\n".join(result["lines"]))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics "
                                f"{sorted(set(got) ^ set(want[trace]))} "
                                f"differ from BENCHMARK.json")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "cellpp" / "cli.py").is_file():
        print(f"no cellpp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace))
        print("\n".join(result["lines"]), flush=True)
        results[name] = result
    print("env " + json.dumps(results[names[-1]]["environment"],
                              sort_keys=True))
    if len(names) == 1:
        print(json.dumps(results[names[0]]["line"]))
    else:
        print(json.dumps({n: r["line"] for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
