"""seqdi benchmark: Monte Carlo replications per second, measured from outside.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The workloads are defined in workloads.py.  The loop is closed: this
process starts one program process at a time and waits for it to end, and
no run uses more than two worker processes.  BLAS and OpenMP are pinned to
one thread in every process.

With ``--trace 0`` a run reports the end-to-end metrics

* ``reps_per_s``: replications completed per second over the timed run:
  the replications of all good attempts over their summed wall time.  An
  attempt is one ``run_mc`` call of ``chunk`` replications in the workload
  process, or one whole ``seqdi simulate`` subprocess (pool start-up and
  ``emit_results`` included) for the CLI workload.
* ``setup_s``: median wall time of the workload run at replications=1 in a
  fresh interpreter (interpreter start, imports, population build or CSV
  load, calibration, FixedPartition pilot fit and designs).
* ``peak_rss_mb``: peak resident memory of the workload process.

Both times are scaled to a reference machine speed by speed.py.

With ``--trace 1`` it runs a fixed number of replications once untraced and
once with every seqdi layer wrapped (tracer.py), both with threads=1, and
reports the per-layer metrics plus ``harness.trace_overhead``.

Every run also checks correctness: the workload at the reference seed must
reproduce reference.json to 1e-10 relative (the CLI workload must also
write the same summary.csv at 1 and 2 workers), and every timed or traced
attempt must produce a complete, finite, in-range summary.  Failures count
in ``failed`` out of ``attempted`` (failed_frac) and are never timed.  The
last line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads, here and in every child

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
SETUP_RUNS = 9
RUN_BUDGET_S = 170.0
MAX_ATTEMPTS = 1000


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _adopt_orphans():
    """Make this process the parent of any orphaned descendant (Linux
    PR_SET_CHILD_SUBREAPER), so that _end_group can wait for it."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _end_group(pgid):
    """Kill whatever is left of process group pgid and wait until it is gone."""
    _kill_group(pgid)
    give_up = time.monotonic() + 30.0
    while time.monotonic() < give_up:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the clean-up of every process


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float


class Runner:
    """Starts the processes of one workload run, one at a time, before a deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(work))
        self.count = 0

    def _next(self, stem):
        self.count += 1
        return self.work / f"{self.count:03d}_{stem}"

    def spawn(self, argv):
        """Run argv to its end; its peak RSS covers the children it waited for."""
        if time.perf_counter() >= self.deadline:
            return Proc(-1, 0.0, 0.0)
        with open(self._next("output.log"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                    env=self.env, start_new_session=True)
            # At the deadline the timer kills the process group, pool workers included.
            timer = threading.Timer(self.deadline - start, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                _end_group(proc.pid)  # pool workers or helpers that outlived it
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def child(self, job):
        """Run one child.py job; return (Proc, its result dict or None)."""
        job_path, result_path = self._next("job.json"), self._next("result.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = self.spawn([sys.executable, str(BENCH / "child.py"), str(job_path),
                           str(result_path)])
        if proc.code != 0 or not result_path.exists():
            return proc, None
        return proc, json.loads(result_path.read_text(encoding="utf-8"))

    def cli_argv(self, config, threads):
        """Write ``config``; return the ``seqdi`` arguments that simulate it, and
        the output directory."""
        config_path, out_dir = self._next("config.json"), self._next("out")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return ["simulate", "--config", str(config_path), "--out", str(out_dir),
                "--threads", str(threads)], out_dir

    def simulate(self, config, threads):
        """Run ``seqdi simulate`` as a subprocess; return (Proc, output directory)."""
        argv, out_dir = self.cli_argv(config, threads)
        return self.spawn([sys.executable, "-m", "seqdi.cli", *argv]), out_dir


class Tally:
    """Attempted and failed operations of one run, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, label, errors):
        """Count one attempt; return whether it succeeded."""
        self.attempted += 1
        self.failed += bool(errors)
        self.errors.extend(f"{label}: {error}" for error in errors)
        return not errors


def reference_run(runner, wl):
    """Run the workload at the reference seed; return (summary numbers, errors)."""
    if not wl.cli_threads:
        proc, result = runner.child({"config": wl.config, "replications": wl.reference_reps,
                                     "seeds": [workloads.REFERENCE_SEED], "seconds": None})
        if result is None:
            return None, [f"child exited with {proc.code}"]
        attempt = result["attempts"][0]
        return attempt.get("numbers"), [attempt["error"]] if "error" in attempt else []

    csv_path = runner.work / "population_reference.csv"
    workloads.write_population_csv(csv_path, workloads.REFERENCE_SEED)
    config = dict(wl.config, seed=workloads.REFERENCE_SEED, replications=wl.reference_reps,
                  population_csv=str(csv_path))
    summaries = {}
    for threads in (1, wl.cli_threads):
        proc, out_dir = runner.simulate(config, threads)
        if proc.code != 0:
            return None, [f"seqdi simulate --threads {threads} exited with {proc.code}"]
        summaries[threads] = out_dir
    one, many = ((summaries[t] / "summary.csv").read_bytes() for t in (1, wl.cli_threads))
    errors = [] if one == many else [f"summary.csv differs at 1 and {wl.cli_threads} workers"]
    return workloads.read_summary_csv(summaries[1]), errors


def check_reference(runner, wl, reference, tally):
    numbers, errors = reference_run(runner, wl)
    if numbers is not None:
        errors = errors + workloads.reference_errors(numbers, reference)
    tally.record("reference", errors)


def measure_setup(runner, wl, seed, csv_path, tally):
    """Return (wall seconds, scale) of each good set-up run."""
    mc_seed = workloads.derive_seed(seed, 0)
    if wl.cli_threads:
        config = dict(wl.config, seed=mc_seed, replications=1, population_csv=str(csv_path))

        def start():
            return runner.simulate(config, wl.cli_threads)[0]
    else:
        job = {"config": wl.config, "replications": 1, "seeds": [mc_seed], "seconds": None}

        def start():
            return runner.child(job)[0]

    walls = []
    with speed.Bracket(cores=max(1, wl.cli_threads)) as bracket:
        for _ in range(SETUP_RUNS):
            proc, _, scale = bracket.timed(start)
            if tally.record("setup", [] if proc.code == 0 else [f"exit code {proc.code}"]):
                walls.append((proc.wall_s, scale))
    return walls


def timed_attempts(runner, wl, seed, seconds, csv_path, expected, tally):
    """Return ((wall seconds, scale) of each good attempt, peak RSS values in MB)."""
    walls, rss = [], []
    seeds = [workloads.derive_seed(seed, k) for k in range(1, MAX_ATTEMPTS + 1)]
    if not wl.cli_threads:
        proc, result = runner.child({"config": wl.config, "replications": wl.chunk,
                                     "seeds": seeds, "seconds": seconds, "bracket": True})
        if result is None:
            tally.record("timed", [f"child exited with {proc.code}"])
            return walls, rss
        rss.append(proc.peak_rss_mb)
        for attempt in result["attempts"]:
            errors = ([attempt["error"]] if "error" in attempt
                      else workloads.plausibility_errors(attempt["numbers"], expected))
            if tally.record(f"seed {attempt['seed']}", errors):
                walls.append((attempt["wall_s"], attempt["scale"]))
        return walls, rss

    with speed.Bracket(cores=wl.cli_threads) as bracket:
        began = time.perf_counter()
        for mc_seed in seeds:
            if time.perf_counter() - began >= seconds:
                break
            config = dict(wl.config, seed=mc_seed, replications=wl.chunk,
                          population_csv=str(csv_path))
            (proc, out_dir), _, scale = bracket.timed(
                lambda: runner.simulate(config, wl.cli_threads))
            errors = [f"exit code {proc.code}"] if proc.code != 0 else \
                workloads.plausibility_errors(workloads.read_summary_csv(out_dir), expected)
            if tally.record(f"seed {mc_seed}", errors):
                walls.append((proc.wall_s, scale))
                rss.append(proc.peak_rss_mb)
    return walls, rss


def traced_layers(runner, wl, seed, csv_path, expected, tally):
    """Untraced then traced run of the same replications; return per-layer metrics."""
    mc_seed = workloads.derive_seed(seed, 0)
    runs = {}
    for trace in (False, True):
        job = {"replications": wl.trace_reps, "trace": trace, "bracket": True,
               "spans_csv": str(runner.work / "spans.csv")}
        if wl.cli_threads:
            job["argv"], out_dir = runner.cli_argv(dict(
                wl.config, seed=mc_seed, replications=wl.trace_reps, population_csv=str(csv_path)),
                threads=1)
        else:
            job.update(config=wl.config, seeds=[mc_seed], seconds=None)
        proc, result = runner.child(job)
        label = "traced" if trace else "untraced"
        if result is None:
            tally.record(label, [f"child exited with {proc.code}"])
            return None
        if wl.cli_threads:
            attempt = result
            numbers = workloads.read_summary_csv(out_dir)
            error = None if result["exit_code"] == 0 else f"exit code {result['exit_code']}"
        else:
            attempt = result["attempts"][0]
            numbers, error = attempt.get("numbers"), attempt.get("error")
        if not tally.record(label, [error] if error else
                            workloads.plausibility_errors(numbers, expected)):
            return None
        runs[trace] = (numbers, attempt["scale"], attempt["wall_s"] * attempt["scale"],
                       result.get("layers"))
    if not tally.record("traced vs untraced",
                        [] if runs[True][0] == runs[False][0] else ["summaries differ"]):
        return None
    _, scale, traced_s, layers = runs[True]
    for name in layers:
        if name.endswith(".ms_per_call"):
            layers[name] *= scale
    layers["harness.trace_overhead"] = runs[False][2] / traced_s
    return layers


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    if len(values) < 2:
        return ""
    return f" (n={len(values)}, min {min(values):.4g}, max {max(values):.4g})"


def run_workload(wl, seed, seconds, trace, reference):
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.perf_counter() + RUN_BUDGET_S)
    tally = Tally()
    csv_path = None
    if wl.cli_threads:
        csv_path = work / "population.csv"
        workloads.write_population_csv(csv_path, seed)

    check_reference(runner, wl, reference, tally)
    if trace:
        layers = traced_layers(runner, wl, seed, csv_path, reference, tally) or {}
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit, _ in tracer.metric_table()}
    else:
        setup = measure_setup(runner, wl, seed, csv_path, tally)
        attempts, rss = timed_attempts(runner, wl, seed, seconds, csv_path, reference, tally)
        reps = wl.chunk * len(attempts)
        values = {  # name: (value, value as timed, per-attempt values, unit)
            "reps_per_s": (reps / sum(w * s for w, s in attempts) if attempts else 0.0,
                           reps / sum(w for w, _ in attempts) if attempts else 0.0,
                           [wl.chunk / (w * s) for w, s in attempts], "1/s"),
            "setup_s": (median([w * s for w, s in setup]), median([w for w, _ in setup]),
                        [w * s for w, s in setup], "s"),
            "peak_rss_mb": (median(rss), None, rss, "MB"),
        }
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, _, _, unit) in values.items()}
        for name, (value, raw, each, unit) in values.items():
            timed = "" if raw is None else f"; as timed: {raw:.6g} {unit}"
            print(f"{wl.name}: {name} = {value:.6g} {unit}{spread(each)}{timed}")
    print(f"{wl.name}: failed_frac = {tally.failed}/{tally.attempted}")
    for error in tally.errors:
        print(f"{wl.name}: FAILED {error}", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    _adopt_orphans()

    if not (SRC / "seqdi" / "__init__.py").is_file():
        print(f"error: no seqdi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import seqdi

    if not Path(seqdi.__file__).resolve().is_relative_to(SRC):
        print(f"error: seqdi was imported from {seqdi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    print("machine " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "seqdi": seqdi.__version__, "commit": git_commit(),
        "pinned_threads": PINNED_THREADS, "platform": platform.platform(),
    }))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                              args.trace, reference[name])
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
