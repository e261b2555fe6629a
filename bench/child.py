"""One benchmark job in a fresh interpreter; run.py starts it and reads its result.

Usage: python3 bench/child.py JOB.json RESULT.json

A job either runs ``run_mc(threads=1)`` once per listed seed, stopping
early once ``seconds`` have elapsed, or calls ``seqdi.cli.main(argv)``
once.  With ``bracket`` set, the machine-speed probe of speed.py runs
before and after each timed call.  With ``trace`` set, every seqdi layer
is wrapped first and the result carries the per-layer metrics; the spans
go to ``spans_csv``.
"""

import json
import sys
import time

import speed
import workloads


def run_mc_attempts(job, bracket):
    from seqdi.harness import McConfig, run_mc

    attempts = []
    began = time.perf_counter()
    for seed in job["seeds"]:
        config = McConfig(replications=job["replications"], seed=seed, **job["config"])
        try:
            summary, wall, scale = bracket.timed(lambda: run_mc(config, threads=1))
        except Exception as err:  # a failed attempt is counted by run.py, not fatal
            attempts.append({"seed": seed, "error": repr(err)})
        else:
            attempts.append({"seed": seed, "wall_s": wall, "scale": scale,
                             "numbers": workloads.summary_numbers(summary)})
        if job["seconds"] is not None and time.perf_counter() - began >= job["seconds"]:
            break
    return {"attempts": attempts}


def run_cli(job, bracket):
    from seqdi.cli import main

    code, wall, scale = bracket.timed(lambda: main(job["argv"]))
    return {"exit_code": code, "wall_s": wall, "scale": scale}


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    bracket = speed.Bracket(job.get("bracket", False))
    result = (run_cli if "argv" in job else run_mc_attempts)(job, bracket)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(job["replications"])
        tracer.write(job["spans_csv"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
