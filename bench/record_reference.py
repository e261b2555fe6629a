"""Record reference.json: each workload's summary numbers at the reference seed.

Usage, from the root of a checkout: python3 bench/record_reference.py

Run it only on a commit whose statistical output is known to be right;
every benchmark run compares against this file to 1e-10 relative.
"""

import json
import shutil
import sys
import time

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        work = run.WORK / "record_reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        numbers, errors = run.reference_run(run.Runner(work, time.perf_counter() + 600), wl)
        if numbers is None or errors:
            print(f"{name}: {errors}", file=sys.stderr)
            return 1
        out[name] = numbers
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
