"""The modlie benchmark.

    python3 bench/run.py --workload {verify,rank_p7,reps} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each run starts the workload in
its own single-threaded worker process (bench/worker.py) on the
checkout's src/, relays the worker's per-pass lines, prints every metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb), with wall_s and setup_s in reference seconds: wall time
at the host's mean speed during it, sampled while it ran, as
bench/hostspeed.py explains.  With --trace 1 they are the per-layer
ones of a traced pass.  `attempted` counts the checked results (claim rows, rank tuples
and representatives) and `failed` those that did not match their
reference, so fail_frac = failed / attempted; the run exits 1 when it is
not 0.  The exit code is 2 when there is no modlie source to run.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "modlie", "__init__.py")):
        print("run.py: no modlie source under %s" % SRC, file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: worker exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("run.py: worker exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    attempted, failed = res["attempted"], res["failed"]
    print("workload %s, seed %d, %d pass(es), %s"
          % (res["workload"], res["seed"], len(res["passes"]),
             "traced" if res["trace"] else "untraced"))
    for name, m in res["metrics"].items():
        print("  %-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-34s %16.6f 1 (%d of %d checked results wrong)"
          % ("fail_frac", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": res["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
