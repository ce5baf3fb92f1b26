"""One benchmark run of one workload, in this single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

bench/run.py starts this with PYTHONPATH set to the checkout's src/.
It prints one line per pass and, last, one JSON object with the
metrics and the checked results.

A pass runs the workload's units (claims or queries) once, on inputs
built outside the timed region.  Results are checked after each pass,
also untimed.

Untraced, passes run until --seconds have elapsed.  Set-up is a fresh
import of modlie plus building the inputs of a pass; it is sampled
SETUP_REPEATS times before every pass and once more after the last.
Meanwhile the host's speed is sampled (bench/hostspeed.py), and every
pass and set-up sample is converted to reference seconds, its wall time
at the host's mean speed during it; wall_s is the median pass and
setup_s the median set-up sample, both in reference seconds.

Traced, a traced pass runs between two untraced passes on the same
inputs; the traced pass minus the mean of the untraced ones, all three
in reference seconds, is the tracing overhead.  The other traced times
are plain wall times; a probe that interrupts a traced call counts in
that call's span, about 0.5 % of the pass.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import time

from hostspeed import Sampler
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, load_modlie

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 10
# no new pass starts if the last one would end after this many seconds
DEADLINE_S = 120.0


def setup(wl, args, pass_, sampler, samples):
    """Import modlie afresh and build the inputs of one pass, timed
    SETUP_REPEATS times (start and end marks appended to samples);
    returns the last modules and inputs."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = sampler.mark()
        m = load_modlie()
        inputs = wl.build(m, args.seed, pass_)
        samples.append((start, sampler.mark()))
    return m, inputs


def timed_pass(wl, m, inputs, sampler):
    """Run one pass; returns its output, its wall time and its start
    and end marks."""
    gc.collect()
    start = sampler.mark()
    out = wl.run(m, inputs)
    end = sampler.mark()
    return out, end[0] - start[0], (start, end)


def report_pass(wl, args, i, dt, out):
    print("%s seed=%d pass=%d: %.3f s" % (wl.name, args.seed, i, dt))
    for line in wl.describe(out):
        print("  " + line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    sampler = Sampler()
    sampler.start()
    try:
        run(wl, args, sampler)
    finally:
        sampler.stop()


def run(wl, args, sampler):
    setup_samples = []
    m, inputs = setup(wl, args, 0, sampler, setup_samples)
    if not m.linalg.__file__.startswith(SRC + os.sep):
        raise SystemExit("modlie was imported from %s, not from %s"
                         % (m.linalg.__file__, SRC))

    checks = []
    if args.trace:
        out, untraced, before = timed_pass(wl, m, inputs, sampler)
        report_pass(wl, args, 0, untraced, out)
        checks += wl.check(m, inputs, out)
        claim_times = {cid: 0.0 for cid in m.claims.CLAIMS}
        if wl.name == "verify":
            claim_times.update((cid, t) for cid, _, t in out)
        inputs = wl.build(m, args.seed, 0)
        tr = Tracer()
        tr.install(vars(m))
        try:
            out, traced, during = timed_pass(wl, m, inputs, sampler)
        finally:
            tr.uninstall()
        report_pass(wl, args, 1, traced, out)
        checks += wl.check(m, inputs, out)
        out = None
        inputs = wl.build(m, args.seed, 0)
        out, after, later = timed_pass(wl, m, inputs, sampler)
        report_pass(wl, args, 2, after, out)
        checks += wl.check(m, inputs, out)
        ref = [sampler.interval(*mark)[2] for mark in (before, during, later)]
        metrics = per_layer_metrics(tr, traced, ref[1] - (ref[0] + ref[2]) / 2,
                                    claim_times)
        os.makedirs(os.path.join(ROOT, "bench", "results"), exist_ok=True)
        tr.write(os.path.join(ROOT, "bench", "results", "trace-%s-seed%d.json"
                              % (wl.name, args.seed)),
                 {"workload": wl.name, "seed": args.seed})
        passes = [untraced, after]
    else:
        marks = []
        longest = 0.0
        start = time.perf_counter()
        while True:
            out, dt, mark = timed_pass(wl, m, inputs, sampler)
            report_pass(wl, args, len(marks), dt, out)
            marks.append(mark)
            longest = max(longest, dt)
            checks += wl.check(m, inputs, out)
            # a large live heap slows the collections that set-up triggers
            out = inputs = None
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds or elapsed + longest >= DEADLINE_S:
                break
            m, inputs = setup(wl, args, len(marks), sampler, setup_samples)
        setup(wl, args, len(marks), sampler, setup_samples)
        passes = []
        for i, mark in enumerate(marks):
            wall, speed, ref = sampler.interval(*mark)
            print("pass %d: %.3f s wall at host speed %.3f = %.3f reference s"
                  % (i, wall, speed, ref))
            passes.append(ref)
        setups = [sampler.interval(*mark)[2] for mark in setup_samples]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(passes), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MB")}

    failures = [c for c in checks if not c.ok]
    for c in failures:
        print("FAIL %s: %s" % (c.label, c.detail))
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "passes": passes,
        "attempted": len(checks), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
