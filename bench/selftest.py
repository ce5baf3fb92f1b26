"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

Checks, on a tiny p = 5 instance, that traced counts repeat exactly and
match a known value, that the correctness gate rejects a wrong
reference, a broken representative and a failed claim row, that
BENCHMARK.json names exactly the metrics the benchmark prints, that the
host-speed sampler takes samples and leaves their time out of an
interval, and that bench/run.py refuses to run without modlie sources.
Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hostspeed import PERIOD_S, Sampler  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import (REFERENCE, CohomologyWorkload, VerifyWorkload,  # noqa: E402
                       load_modlie)

# Echelon.add calls (rows of d_2 plus image vectors of d_1) for
# weight-zero H^2 of W1(1)(x)O1(1) at p = 5 in the natural basis
ECHELON_ADDS_P5 = 9368


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def traced_counts(m, wl, seed):
    inputs = wl.build(m, seed, 0)
    tr = Tracer()
    tr.install(vars(m))
    try:
        out = wl.run(m, inputs)
    finally:
        tr.uninstall()
    counts = {k: v for k, (v, unit) in per_layer_metrics(tr, 1.0, 0.0, {}).items()
              if unit == "count"}
    return counts, inputs, out


def main():
    m = load_modlie()
    tiny = CohomologyWorkload("tiny", [("w1xo1", 5)], want_reps=False)
    first, inputs, out = traced_counts(m, tiny, 0)
    again, _, _ = traced_counts(m, tiny, 0)
    expect(first == again, "traced counts repeat exactly: %s" % first)
    expect(first["linalg.echelon.rows"] == ECHELON_ADDS_P5,
           "%d Echelon.add calls on weight-zero H^2 of W1(1)(x)O1(1), p = 5"
           % first["linalg.echelon.rows"])
    rescaled, _, _ = traced_counts(m, tiny, 3)
    expect(rescaled == first, "a rescaled basis (seed 3) gives the same counts")

    expect(all(c.ok for c in tiny.check(m, inputs, out)),
           "gate passes the true reference")
    wrong = dict(REFERENCE)
    ncols, rank_d, rank_prev = wrong[("w1xo1", 5)]
    wrong[("w1xo1", 5)] = (ncols, rank_d + 1, rank_prev)
    expect(not all(c.ok for c in tiny.check(m, inputs, out, wrong)),
           "gate fails a wrong reference")

    reps = CohomologyWorkload("tiny-reps", [("ldef", 5)], want_reps=True)
    inputs = reps.build(m, 2, 0)
    out = reps.run(m, inputs)
    checks = reps.check(m, inputs, out)
    expect(all(c.ok for c in checks) and len(checks) == 1 + 4,
           "gate passes 4 closed representatives on L(O1(1),d), seed 2")
    key, res, dt = out[0]
    L = inputs[0][1]
    T, t = m.ceco.chain_columns(L, 2, "adjoint", m.ceco.weight_zero_reduce(L))[0]
    res.reps[0] = m.ceco.Cochain(L, 2, "adjoint", {T: {t: 1}})
    expect(not all(c.ok for c in reps.check(m, inputs, out)),
           "gate fails a representative that is not closed")
    row = {"instance": {}, "status": "fail", "expected": 1, "computed": 2}
    expect(not VerifyWorkload().check(m, None, [("x", [row], 0.0)])[0].ok,
           "gate fails a failed claim row")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    claim_times = {cid: 0.0 for cid in m.claims.CLAIMS}
    printed = set(per_layer_metrics(Tracer(), 1.0, 0.0, claim_times))
    expect({x["name"] for x in spec["per_layer"]} == printed,
           "BENCHMARK.json per_layer names the %d traced metrics" % len(printed))
    expect({x["name"] for x in spec["end_to_end"]}
           == {"wall_s", "setup_s", "peak_rss_mb"},
           "BENCHMARK.json end_to_end names the untraced metrics")

    sampler = Sampler()
    sampler.start()
    try:
        start = sampler.mark()
        busy_until = time.perf_counter() + 20 * PERIOD_S
        while time.perf_counter() < busy_until:
            pass
        end = sampler.mark()
    finally:
        sampler.stop()
    wall, speed, ref = sampler.interval(start, end)
    probes = sum(sampler.took[start[1]:end[1]])
    expect(end[1] - start[1] >= 10 and speed > 0 and probes > 0
           and abs(wall + probes - (end[0] - start[0])) < 1e-9
           and abs(ref - wall * speed) < 1e-9,
           "%d host-speed samples in %.2f s, speed %.3f, probe time left out"
           % (end[1] - start[1], end[0] - start[0], speed))

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py exits %d and prints no result without modlie sources"
           % proc.returncode)


if __name__ == "__main__":
    main()
