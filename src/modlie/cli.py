"""Command-line front end: claim verification and generic cohomology
queries.  Every number is computed by the run that reports it, and the
commands write no file but the --json-out report.

Reports are deterministic: the JSON document contains no wall times, so
repeated runs are byte-identical; timing is shown only in the human
table.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from . import __version__
from .ceco import BudgetExceeded, ComplexSlice, cohomology_dim, DEFAULT_BUDGET
from .claims import CLAIMS, Ctx, resolve_claim
from .liealg import GRAMMAR, LieAlgebra, build_algebra

FORCED_BUDGET = 10 ** 12


def _git_hash():
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _report(body):
    doc = {"schema": 1, "tool": "modlie", "version": __version__,
           "git": _git_hash()}
    doc.update(body)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _print_table(rows, timing):
    wid = max([len(r["claim"]) for r in rows] + [5])
    # a claim's time is shown once, on its first row
    print("%-*s  %-28s  %-14s  %10s" % (wid, "claim", "instance", "status",
                                        "claim time"))
    for i, r in enumerate(rows):
        inst = ",".join("%s=%s" % (k, v) for k, v in sorted(
            r["instance"].items()))
        dt = "" if timing[i] is None else "%7.2fs" % timing[i]
        print(("%-*s  %-28s  %-14s  %10s"
               % (wid, r["claim"], inst[:28], r["status"], dt)).rstrip())
        if r["status"] == "fail":
            print("    expected: %s" % json.dumps(r["expected"],
                                                  sort_keys=True))
            print("    computed: %s" % json.dumps(r["computed"],
                                                  sort_keys=True))
        elif r["status"] == "skipped-budget":
            print("    %s" % r.get("note", ""))
    npass = sum(1 for r in rows if r["status"] == "pass")
    print("%d/%d rows pass" % (npass, len(rows)))


def cmd_verify(args):
    if args.list:
        for cid, claim in CLAIMS.items():
            print("%-22s %s" % (cid, claim.statement))
        return 0
    if not args.claim:
        print("verify: claim id or 'all' required (or --list)",
              file=sys.stderr)
        return 2
    try:
        targets = (list(CLAIMS) if args.claim.lower() == "all"
                   else [resolve_claim(args.claim).id])
    except KeyError as e:
        print("verify: %s" % e.args[0], file=sys.stderr)
        return 2
    overrides = {}
    for name in ("p", "n", "m"):
        val = getattr(args, name)
        if val is not None:
            overrides[name] = val
    # a named claim gets every override and refuses one it does not
    # take; 'all' passes each claim the ones it takes and says so
    every = args.claim.lower() == "all"
    if every:
        for cid in targets:
            skip = [k for k in overrides if k not in CLAIMS[cid].params]
            if skip:
                print("verify: %s ignores %s" % (
                    cid, ", ".join("--" + k for k in skip)), file=sys.stderr)
    # the budget only refuses work, so lifting it changes no row that fits
    ctx = Ctx(budget=FORCED_BUDGET if args.force else args.budget,
              seed=args.seed)
    rows, timing = [], []
    for cid in targets:
        claim = CLAIMS[cid]
        ov = {k: v for k, v in overrides.items()
              if not every or k in claim.params} or None
        t0 = time.perf_counter()
        try:
            got = claim.rows(ctx, ov)
        except ValueError as e:
            print("verify: %s" % e, file=sys.stderr)
            return 2
        rows += got
        timing += [time.perf_counter() - t0] + [None] * (len(got) - 1)
    status = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    doc = _report({"claims": rows, "status": status})
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    if args.output == "json":
        sys.stdout.write(doc)
    else:
        _print_table(rows, timing)
    return 0 if status == "pass" else 1


def _load_algebra(args):
    """The algebra args names: an expression at --p (default 5), or an
    algebra .json file, which carries its own p and refuses --p."""
    target = args.algebra
    if not (target.endswith(".json") or os.path.sep in target):
        return build_algebra(target, 5 if args.p is None else args.p)
    if args.p is not None:
        raise ValueError("%s does not take --p" % target)
    try:
        with open(target, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (target, e))
    except ValueError as e:
        raise ValueError("malformed JSON in %s: %s" % (target, e))
    try:
        return LieAlgebra.from_json(doc, name=os.path.basename(target))
    except ValueError as e:
        raise ValueError("malformed algebra file %s: %s" % (target, e))


def cmd_cohomology(args):
    try:
        L = _load_algebra(args)
    except ValueError as e:
        print("cohomology: %s" % e, file=sys.stderr)
        return 2
    module = args.module
    weight = 0 if (args.weight_reduction == "on"
                   and L.toral is not None) else None
    degree = args.degree_slice
    slice_ = None
    if weight is not None or degree is not None:
        try:
            slice_ = ComplexSlice(L, module, weight=weight, degree=degree)
        except ValueError as e:
            print("cohomology: %s" % e, file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    try:
        res = cohomology_dim(L, args.deg, module=module, slice_=slice_,
                             budget=args.budget, want_reps=args.dump_reps)
    except BudgetExceeded as e:
        # the whole complex of an algebra with a toral element was asked for
        drop = slice_ is None and L.toral is not None
        print("cohomology: %s; raise --budget%s"
              % (e, " or drop --weight-reduction off" if drop else ""),
              file=sys.stderr)
        return 1
    dt = time.perf_counter() - t0
    if args.stats:
        print("stats: %s" % json.dumps(res.stats, sort_keys=True),
              file=sys.stderr)
    body = {
        "query": {"algebra": L.name, "dim": L.dim, "p": L.p,
                  "degree": args.deg, "module": module,
                  "slice": slice_.descriptor() if slice_ else None},
        "dim": res.dim, "ncols": res.ncols, "rank_d": res.rank_d,
        "rank_prev": res.rank_prev,
    }
    if args.dump_reps:
        body["representatives"] = [
            [[list(T), t, v] for T, vec in sorted(c.coeffs.items())
             for t, v in sorted(vec.items())]
            for c in res.reps]
    if args.output == "json":
        sys.stdout.write(_report(body))
    else:
        print("H^%d(%s; %s)%s = %d   (columns %d, rank d %d, rank prev %d)"
              " [%.2fs]"
              % (args.deg, L.name, module,
                 "" if slice_ is None else " on " + json.dumps(
                     slice_.descriptor(), sort_keys=True),
                 res.dim, res.ncols, res.rank_d, res.rank_prev, dt))
        if args.dump_reps:
            for i, c in enumerate(res.reps):
                flat = ["(%s)->%d:%d" % (";".join(L.labels[x] for x in T),
                                         t, v)
                        for T, vec in sorted(c.coeffs.items())
                        for t, v in sorted(vec.items())]
                print("  rep %d: %s" % (i, " ".join(flat[:8])
                                        + (" ..." if len(flat) > 8 else "")))
    return 0


def at_least_one(text):
    """argparse type of verify's --n and --m and of --budget: an integer
    >= 1, so that the error names the option rather than a constructor's
    own parameter or a budget that no work fits."""
    h = int(text)
    if h < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % h)
    return h


def _add_common(sp):
    sp.add_argument("--p", type=int, default=None,
                    help="characteristic (prime)")
    sp.add_argument("--budget", type=at_least_one, default=DEFAULT_BUDGET,
                    help="work budget for cohomology assembly")
    sp.add_argument("--output", choices=("json", "table"), default="table")


def main(argv=None):
    # no prefix matching: --degree would be read as --degree-slice
    ap = argparse.ArgumentParser(
        prog="modlie", allow_abbrev=False,
        description="exact cohomology of modular Lie algebras over F_p")
    sub = ap.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run verification claims",
                       allow_abbrev=False)
    v.add_argument("claim", nargs="?", help="claim id or 'all'")
    v.add_argument("--list", action="store_true", help="list claim ids")
    v.add_argument("--force", action="store_true",
                   help="run every claim without a work budget")
    v.add_argument("--json-out", default=None,
                   help="also write the JSON report to this path")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for randomized probes")
    v.add_argument("--n", type=at_least_one, default=None, help="W-height n")
    v.add_argument("--m", type=at_least_one, default=None,
                   help="divided-power height m")
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("cohomology", help="compute one cohomology dimension",
                       allow_abbrev=False)
    c.add_argument("algebra", help="%s (at --p, default 5), or an algebra "
                                   ".json file" % GRAMMAR)
    c.add_argument("--deg", type=int, default=2, help="cohomology degree")
    c.add_argument("--module", choices=("adjoint", "trivial"),
                   default="adjoint")
    c.add_argument("--weight-reduction", choices=("on", "off"), default="on",
                   help="restrict to the weight-zero slice when a toral "
                        "element is available")
    c.add_argument("--degree-slice", type=int, default=None,
                   help="restrict to one integer degree of the grading")
    c.add_argument("--dump-reps", action="store_true",
                   help="include representative cocycles")
    c.add_argument("--stats", action="store_true",
                   help="print per-stage times and sizes to stderr")
    _add_common(c)
    c.set_defaults(func=cmd_cohomology)

    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return 2
    try:
        return args.func(args)
    except OSError as e:
        print("modlie: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
