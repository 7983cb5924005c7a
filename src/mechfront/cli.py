"""Command line front end.

Verbs:
  opt        optimal makespan of an instance (optionally masked by a
             mechanism's equilibrium winner sets, min or max)
  equilibria enumerate one task's (or every task's) grid equilibria
  analyze    per-instance inefficiency report for a mechanism
  frontier   CSV sweep of analytic bounds vs. measured ratios over alpha
  probe      winner-reach matrix of a single-task rule
  verify     run a named property suite (exit 1 when a property fails)
  gen        write a generated instance to a file (text for a path ending
             in .txt, JSON for any other, as every verb reads it back)

Exit codes: 0 ok, 1 property violation, 2 usage or bad input, 3 budget
refused (an exact engine past its budget, or a generator asked for more than
instances.GENERATOR_BUDGET entries), 141 stdout closed by its reader (128 +
SIGPIPE, nothing on stderr).  Identical argv (plus seed) produce
byte-identical stdout; floats are printed with 6 significant digits, instance
files are written lossless.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import reprlib
import sys

from . import analysis, equilibria, instances
from .model import BudgetExceededError, MechanismId, read_float
from .optsolver import opt_makespan, opt_makespan_masked
from .rules import rule_for


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _round6(obj):
    """6-significant-digit copy of a JSON-ready structure (reports only;
    generated instances are saved lossless)."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _dump(data) -> str:
    return json.dumps(_round6(data), indent=1)


def _grid_for(inst, mech, spec):
    """`spec` is the --grid flag value "eps,H" or None for the default grid."""
    if spec is None:
        return equilibria.default_grid(inst, mech)
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"--grid wants 'eps,H', got {reprlib.repr(spec)}")
    return equilibria.default_grid(inst, mech, *(read_float(p, "--grid: not a number")
                                                 for p in parts))


class _Parser(argparse.ArgumentParser):
    """argparse, whose refusal of a value (not a number, not a choice)
    echoes it cut short by `reprlib.repr`; subparsers inherit the class."""

    def _get_values(self, action, arg_strings):
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as e:
            message = e.message
            for text in arg_strings:
                message = message.replace(repr(text), reprlib.repr(text))
            raise argparse.ArgumentError(action, message) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mechfront", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("opt", help="optimal makespan, optionally masked")
    q.add_argument("-i", "--instance", required=True)
    q.add_argument("--mech", help="mask by this mechanism's winner sets (fp, sp, spa:A)")
    q.add_argument("--objective", choices=("min", "max"),
                   help="with --mech: min (default) or max over the winner sets")

    q = sub.add_parser("equilibria", help="enumerate grid equilibria per task")
    q.add_argument("-i", "--instance", required=True)
    q.add_argument("--mech", required=True)
    q.add_argument("--task", type=int, help="single task index (default: all)")
    q.add_argument("--grid", metavar="EPS,H",
                   help="bid grid step and top (default: 0.1, alpha*max_finite + 0.2)")

    q = sub.add_parser("analyze", help="inefficiency report")
    q.add_argument("-i", "--instance", required=True)
    q.add_argument("--mech", required=True)

    q = sub.add_parser("frontier", help="bounds vs. measured ratios per alpha (CSV)")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--alphas", required=True, help="comma list, e.g. 1,1.5,2,4")
    q.add_argument("--suite", help="semicolon list of generators, e.g. "
                                   "'uniform:n=3;hat:n=3,alpha=2' (default: built-in)")

    q = sub.add_parser("probe", help="winner-reach matrix of a rule")
    q.add_argument("--mech", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--eps", type=float, default=0.5)
    q.add_argument("--cap", type=float, help="grid top (default: 2*reach + 1)")

    q = sub.add_parser("verify", help="run a property suite")
    q.add_argument("--suite", default="all",
                   choices=sorted(analysis.VERIFY_SUITES) + ["all"])
    q.add_argument("--seed", type=int,
                   help="seed of the seeded suites (default 0); the anonymity suite takes none")

    q = sub.add_parser("gen", help="write a generated instance to a file")
    q.add_argument("name", help="uniform (n) | tradeoff (n, rho) | fp_pos (n, eps) | "
                                "hat (n, alpha) | tilde (n, alpha) | thm3_hat (n) | "
                                "random (n, m, seed; multiples of 0.1 in [0.1, 4.0])")
    q.add_argument("params", nargs="*", help="key=value pairs, e.g. n=3 alpha=2")
    q.add_argument("-o", "--out", required=True,
                   help="a path ending in .txt gets the text format, any other JSON")
    return p


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
        return code
    except BrokenPipeError:  # before OSError: a closed stdout is not bad input
        return 141
    except BudgetExceededError as e:
        print(f"budget refused: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.verb == "opt":
        if args.objective and not args.mech:
            raise ValueError("--objective needs --mech")
        inst = instances.load_instance(args.instance)
        if args.mech:
            mech = MechanismId.parse(args.mech)
            mask = equilibria.achievable_winners(mech, inst)
            objective = args.objective or "min"
            value, witness = opt_makespan_masked(inst, mask, objective)
            print(_dump({"mech": str(mech), "objective": objective,
                         "value": value, "witness": list(witness)}))
        else:
            value, witness = opt_makespan(inst)
            print(_dump({"opt": value, "witness": list(witness)}))
        return 0

    if args.verb == "equilibria":
        inst = instances.load_instance(args.instance)
        mech = MechanismId.parse(args.mech)
        rule = rule_for(mech, inst.n)
        grid = _grid_for(inst, mech, args.grid)
        tasks = [args.task] if args.task is not None else list(range(inst.m))
        rows = []
        for j in tasks:
            if not 0 <= j < inst.m:
                raise ValueError(f"task {j} out of range")
            res = equilibria.enumerate_equilibria(rule, inst.column(j), grid)
            rows.append({"task": j, "profiles": sum(res.counts),
                         "winners": sorted(res.winner_union())})
        print(_dump({"mech": str(mech), "eps": grid.step,
                     "cap": grid.points[-1], "tasks": rows}))
        return 0

    if args.verb == "analyze":
        inst = instances.load_instance(args.instance)
        mech = MechanismId.parse(args.mech)
        report = analysis.inefficiency(mech, inst)
        print(_dump(report.to_dict()))
        return 0

    if args.verb == "frontier":
        alphas = sorted(read_float(a, "--alphas: not a number") for a in args.alphas.split(","))
        suite = None
        if args.suite:
            suite = [instances.GeneratorSpec.parse(s)
                     for s in args.suite.split(";") if s.strip()]
        points = analysis.frontier_sweep(args.n, alphas, suite)
        print("alpha,poa_bound,pos_bound,poa_emp,pos_emp")
        for pt in points:
            print(",".join(_fmt(v) for v in
                           (pt.alpha, pt.poa_bound, pt.pos_bound, pt.poa_emp, pt.pos_emp)))
        return 0

    if args.verb == "probe":
        mech = MechanismId.parse(args.mech)
        rule = rule_for(mech, args.n)
        reach = mech.reserve  # None: sp has no finite reach
        cap = args.cap if args.cap is not None else 2 * (reach or 1.0) + 1
        steps = cap / args.eps if args.eps > 0 else math.nan
        grid_cap = max(2, round(steps)) * args.eps if math.isfinite(steps) else math.inf
        if not math.isfinite(grid_cap):
            raise ValueError(f"need --eps > 0 and a finite --cap/--eps, got {args.eps}, {cap}")
        if not cap > 0:
            raise ValueError(f"need --cap > 0, got {_fmt(cap)}")
        grid = equilibria.default_grid((1.0,), mech, args.eps, grid_cap)
        matrix = analysis.probe_matrix(rule, grid)
        print(_dump({"mech": str(mech), "eps": grid.step, "a": [list(r) for r in matrix]}))
        top = grid.points[-1]
        if reach is not None and top < reach:
            built = "" if _fmt(top) == _fmt(cap) else f" builds a grid whose top {_fmt(top)}"
            print(f"note: --cap {_fmt(cap)}{built} is below {mech}'s reach {_fmt(reach)}; "
                  f"an entry at the grid top means the reach lies above it", file=sys.stderr)
        elif args.cap is not None and top > cap and _fmt(top) != _fmt(cap):
            print(f"note: --cap {_fmt(cap)} builds a grid whose top is {_fmt(top)}",
                  file=sys.stderr)
        return 0

    if args.verb == "verify":
        if args.seed is not None and args.seed < 0:  # before any suite prints a line
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if args.seed is not None and args.suite in analysis.SEEDLESS_SUITES:
            raise ValueError(f"suite {args.suite!r} has fixed fixtures and takes no --seed")
        names = sorted(analysis.VERIFY_SUITES) if args.suite == "all" else [args.suite]
        failed = False
        for name in names:
            report = analysis.VERIFY_SUITES[name](args.seed or 0)
            status = "pass" if report.passed else "FAIL"
            print(f"{name}: {status}")
            for line in report.lines:
                print(line)
            failed = failed or not report.passed
        return 1 if failed else 0

    if args.verb == "gen":
        spec_text = args.name
        if args.params:
            spec_text += ":" + ",".join(args.params)
        spec = instances.GeneratorSpec.parse(spec_text)
        instances.save_instance(spec.build(), args.out)
        print(f"wrote {spec.label()} to {args.out}")
        return 0

    raise ValueError(f"unhandled verb {args.verb!r}")


def main() -> None:
    code = run(sys.argv[1:])
    if code == 141:  # what is left in stdout's buffer would fail the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
