"""Command-line entry point.

Runs verification suites, dumps the system catalogue, and integrates the
base system from exact oracle initial data, emitting machine-readable
reports.  Exit code 0 on overall PASS, 1 on any FAIL or on an integration
that stops early, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .integrate import SINGULAR_GUARD, UNDERFLOW, Trajectory, integrate_planar, trajectory_csv
from .oracle import OracleError, WeightParams, oracle_xy
from .reports import SUITES, RunConfig, UsageError, check_window, emit_report, run_suite
from .systems import CatalogueError, get_system, system_ids

SEED_ENV_VAR = "KRAWPV_SEED"
# argparse reads a token that starts with '-' as an option unless it is a plain
# integer or decimal, so "--alpha -1/3" or "--from-t -1e-3" would lose its value
NEGATIVE_NUMBER = re.compile(r"-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """``--opt -1/3`` as ``--opt=-1/3``: a negative number after a long option is its value."""
    out: List[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and NEGATIVE_NUMBER.fullmatch(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="krawpv",
        description="verification suites for the Krawtchouk-type system lab",
    )
    p.add_argument("--suite", choices=(*SUITES, "all"),
                   help="verification suite to run")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (overrides ${SEED_ENV_VAR}; default {RunConfig.seed})")
    p.add_argument("--samples", type=int,
                   help=f"random points per identity check (default {RunConfig.samples})")
    p.add_argument("--N", type=int, action="append", dest="Ns", metavar="N",
                   help="restrict the parameter sweep to this N (repeatable)")
    p.add_argument("--n", type=int, action="append", dest="ns", metavar="n",
                   help="restrict the sweep to this degree index (repeatable)")
    p.add_argument("--alpha", type=_fraction, action="append", dest="alphas",
                   help="restrict the sweep to this rational alpha (repeatable)")
    p.add_argument("--t", type=_fraction, action="append", dest="ts",
                   help="restrict the sweep to this rational t (repeatable)")
    p.add_argument("--from-t", type=float,
                   help="integration window start (default 1)")
    p.add_argument("--to-t", type=float,
                   help="integration window end (default 2)")
    p.add_argument("--tol", type=float,
                   help="tolerance of the pv and backlund trajectory cases (default 1e-6)")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   help="report format (default json)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--dump-catalogue", action="store_true",
                   help="emit the system registry as JSON and exit")
    p.add_argument("--integrate", metavar="SYSTEM_ID",
                   help="integrate a catalogued system from oracle initial "
                        "data and emit a trajectory CSV")
    return p


# the options only a suite run reads, and the sweep and window options, which
# --integrate reads too; the defaults fill in whatever was not given
_SUITE_OPTIONS = (("--suite", "suite"), ("--seed", "seed"), ("--samples", "samples"),
                  ("--tol", "tol"), ("--format", "format"))
_SWEEP_OPTIONS = (("--N", "Ns"), ("--n", "ns"), ("--alpha", "alphas"), ("--t", "ts"),
                  ("--from-t", "from_t"), ("--to-t", "to_t"))
_DEFAULTS = {"samples": RunConfig.samples, "tol": RunConfig.tol, "format": "json",
             "from_t": RunConfig.from_t, "to_t": RunConfig.to_t}


def _check_mode(args) -> None:
    """Usage errors: both modes together, or an option the chosen mode would ignore."""
    if args.dump_catalogue and args.integrate:
        raise UsageError("--dump-catalogue and --integrate are separate runs; give one")
    if args.dump_catalogue:
        mode, ignored = "--dump-catalogue", _SUITE_OPTIONS + _SWEEP_OPTIONS
    elif args.integrate:
        mode, ignored = "--integrate", _SUITE_OPTIONS
    else:
        return
    for option, dest in ignored:
        if getattr(args, dest) is not None:
            raise UsageError(f"{mode} takes no {option}")


def _resolve_seed(arg_seed: Optional[int]) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"${SEED_ENV_VAR} is not an integer: {env!r}") from exc
    return RunConfig.seed


def _dump_catalogue() -> str:
    out = []
    for sid in system_ids():
        s = get_system(sid)
        out.append({
            "id": s.id,
            "chart": list(s.chart),
            "rhs1_num": s.rhs1_num.to_prefix(),
            "rhs1_den": s.rhs1_den.to_prefix(),
            "rhs2_num": s.rhs2_num.to_prefix(),
            "rhs2_den": s.rhs2_den.to_prefix(),
            "has_divisor": s.has_divisor,
            "alpha_fixed": None if s.alpha_fixed is None
            else f"{s.alpha_fixed.numerator}/{s.alpha_fixed.denominator}",
        })
    return json.dumps(out, indent=2) + "\n"


def _integration(system_id: str, args) -> Callable[[], Trajectory]:
    """Check the ``--integrate`` arguments; return the run that integrates the trajectory."""
    for option, given in (("--N", args.Ns), ("--n", args.ns), ("--alpha", args.alphas)):
        if given and len(given) > 1:
            raise UsageError(f"--integrate takes one {option}, got {len(given)}")
    if args.ts:
        raise UsageError("--integrate takes no --t; --from-t sets the start")
    N = args.Ns[0] if args.Ns else 2
    n = args.ns[0] if args.ns else min(1, N - 1)
    alpha = args.alphas[0] if args.alphas else Fraction(0)
    system = get_system(system_id)
    if system_id != "original":
        raise UsageError(
            "only the base (q, p) system has oracle initial data; "
            "use the library API for other charts"
        )
    check_window(args.from_t, args.to_t)
    t0 = Fraction(args.from_t).limit_denominator(10**6)
    rounded = (f"--from-t {args.from_t} rounds to t = {t0} as a rational with "
               f"denominator at most 10**6")
    if t0 == 0:
        raise UsageError(f"{rounded}; the weight requires t > 0")
    if float(t0) == args.to_t:
        raise UsageError(f"{rounded}, which is --to-t: the integration window has zero length")
    weight = WeightParams(N, alpha, t0)  # rejects a bad N with its own message first
    if not 0 <= n < N:
        raise UsageError(f"--n must satisfy 0 <= n < N, got n={n}, N={N}")
    xy = oracle_xy(weight, n)
    ic = (float(xy.x[n]), float(xy.y[n]))
    params = {"n": n, "N": N, "alpha": alpha}
    return lambda: integrate_planar(system, ic, float(t0), args.to_t, params)


def _check_out(out: Optional[str]) -> None:
    """Fail on a bad ``--out`` before the work: open it for appending and close it.

    Nothing is truncated, and a file the check created is removed again, so a
    run that writes nothing (an ``--integrate`` that stops early) leaves an
    existing file as it was and no new one.
    """
    if not out:
        return
    existed = os.path.lexists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(out)


def _write(out: Optional[str], text: str) -> None:
    """Write the run's output once, to the ``--out`` file or to stdout.

    A failed write, or the close or flush after it (a full disk), is a usage
    error.  On stdout, fd 1 then points at ``os.devnull``, so that the
    interpreter's own flush at exit does not report the error again.
    """
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_mode(args)
        seed = _resolve_seed(args.seed)  # a malformed $KRAWPV_SEED is an error in every mode
        vars(args).update({k: v for k, v in _DEFAULTS.items() if getattr(args, k) is None})
        if args.dump_catalogue:
            _write(args.out, _dump_catalogue())
            return 0
        if args.integrate:
            run = _integration(args.integrate, args)
            _check_out(args.out)
            try:
                traj = run()
            except ArithmeticError as exc:  # a start or a step float arithmetic cannot evaluate
                print(f"krawpv: error: the integration raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return 1
            if traj.status != 0:  # a planar run's only guards are its denominators
                stop = (f"denominator within {SINGULAR_GUARD} of zero near t = {traj.t1}"
                        if traj.status == 1 else UNDERFLOW)
                print(f"krawpv: error: {stop}", file=sys.stderr)
                return 1
            _write(args.out, trajectory_csv(traj))
            return 0
        if not args.suite:
            parser.print_usage(sys.stderr)
            print("krawpv: error: --suite is required", file=sys.stderr)
            return 2
        # a value given twice runs once: the sweep's cases are one per distinct point
        sweep = {dest: tuple(dict.fromkeys(getattr(args, dest)))
                 for dest in ("Ns", "ns", "alphas", "ts") if getattr(args, dest)}
        cfg = RunConfig(seed=seed, samples=args.samples, tol=args.tol,
                        from_t=args.from_t, to_t=args.to_t, **sweep)
        _check_out(args.out)
        report = run_suite(args.suite, cfg)
        _write(args.out, emit_report(report, args.format))
        return 0 if report.overall == "PASS" else 1
    except (UsageError, CatalogueError, OracleError) as exc:
        # args[0], not str(exc): CatalogueError is a KeyError, whose str() adds quotes
        print(f"krawpv: error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
