"""Command-line interface.

Subcommands: ``sample``, ``evaluate``, ``exact``, ``export-mip``, ``gen``.
Exit codes: 0 success, 1 data errors (a closed output pipe among them), 2
usage errors.

Entry contract: ``main(argv)`` parses, runs one command and returns its exit
code with no process-wide side effect, so tests and in-process harnesses may
call it any number of times.  ``entry`` is the process entry of both
``python -m vizsample.cli`` and the ``vizsample`` script.  It freezes the
import-time heap (``gc.freeze``) before the command runs, so the collections
at interpreter exit skip those objects, and it keeps a closed stdout pipe
at exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import StratifiedConfig, reservoir_sample, stratified_sample
from .dataio import gen_blobs, read_points_csv, read_sample_csv, write_points_csv, write_sample_csv
from .density import attach_counts
from .errors import VizSampleError
from .exact import brute_force_vas, check_budget, export_mip_lp, weights_from_points
from .geometry import DEFAULT_CUTOFF_FACTOR, default_epsilon, make_params
from .interchange import PASS_CAP, InterchangeConfig, run_interchange
from .quality import evaluate


class _UsageError(Exception):
    """A flag value that conflicts with another flag or the input; exit code 2."""


def _params_for(data, epsilon, cutoff):
    if epsilon is None:
        epsilon = default_epsilon(data).epsilon
    if cutoff is not None and cutoff < epsilon:
        raise _UsageError(f"--cutoff {cutoff:g} is below epsilon {epsilon:g}")
    try:
        return make_params(epsilon, cutoff)
    except ValueError as exc:  # an --epsilon whose 1/eps^2 overflows
        raise _UsageError(str(exc)) from None


def _checked(kind, ok, what: str):
    """argparse ``type=`` that parses with ``kind`` and rejects values failing ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NATURAL = _checked(int, lambda v: v >= 0, "an integer >= 0")
_GRID = _checked(int, lambda v: 1 <= v <= 2**1000, "an integer in [1, 2**1000]")  # float64 holds g
_LENGTH = _checked(float, lambda v: 0 < v < float("inf"), "a finite real > 0")


def _cmd_sample(args) -> int:
    data = read_points_csv(args.input)
    params = _params_for(data, args.epsilon, args.cutoff)
    if args.method == "vas":
        cfg = InterchangeConfig(
            k=args.k,
            passes=PASS_CAP if args.converge else args.passes,
            seed=args.seed,
            shuffle=args.shuffle == "on",
            mode=args.mode,
            time_budget_secs=args.time_budget_secs,
        )
        sample, _ = run_interchange(data, cfg, params)
    elif args.method == "uniform":
        sample = reservoir_sample(data, args.k, seed=args.seed)
    else:
        sample = stratified_sample(
            data, StratifiedConfig(grid_cells_per_axis=args.grid, k=args.k, seed=args.seed)
        )
    if args.density:
        sample.counts = attach_counts(sample.points, data)
    write_sample_csv(sample, args.output)
    return 0


def _cmd_evaluate(args) -> int:
    data = read_points_csv(args.data)
    sample = read_sample_csv(args.sample)
    params = _params_for(data, args.epsilon, None)
    report = evaluate(
        sample.points,
        data,
        params,
        n_points=args.points,
        seed=args.seed,
        domain_radius=args.domain_radius,
        stat=args.stat,
    )
    print(report.to_text() if args.format == "text" else report.to_json())
    return 0


def _cmd_exact(args) -> int:
    data = read_points_csv(args.input)
    params = _params_for(data, args.epsilon, None)
    check_budget(len(data), args.k)  # before the O(n^2) weights
    subset, objective = brute_force_vas(weights_from_points(data, params), args.k)
    print(json.dumps({"indices": list(subset), "objective": objective}))
    return 0


def _cmd_export_mip(args) -> int:
    data = read_points_csv(args.input)
    params = _params_for(data, args.epsilon, None)
    export_mip_lp(weights_from_points(data, params), args.k, args.output)
    return 0


def _cmd_gen(args) -> int:
    pts = gen_blobs(args.n, args.blobs, args.seed, cov=args.cov)
    write_points_csv(pts, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vizsample")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw a K-point sample from a dataset CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--method", choices=["vas", "uniform", "stratified"], default="vas")
    sp.add_argument("--k", type=_COUNT, required=True)
    sp.add_argument("--epsilon", type=_LENGTH, default=None, help="kernel bandwidth (default: bbox diagonal / 100)")
    sp.add_argument("--passes", type=_COUNT, default=1)
    sp.add_argument("--until-converged", dest="converge", action="store_true", help=f"--passes {PASS_CAP}")
    sp.add_argument("--time-budget-secs", type=_LENGTH, default=None)
    sp.add_argument("--mode", choices=["noes", "es", "esloc"], default="esloc")
    sp.add_argument("--cutoff", type=_LENGTH, default=None,
                    help=f"truncation radius (default: {DEFAULT_CUTOFF_FACTOR:g} * epsilon)")
    sp.add_argument("--shuffle", choices=["on", "off"], default="on")
    sp.add_argument("--seed", type=_NATURAL, default=0)
    sp.add_argument("--density", action="store_true", help="attach nearest-neighbor density counts")
    sp.add_argument("--grid", type=_GRID, default=10, help="stratified grid cells per axis")
    sp.set_defaults(func=_cmd_sample)

    ep = sub.add_parser("evaluate", help="quality report of a sample against its dataset")
    ep.add_argument("--data", required=True)
    ep.add_argument("--sample", required=True)
    ep.add_argument("--points", type=_COUNT, default=1000)
    ep.add_argument("--stat", choices=["median", "mean"], default="median")
    ep.add_argument("--domain-radius", type=_LENGTH, default=None, help="default: 10 * epsilon")
    ep.add_argument("--epsilon", type=_LENGTH, default=None)
    ep.add_argument("--seed", type=_NATURAL, default=0)
    ep.add_argument("--format", choices=["json", "text"], default="json")
    ep.set_defaults(func=_cmd_evaluate)

    xp = sub.add_parser("exact", help="exhaustive optimum for tiny datasets")
    xp.add_argument("--input", required=True)
    xp.add_argument("--k", type=_NATURAL, required=True)
    xp.add_argument("--epsilon", type=_LENGTH, default=None)
    xp.set_defaults(func=_cmd_exact)

    mp = sub.add_parser("export-mip", help="write the LP-format exact model")
    mp.add_argument("--input", required=True)
    mp.add_argument("--k", type=_COUNT, required=True)
    mp.add_argument("--output", required=True)
    mp.add_argument("--epsilon", type=_LENGTH, default=None)
    mp.set_defaults(func=_cmd_export_mip)

    gp = sub.add_parser("gen", help="generate a seeded Gaussian-mixture dataset")
    gp.add_argument("--n", type=_COUNT, required=True)
    gp.add_argument("--blobs", type=_COUNT, default=1)
    gp.add_argument("--seed", type=_NATURAL, default=0)
    gp.add_argument("--cov", type=_checked(float, lambda v: 0 <= v < float("inf"), "a finite real >= 0"), default=1.0)
    gp.add_argument("--output", required=True)
    gp.set_defaults(func=_cmd_gen)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except _UsageError as exc:
        parser.error(str(exc))
    except (VizSampleError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> int:
    """Run ``main`` as the whole process; returns its exit code."""
    gc.freeze()
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()  # also after --version and --help
    except BrokenPipeError:
        # the unwritten output stays buffered: point stdout at devnull so
        # the interpreter's last flush succeeds instead of exiting 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(entry())
