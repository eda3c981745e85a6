"""Hypothesis over the CLI's flags and inputs: every run keeps the exit-code
contract (0, 1 or 2), prints no traceback, ``evaluate`` prints strict JSON,
no command succeeds with a ``--k`` above the row count, and a ``sample`` that
succeeds writes exactly ``--k`` rows."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from vizsample.cli import main
from vizsample.dataio import gen_blobs, read_sample_csv, write_points_csv

coord = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308]),
)


def rows(max_size, side):
    """Blobs as ``gen`` writes them, on the typical side at least as many as
    a typical ``--k``; on the odd side also any rows: none, duplicates, huge
    and tiny coordinates."""
    n = st.integers(2 if side else 6, max_size)
    blobs = st.tuples(n, st.integers(1, 3), st.integers(0, 99)).map(lambda a: gen_blobs(*a))
    odd = st.lists(st.tuples(coord, coord), max_size=max_size).map(lambda r: np.array(r, dtype=float).reshape(-1, 2))
    return st.one_of(blobs, odd) if side else blobs


def _values(typical, odd):
    return typical, st.one_of(typical, odd)


# (typical values, any values) per kind of flag; one argv draws all its flags from one side
VALUES = {
    "seed": _values(st.integers(0, 5), st.integers(-(2**64), 2**64)),
    "k": _values(st.integers(1, 6), st.one_of(st.integers(-1, 62), st.integers(0, 10**9))),
    "length": _values(
        st.sampled_from(["0.05", "0.3", "1", "3"]),
        st.sampled_from(["1e-300", "1e-160", "1e-12", "7", "1e150", "1e200", "0", "-1", "nan", "inf"]),
    ),
    "grid": _values(st.integers(1, 40), st.one_of(st.integers(-1, 0), st.integers(1, 2**70))),
    "passes": _values(st.integers(1, 3), st.integers(-1, 0)),
    "budget": _values(st.just("0.5"), st.sampled_from(["1e-9", "-1", "nan"])),
    "points": _values(st.integers(1, 300), st.integers(-1, 2000)),
    "n": _values(st.integers(1, 200), st.integers(-1, 2000)),
    "blobs": _values(st.integers(1, 4), st.integers(0, 8)),
    "cov": _values(st.sampled_from(["0", "1"]), st.sampled_from(["1e300", "-1", "nan", "inf"])),
}


def argv(side, *spec):
    """Flags of ``spec``, each (flag, kind of value or list of choices,
    required?); an optional flag is left out half the time."""
    parts = []
    for flag, kind, required in spec:
        values = st.sampled_from(kind) if isinstance(kind, list) else VALUES[kind][side]
        pair = values.map(lambda v, f=flag: [f, str(v)])
        parts.append(pair if required else st.one_of(st.just([]), pair))
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def bandwidth(side):
    """``--epsilon`` and ``--cutoff``; on the typical side a cutoff comes only
    with an epsilon, at a factor >= 1 of it, so the two never clash."""
    if side:
        return argv(side, ("--epsilon", "length", False), ("--cutoff", "length", False))
    eps = VALUES["length"][0]
    both = st.tuples(eps, st.sampled_from([1, 2, 4, 10])).map(
        lambda t: ["--epsilon", t[0], "--cutoff", repr(float(t[0]) * t[1])]
    )
    return st.one_of(st.just([]), eps.map(lambda e: ["--epsilon", e]), both)


def commands(side):
    sample = st.tuples(
        argv(side, ("--method", ["vas", "uniform", "stratified"], False), ("--k", "k", True), ("--seed", "seed", False)),
        bandwidth(side),
        argv(
            side,
            ("--grid", "grid", False),
            ("--passes", "passes", False),
            ("--mode", ["noes", "es", "esloc"], False),
            ("--shuffle", ["on", "off"], False),
            ("--time-budget-secs", "budget", False),
        ),
    ).map(lambda parts: [tok for p in parts for tok in p])
    switches = st.sampled_from([[], ["--until-converged"], ["--density"], ["--until-converged", "--density"]])
    evaluate = argv(
        side,
        ("--seed", "seed", False),
        ("--points", "points", False),
        ("--epsilon", "length", False),
        ("--domain-radius", "length", False),
        ("--stat", ["median", "mean"], False),
        ("--format", ["json", "text"], False),
    )
    gen = argv(side, ("--n", "n", True), ("--blobs", "blobs", False), ("--seed", "seed", False), ("--cov", "cov", False))
    exact = argv(side, ("--k", "k", True), ("--epsilon", "length", False))
    # exact enumerates C(n, K) subsets in Python, so its inputs stay small
    branches = {
        "sample": (st.tuples(sample, switches).map(lambda t: t[0] + t[1]), rows(60, side)),
        "evaluate": (evaluate, rows(60, side)),
        "gen": (gen, st.just(None)),
        "exact": (exact, rows(10, side)),
        "export-mip": (exact, rows(20, side)),
    }
    # sample, with the most flags and paths, draws as often as the other four together
    names = st.sampled_from(["sample"] * 4 + ["evaluate", "gen", "exact", "export-mip"])
    return names.flatmap(lambda name: st.tuples(st.just(name), *branches[name]))


# each command with a --k, every sample method spelled out
K_COMMANDS = [["sample", "--method", m] for m in ("vas", "uniform", "stratified")] + [["exact"], ["export-mip"]]


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def check_contract(name, flags, data, subset):
    """Run one command on ``data`` (its first ``subset`` rows as the sample) and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"gen": ["--output", str(tmp / "out.csv")]}
        if data is not None:
            write_points_csv(data, tmp / "data.csv")
            write_points_csv(data[:subset], tmp / "sample.csv")
            files = {
                "sample": ["--input", str(tmp / "data.csv"), "--output", str(tmp / "out.csv")],
                "evaluate": ["--data", str(tmp / "data.csv"), "--sample", str(tmp / "sample.csv")],
                "exact": ["--input", str(tmp / "data.csv")],
                "export-mip": ["--input", str(tmp / "data.csv"), "--output", str(tmp / "model.lp")],
            }
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([name, *flags, *files[name]])
            except SystemExit as exc:
                code = exc.code
        if code == 0 and "--k" in flags:
            k = int(flags[flags.index("--k") + 1])
            assert k <= len(data), "a K above the row count is a data error"
            if name == "sample":
                assert len(read_sample_csv(tmp / "out.csv")) == k
    event(f"{name} exit {code}")
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip(), "a failure names its cause"
    if name == "evaluate" and code == 0 and "text" not in flags:
        json.loads(out.getvalue(), parse_constant=_strict)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cmd=st.one_of(commands(0), commands(1)), subset=st.integers(0, 60))
def test_cli_keeps_its_exit_code_contract(cmd, subset):
    check_contract(*cmd, subset)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=rows(20, 1), subset=st.integers(0, 20))
def test_k_next_to_the_row_count_keeps_the_contract(data, subset):
    # every such command at K = N - 1, N and N + 1 on each drawn dataset, so
    # a K > N check that one of them lacks fails on every run; in the test
    # above most of these draws would exit 2 on another flag first
    for name, *flags in K_COMMANDS:
        for k in (len(data) - 1, len(data), len(data) + 1):
            check_contract(name, [*flags, "--k", str(k)], data, subset)
