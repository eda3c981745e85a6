import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vizsample import cli, interchange
from vizsample.cli import main
from vizsample.dataio import read_points_csv, read_sample_csv, write_points_csv
from vizsample.geometry import make_params
from vizsample.quality import surrogate_objective

from test_geometry import package_calls


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["gen", "--n", "60", "--blobs", "2", "--seed", "1", "--output", str(path)]) == 0
    return path


def test_gen_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gen", "--n", "40", "--seed", "9", "--output", str(a)])
    main(["gen", "--n", "40", "--seed", "9", "--output", str(b)])
    assert a.read_text() == b.read_text()
    assert read_points_csv(a).shape == (40, 2)


def test_sample_vas_roundtrip(dataset, tmp_path):
    out = tmp_path / "s.csv"
    rc = main(
        ["sample", "--input", str(dataset), "--output", str(out),
         "--k", "8", "--epsilon", "0.5", "--seed", "3"]
    )
    assert rc == 0
    sample = read_sample_csv(out)
    assert len(sample) == 8
    data = read_points_csv(dataset)
    # every sample row is an actual dataset row
    for p in sample.points:
        assert np.any(np.all(data == p, axis=1))


def test_sample_uniform_and_stratified(dataset, tmp_path):
    for method, extra in (("uniform", []), ("stratified", ["--grid", "3"])):
        out = tmp_path / f"{method}.csv"
        rc = main(
            ["sample", "--input", str(dataset), "--output", str(out),
             "--method", method, "--k", "10", *extra]
        )
        assert rc == 0
        assert len(read_sample_csv(out)) == 10


def test_sample_with_density_counts_sum_to_n(dataset, tmp_path):
    out = tmp_path / "d.csv"
    rc = main(
        ["sample", "--input", str(dataset), "--output", str(out),
         "--k", "6", "--epsilon", "0.5", "--density"]
    )
    assert rc == 0
    sample = read_sample_csv(out)
    assert sample.counts is not None
    assert sample.counts.sum() == 60


def test_exact_subcommand_agrees_with_converged_vas(tmp_path, capsys):
    data_path = tmp_path / "tiny.csv"
    main(["gen", "--n", "9", "--seed", "4", "--output", str(data_path)])
    rc = main(["exact", "--input", str(data_path), "--k", "3", "--epsilon", "1.0"])
    assert rc == 0
    exact = json.loads(capsys.readouterr().out)
    assert len(exact["indices"]) == 3

    out = tmp_path / "vas.csv"
    main(
        ["sample", "--input", str(data_path), "--output", str(out), "--k", "3",
         "--epsilon", "1.0", "--mode", "noes", "--until-converged"]
    )
    data = read_points_csv(data_path)
    sample = read_sample_csv(out)
    from vizsample.geometry import make_params
    from vizsample.quality import bound_check, surrogate_objective

    got = surrogate_objective(sample.points, make_params(1.0))
    # the optimum is a floor for any subset, and the converged search
    # must stay inside the normalized additive guarantee
    assert got >= exact["objective"] - 1e-9
    _, _, holds = bound_check(got, exact["objective"], 3)
    assert holds


def test_evaluate_json_output(dataset, tmp_path, capsys):
    out = tmp_path / "s.csv"
    main(["sample", "--input", str(dataset), "--output", str(out), "--k", "12",
          "--epsilon", "0.5"])
    rc = main(
        ["evaluate", "--data", str(dataset), "--sample", str(out),
         "--points", "100", "--epsilon", "0.5", "--seed", "2"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_mc_points"] == 100
    assert report["seed"] == 2
    assert report["surrogate_objective"] > 0


def test_evaluate_text_output(dataset, tmp_path, capsys):
    out = tmp_path / "s.csv"
    main(["sample", "--input", str(dataset), "--output", str(out), "--k", "5",
          "--epsilon", "0.5"])
    rc = main(
        ["evaluate", "--data", str(dataset), "--sample", str(out),
         "--points", "50", "--epsilon", "0.5", "--format", "text"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "mc_loss_median=" in text


def test_export_mip_writes_model(tmp_path):
    data_path = tmp_path / "tiny.csv"
    main(["gen", "--n", "4", "--seed", "2", "--output", str(data_path)])
    out = tmp_path / "model.lp"
    rc = main(["export-mip", "--input", str(data_path), "--k", "2", "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("Minimize")
    assert text.rstrip().endswith("End")


def test_missing_input_exits_1(tmp_path, capsys):
    rc = main(["sample", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "o.csv"), "--k", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,zap\n")
    rc = main(["sample", "--input", str(bad), "--output", str(tmp_path / "o.csv"), "--k", "2"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_count_overflow_exits_1_with_line_number(dataset, tmp_path, capsys):
    sample = tmp_path / "s.csv"
    sample.write_text("x,y,count\n1,2,99999999999999999999\n")
    rc = main(["evaluate", "--data", str(dataset), "--sample", str(sample), "--epsilon", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err
    assert "Traceback" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["sample", "--k", "3"])  # missing required --input/--output
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--k", "0"],
        ["sample", "--k", "-3", "--method", "uniform"],
        ["sample", "--k", "3", "--epsilon", "-1"],
        ["sample", "--k", "3", "--passes", "0"],
        ["sample", "--k", "3", "--method", "stratified", "--grid", "0"],
        ["sample", "--k", "3", "--epsilon", "1", "--cutoff", "0.5"],
        ["sample", "--k", "3", "--cutoff", "1e-9"],  # below the derived epsilon
        ["evaluate", "--points", "0"],
        ["evaluate", "--epsilon", "0"],
        ["evaluate", "--domain-radius", "-1"],
        ["exact", "--k", "-1"],
        ["gen", "--n", "5", "--cov", "-1"],
        ["gen", "--n", "5", "--cov", "nan"],
        ["sample", "--k", "3", "--time-budget-secs", "nan"],
        ["sample", "--k", "3", "--time-budget-secs", "-1"],
        ["sample", "--k", "3", "--epsilon", "1e-160"],  # 1/eps^2 overflows
        ["sample", "--k", "3", "--epsilon", "1e-300"],  # eps^2 underflows to 0
        ["evaluate", "--epsilon", "1e200"],  # eps^2 overflows
        ["sample", "--k", "3", "--seed", "-1"],
        ["sample", "--k", "3", "--method", "uniform", "--seed", "-1"],
        ["sample", "--k", "3", "--method", "stratified", "--seed", "-7"],
        ["sample", "--k", "3", "--method", "stratified", "--grid", str(2**1000 + 1)],  # past float64
        ["evaluate", "--seed", "-2"],
        ["gen", "--n", "5", "--seed", "-1"],
    ],
)
def test_out_of_range_flag_exits_2_without_traceback(argv, dataset, tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    files = {
        "sample": ["--input", str(dataset), "--output", out],
        "evaluate": ["--data", str(dataset), "--sample", str(dataset)],
        "exact": ["--input", str(dataset)],
        "gen": ["--output", out],
    }[argv[0]]
    with pytest.raises(SystemExit) as ei:
        main([*argv, *files])
    assert ei.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", [
    ["exact"],
    ["export-mip", "--output", "model.lp"],
    *(["sample", "--output", "o.csv", "--method", method] for method in ("vas", "uniform", "stratified")),
])
def test_k_above_row_count_exits_1(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "5", "--seed", "3", "--output", "tiny.csv"]) == 0
    assert main([*command, "--input", "tiny.csv", "--k", "9"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: k=9 exceeds dataset size 5"]
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.csv"]


def test_until_converged_runs_up_to_the_pass_cap(dataset, tmp_path, monkeypatch):
    seen = []
    real = cli.run_interchange

    def spy(data, cfg, params):
        seen.append(cfg)
        return real(data, cfg, params)

    monkeypatch.setattr(cli, "run_interchange", spy)
    out = str(tmp_path / "s.csv")
    assert main(["sample", "--input", str(dataset), "--output", out, "--k", "5", "--passes", "2", "--until-converged"]) == 0
    assert [cfg.passes for cfg in seen] == [interchange.PASS_CAP]


@pytest.mark.parametrize("command", [["exact"], ["export-mip", "--output", "model.lp"]])
def test_one_row_input_exits_1(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "1", "--seed", "3", "--output", "one.csv"]) == 0
    assert main([*command, "--input", "one.csv", "--k", "1", "--epsilon", "1"]) == 1
    err = capsys.readouterr().err
    assert "error: need at least 2 points, got 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "model.lp").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["exact", "export-mip"])
def test_huge_coordinates_weigh_zero_with_nothing_on_stderr(command, tmp_path, capsys):
    # squared distances overflow to inf, whose kernel weight is 0
    data = tmp_path / "huge.csv"
    data.write_text("x,y\n1e300,0\n-1e300,0\n0,1\n")
    model = tmp_path / "model.lp"
    argv = [command, "--input", str(data), "--k", "2", "--epsilon", "1"]
    assert main(argv + (["--output", str(model)] if command == "export-mip" else [])) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "exact":
        assert json.loads(out) == {"indices": [0, 1], "objective": 0.0}
    else:
        assert " obj: + 0 b1_2 + 0 b1_3 + 0 b2_3\n" in model.read_text()


@pytest.mark.parametrize("method", ["vas", "uniform", "stratified"])
def test_overflowing_bounding_box_exits_1(method, tmp_path, capsys):
    data = tmp_path / "wide.csv"
    data.write_text("x,y\n1.7e308,0\n-1.7e308,0\n")
    out = tmp_path / "o.csv"
    rc = main(["sample", "--input", str(data), "--output", str(out), "--k", "1", "--method", method])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: no bandwidth from a bounding-box diagonal of inf" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["vas", "uniform", "stratified"])
def test_overflowing_bounding_box_with_epsilon(method, tmp_path, capsys):
    # with --epsilon no bandwidth comes from the box; the density pass still
    # sizes its cells from it, and the stratified grid divides it
    data = tmp_path / "wide.csv"
    data.write_text("x,y\n1.7e308,0\n-1.7e308,0\n")
    out = tmp_path / "o.csv"
    argv = ["sample", "--input", str(data), "--output", str(out), "--k", "1", "--epsilon", "1", "--density"]
    rc = main([*argv, "--method", method])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if method == "stratified":
        assert rc == 1
        assert "error: no stratified grid over a bounding box wider than float64 can span" in err
    else:
        assert rc == 0
        # one member: the scan charges both rows to it
        assert read_sample_csv(out).counts.tolist() == [2]


def test_evaluate_on_an_overflowing_bounding_box_exits_1(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    data.write_text("x,y\n1.7e308,0\n-1.7e308,0\n")
    rc = main(["evaluate", "--data", str(data), "--sample", str(data), "--epsilon", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: no uniform draws in a bounding box wider than float64 can span" in err
    assert "Traceback" not in err


def test_tiny_domain_radius_exits_1(tmp_path, capsys):
    # cells of 1e-300 would put 1e9 at cell 1e309
    data = tmp_path / "far.csv"
    data.write_text("x,y\n1e9,0\n0,1e9\n")
    rc = main(["evaluate", "--data", str(data), "--sample", str(data), "--domain-radius", "1e-300"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: acceptance rate 0/1000000 below" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["noes", "es", "esloc"])
@pytest.mark.parametrize("flags", [["--epsilon", "1", "--cutoff", "1e200"], ["--epsilon", "1.2e154"]])
def test_huge_cutoff_samples(flags, mode, tmp_path, capsys, monkeypatch):
    # the squared cutoff overflows to inf (every pair in reach); at
    # eps = 1.2e154, 2 eps^2 overflows too and every kappa_tilde is 1
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "200", "--seed", "4", "--output", "d.csv"]) == 0
    rc = main(["sample", "--input", "d.csv", "--output", "s.csv", "--k", "20", "--mode", mode, *flags])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(read_sample_csv("s.csv").points) == 20


@pytest.mark.filterwarnings("error")
def test_evaluate_with_huge_epsilon(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "200", "--seed", "4", "--output", "d.csv"]) == 0
    assert main(["sample", "--input", "d.csv", "--output", "s.csv", "--k", "20", "--method", "uniform"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data", "d.csv", "--sample", "s.csv", "--epsilon", "1.2e154"]) == 0
    # K = 20 members, all at weight 1 from each other
    assert json.loads(capsys.readouterr().out)["surrogate_objective"] == 190.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["es", "esloc"])
def test_huge_epsilon_on_huge_coordinates(mode, tmp_path, capsys, monkeypatch):
    # squared distances overflow to inf and so does 2 eps^2: each pair
    # weighs 0 (exp(-inf)), not nan (inf * 0)
    monkeypatch.chdir(tmp_path)
    write_points_csv(np.random.default_rng(8).uniform(-1, 1, size=(200, 2)) * 1e200, "d.csv")
    rc = main(["sample", "--input", "d.csv", "--output", "s.csv", "--k", "20", "--mode", mode, "--epsilon", "1.2e154"])
    assert rc == 0
    points = read_sample_csv("s.csv").points
    assert len(np.unique(points, axis=0)) == 20
    assert surrogate_objective(points, make_params(1.2e154)) == 0.0


@pytest.mark.filterwarnings("error")
def test_evaluate_with_an_infinite_dataset_loss_exits_1(tmp_path, capsys, monkeypatch):
    # the plot locations' squared distances to every data point overflow, so
    # both losses are inf and their ratio would print as NaN
    monkeypatch.chdir(tmp_path)
    write_points_csv(np.random.default_rng(8).uniform(-1, 1, size=(200, 2)) * 1e200, "huge.csv")
    rc = main(["evaluate", "--data", "huge.csv", "--sample", "huge.csv", "--epsilon", "1.2e154"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: the dataset's own median loss is infinite at epsilon 1.2e+154"]


def test_evaluate_with_an_infinite_sample_loss_exits_1(tmp_path, capsys, monkeypatch):
    # the one sample point is beyond the e**-700 reach of most plot
    # locations; their inf losses would print as Infinity, which is not JSON
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "500", "--seed", "3", "--output", "d.csv"]) == 0
    assert main(["sample", "--input", "d.csv", "--output", "s.csv", "--k", "1", "--method", "uniform"]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--data", "d.csv", "--sample", "s.csv", "--epsilon", "0.01"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: the sample's mc_loss_mean is infinite at epsilon 0.01"]


@pytest.mark.filterwarnings("error")
def test_evaluate_on_huge_coordinates_exits_1_without_warnings(tmp_path, capsys):
    # squared distances of the domain test overflow to inf: out of reach
    data = tmp_path / "big.csv"
    data.write_text("x,y\n1e200,0\n-1e200,0\n0,1e200\n")
    rc = main(["evaluate", "--data", str(data), "--sample", str(data), "--epsilon", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: acceptance rate 0/1000000 below 1e-06"]


def test_stratified_sample_on_a_huge_grid(dataset, tmp_path):
    # a dense grid of 10**10 cells (or of 2**140) used to be allocated
    out = tmp_path / "s.csv"
    for g in (100_000, 2**70):
        argv = ["sample", "--input", str(dataset), "--output", str(out), "--k", "7", "--method", "stratified"]
        assert main([*argv, "--grid", str(g)]) == 0
        assert len(read_sample_csv(out)) == 7


@pytest.mark.parametrize("k, message", [(2, "C(5000,2) exceeds the budget"), (1, "5000x5000 weight matrix exceeds")])
def test_exact_checks_its_budgets_before_the_weights(k, message, tmp_path, capsys, monkeypatch):
    # the subset count is checked first, then the matrix size, before any O(n^2) work
    monkeypatch.chdir(tmp_path)
    write_points_csv(np.random.default_rng(2).uniform(0, 1, size=(5000, 2)), "big.csv")
    monkeypatch.setattr("vizsample.exact.sq_distances", None)  # any pair arithmetic would raise
    assert main(["exact", "--input", "big.csv", "--k", str(k)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 14.9 GiB for an array"), "error: Unable to allocate 14.9 GiB for an array"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_exits_1(exc, line, dataset, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("vizsample.cli.evaluate", fail)
    assert main(["evaluate", "--data", str(dataset), "--sample", str(dataset)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [line]


def _child(argv, tmp_path, env=os.environ, **kwargs):
    """``python -m vizsample.cli argv`` in ``tmp_path``, with ``tmp_path`` and this package on the path."""
    env = dict(env, PYTHONPATH=os.pathsep.join(map(str, (tmp_path, Path(cli.__file__).parents[1]))))
    return subprocess.run([sys.executable, "-m", "vizsample.cli", *argv], cwd=tmp_path, env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [["exact", "--k", "2", "--epsilon", "1"], ["evaluate", "--sample", "data.csv", "--epsilon", "1"]])
def test_closed_stdout_pipe_exits_1_with_one_error_line(argv, tmp_path):
    # with a buffered stdout the write fails only at a flush; the reader's
    # end is closed before the child starts, so that flush always fails
    write_points_csv(np.random.default_rng(3).uniform(0, 4, size=(9, 2)), tmp_path / "data.csv")
    argv = [*argv, "--input" if argv[0] == "exact" else "--data", "data.csv"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _child(argv, tmp_path, env, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]


def test_main_leaves_the_freeze_count_unchanged(dataset, tmp_path, capsys):
    # tests and harnesses call main many times in one process; a freeze
    # there would keep each call's garbage for the life of the process
    before = gc.get_freeze_count()
    assert main(["sample", "--input", str(dataset), "--output", str(tmp_path / "s.csv"), "--k", "5"]) == 0
    assert main(["evaluate", "--data", str(dataset), "--sample", str(tmp_path / "s.csv"), "--epsilon", "1"]) == 0
    assert gc.get_freeze_count() == before


def test_python_m_freezes_the_heap_before_the_command_runs(tmp_path):
    # an audit hook, installed by a sitecustomize in the child's directory,
    # reads the freeze count when the command opens its output file
    (tmp_path / "sitecustomize.py").write_text(
        "import gc, sys\n"
        "def hook(event, args):\n"
        "    if event == 'open' and str(args[0]) == 'out.csv':\n"
        "        print('frozen', gc.get_freeze_count(), file=sys.stderr)\n"
        "sys.addaudithook(hook)\n"
    )
    proc = _child(["gen", "--n", "5", "--output", "out.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("frozen ") and int(line.split()[1]) > 1000


def test_gc_is_frozen_only_in_the_process_entry():
    # everything but the process entry runs inside callers' processes
    assert package_calls("freeze", "disable") in ([], [("cli.py", "entry")])
