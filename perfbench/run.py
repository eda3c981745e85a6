#!/usr/bin/env python3
"""vizsample benchmark: the CLI chain a user runs, timed out of process.

    python3 perfbench/run.py --workload stream-12k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one table

One harness process runs the chain's commands one after another, each as its
own ``python -m vizsample.cli ...`` process: a closed loop with one client and
no concurrency.  Set-up runs ``gen`` several times and reports the median as
``setup_s``.  The chain (every ``sample``, then every ``evaluate``) then
repeats on the same inputs for ``--seconds``; each process's wall time is
its median over those repetitions.  The first repetition's outputs go
through the checks in ``checks.py``; every later one must write the same
bytes.  The SHA-256 of every sample CSV is recorded.

With ``--trace 1`` the chain runs in this process through
``vizsample.cli.main(argv)``, alternately plain and with the layer wrappers of
``spans.py`` installed; the per-layer figures are medians over the traced
repetitions and ``trace.overhead_ratio`` is traced over plain wall time.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Workload rationale and the layer-to-metric map are in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

DEFAULT_SEED = 1
# Claims made against this benchmark must also hold on this seed, which is
# not to be used while a change is being written.
HELD_OUT_SEED = 1013

# The dataset is part of the workload definition: blob placement alone moves
# timings and the objective by 20-30% between gen seeds, more than any bound
# can hold.  The benchmark seed drives the stream order instead.
DATA_SEED = 1510

# A workload that has not finished by then is stopped and reported as failed,
# so that a hang in the program still ends the run inside its time limit.
RUN_DEADLINE_S = 160
SETUP_REPS = 7
MIN_REPS = 3
MIN_TRACE_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    density: bool = False
    epsilon: float | None = None
    passes: int = 1
    baselines: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # ES+Loc at default epsilon for one pass, then the density pass:
        # neighbour lookups and nearest-member search carry it.
        Workload("stream-12k", n=12_000, k=2_000, density=True),
        # K/N = 2/3 without density: the dense O(K^2) layers carry it.
        Workload("largek-7.5k", n=7_500, k=5_000),
        # The paper's quality experiment: VAS against both baselines at
        # K=200, epsilon 0.3; per-step Python glue carries it.  A fixed pass
        # count, not --until-converged: convergence takes 5 to 10 passes
        # depending on the stream order, which would make the seed, not the
        # code, set the sample time.
        Workload(
            "quality-10k", n=10_000, k=200, density=True,
            epsilon=0.3, passes=4, baselines=True,
        ),
    )
}


# -- the command chain -------------------------------------------------------

def sample_argvs(w: Workload, data: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each ``sample`` command; VAS first."""
    common = ["--input", str(data), "--k", str(w.k), "--seed", str(seed)]
    vas = ["sample", *common, "--output", str(out / "vas.csv")]
    if w.epsilon is not None:
        vas += ["--epsilon", repr(w.epsilon)]
    if w.passes != 1:
        vas += ["--passes", str(w.passes)]
    if w.density:
        vas.append("--density")
    cmds = [("vas", vas)]
    if w.baselines:
        cmds.append(("uniform", ["sample", *common, "--output", str(out / "uniform.csv"), "--method", "uniform"]))
        cmds.append(("stratified", ["sample", *common, "--output", str(out / "stratified.csv"),
                                    "--method", "stratified", "--grid", "10"]))
    return cmds


def evaluate_argv(w: Workload, data: Path, sample: Path) -> list[str]:
    """``evaluate`` keeps its default Monte-Carlo seed: with the points fixed,
    ``mc_loss_median`` moves only with the sample.  Drawing them from the
    benchmark seed moved it by +-18% on stream-12k."""
    argv = ["evaluate", "--data", str(data), "--sample", str(sample)]
    if w.epsilon is not None:
        argv += ["--epsilon", repr(w.epsilon)]
    return argv


def gen_argv(w: Workload, data: Path) -> list[str]:
    return ["gen", "--n", str(w.n), "--blobs", "3", "--seed", str(DATA_SEED), "--output", str(data)]


# -- bookkeeping -------------------------------------------------------------

class Tally:
    """Operations attempted and failed; each process and each check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, error: str | None, what: str) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", flush=True)
        return error is None


@dataclass
class Rep:
    """One repetition of the chain."""

    walls: dict = field(default_factory=dict)  # "sample-vas" -> wall s
    peak_rss_mb: float = 0.0
    ok: bool = True
    reports: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def total(self, command: str) -> float:
        return sum(v for k, v in self.walls.items() if k.startswith(command + "-"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], log: Path) -> tuple[float, float, int, str]:
    """Run one CLI process; (wall s, peak RSS MiB, exit code, stdout)."""
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-m", "vizsample.cli", *argv],
                             stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if p.returncode != 0:
            sys.stderr.write(err.read()[-2000:])
        return wall, usage.ru_maxrss / 1024.0, p.returncode, out.read()


def verify(w: Workload, data_path: Path, out: Path, rep: Rep, tally: Tally) -> None:
    """The output checks on one repetition's files; each check is one operation."""
    data = checks.read_csv(data_path)
    eps = w.epsilon if w.epsilon is not None else checks.default_epsilon(data)
    for label in rep.reports:
        sample = checks.read_csv(out / f"{label}.csv")
        tally.op(checks.check_sample_rows(sample, data, w.k), f"{label} sample rows")
        if label == "vas" and w.density:
            tally.op(checks.check_density(sample, data), "vas density counts")
        tally.op(checks.check_objective(rep.reports[label]["surrogate_objective"], sample, eps),
                 f"{label} surrogate_objective")
    if w.baselines:
        vas = rep.reports["vas"]["mc_loss_median"]
        worse = {b: rep.reports[b]["mc_loss_median"] for b in ("uniform", "stratified")}
        beaten = [b for b, v in worse.items() if not vas < v]
        tally.op(f"VAS mc_loss_median {vas!r} not below {beaten}: {worse}" if beaten else None,
                 "VAS beats both baselines")


def run_rep(w: Workload, data: Path, out: Path, seed: int, tally: Tally) -> Rep:
    """One chain as separate processes: every sample, then every evaluate."""
    rep = Rep()
    samples = sample_argvs(w, data, out, seed)
    for label, argv in samples:
        wall, rss, rc, _ = run_cli(argv, out / f"sample-{label}")
        rep.walls[f"sample-{label}"] = wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        rep.ok &= tally.op(None if rc == 0 else f"exit code {rc}", f"sample {label}")
    if not rep.ok:
        return rep
    for label, _ in samples:
        wall, rss, rc, stdout = run_cli(evaluate_argv(w, data, out / f"{label}.csv"), out / f"evaluate-{label}")
        rep.walls[f"evaluate-{label}"] = wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        rep.ok &= tally.op(None if rc == 0 else f"exit code {rc}", f"evaluate {label}")
        if rc == 0:
            rep.reports[label] = json.loads(stdout)
        rep.digests[label] = checks.sha256(out / f"{label}.csv")
    return rep


def check_repeat(first: Rep, rep: Rep, tally: Tally) -> None:
    """Later repetitions read the same inputs, so every output must match the first."""
    for label, digest in rep.digests.items():
        tally.op(None if digest == first.digests.get(label) else "digest differs from the first repetition",
                 f"{label} sample digest")
    tally.op(None if rep.reports == first.reports else "evaluate report differs from the first repetition",
             "evaluate reports")


# -- run metadata --------------------------------------------------------------

def src_files() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in src_files())


def src_hash() -> str:
    h = hashlib.sha256()
    for p in src_files():
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_digest_history(w: Workload, seed: int, digests: dict, tally: Tally) -> None:
    """Runs of the same source and workload on the same seed must write
    identical samples.  The first such run records its digests."""
    store = WORK / "digests.json"
    history = json.loads(store.read_text()) if store.exists() else {}
    key = f"{w.name}:{seed}:{src_hash()}:{hashlib.sha256(repr(w).encode()).hexdigest()[:8]}"
    if key in history:
        tally.op(None if history[key] == digests else f"{digests} != recorded {history[key]}",
                 "digests match earlier runs of the same source")
    else:
        history[key] = digests
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
        tmp.replace(store)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- untraced run: end-to-end metrics ------------------------------------------

def run_untraced(w: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    out = fresh_dir(WORK / f"{w.name}-{seed}")
    data = out / "data.csv"

    setup, data_digests = [], set()
    for i in range(SETUP_REPS):
        wall, _, rc, _ = run_cli(gen_argv(w, data), out / f"gen-{i}")
        if not tally.op(None if rc == 0 else f"exit code {rc}", "gen"):
            return {}
        setup.append(wall)
        data_digests.add(checks.sha256(data))
    tally.op(None if len(data_digests) == 1 else "gen wrote different files", "gen is deterministic")

    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rep = run_rep(w, data, out, seed, tally)
        if rep.ok:
            if reps:
                check_repeat(reps[0], rep, tally)
            else:
                verify(w, data, out, rep, tally)
        reps.append(rep)
        print(f"{w.name} rep {len(reps)}: sample {rep.total('sample'):.3f}s evaluate {rep.total('evaluate'):.3f}s "
              f"rss {rep.peak_rss_mb:.1f}MiB ({time.perf_counter() - r0:.1f}s)", flush=True)
        if not rep.ok:
            break
        took = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and took + took / len(reps) > seconds:
            break

    good = [r for r in reps if r.ok]
    if not good:
        return {"setup_s": statistics.median(setup)}
    check_digest_history(w, seed, good[0].digests, tally)
    vas = good[0].reports["vas"]
    print(f"digests {json.dumps(good[0].digests)}")
    for label, rpt in good[0].reports.items():
        print(f"report {label}: {json.dumps(rpt)}")
    # Each process's median over repetitions, summed: a burst of load on the
    # host then costs one process one repetition, not the whole chain.
    per_command = {c: statistics.median([r.walls[c] for r in good]) for c in good[0].walls}
    return {
        "sample_s": sum(v for c, v in per_command.items() if c.startswith("sample-")),
        "evaluate_s": sum(v for c, v in per_command.items() if c.startswith("evaluate-")),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([r.peak_rss_mb for r in good]),
        "objective": vas["surrogate_objective"],
        "mc_loss_median": vas["mc_loss_median"],
        # not gated: see README.md
        "mc_loss_mean": vas["mc_loss_mean"],
        "log_loss_ratio": vas["log_loss_ratio"],
        "repetitions": len(good),
    }


# -- traced run: per-layer metrics ---------------------------------------------

def run_in_process(argvs: list[list[str]], rec=None) -> tuple[float, list[int], list[str]]:
    """Run CLI commands through ``vizsample.cli.main``; (wall s, exit codes, stdouts)."""
    import vizsample.cli

    codes, outs = [], []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        span = rec.open(f"cli.{argv[0]}") if rec is not None else None
        try:
            with contextlib.redirect_stdout(buf):
                codes.append(vizsample.cli.main(argv))
        finally:
            if span is not None:
                rec.close(span)
        outs.append(buf.getvalue())
    return time.perf_counter() - t0, codes, outs


def run_traced(w: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    import spans

    sys.path.insert(0, str(SRC))
    out = fresh_dir(WORK / f"{w.name}-{seed}-trace")
    data = out / "data.csv"
    samples = sample_argvs(w, data, out, seed)
    argvs = [gen_argv(w, data)] + [a for _, a in samples]
    argvs += [evaluate_argv(w, data, out / f"{label}.csv") for label, _ in samples]
    labels = [label for label, _ in samples]

    plain, traced_walls, layer_runs = [], [], []
    first: Rep | None = None
    rec = None
    t0 = time.perf_counter()
    while True:
        for traced_rep in (False, True):
            rec = spans.SpanRecorder() if traced_rep else None
            with spans.traced(rec) if traced_rep else contextlib.nullcontext():
                wall, codes, outs = run_in_process(argvs, rec)
            (traced_walls if traced_rep else plain).append(wall)
            ok = all(tally.op(None if c == 0 else f"exit code {c}", f"{a[0]} in process")
                     for c, a in zip(codes, argvs))
            if not ok:
                return {}
            rep = Rep(reports={l: json.loads(o) for l, o in zip(labels, outs[-len(labels):])},
                      digests={l: checks.sha256(out / f"{l}.csv") for l in labels})
            if first is None:
                first = rep
                verify(w, data, out, rep, tally)
            else:
                check_repeat(first, rep, tally)
            if traced_rep:
                layer_runs.append(spans.layer_metrics(rec))
            print(f"{w.name} {'traced' if traced_rep else 'plain'} chain {wall:.3f}s", flush=True)
        took = time.perf_counter() - t0
        if len(layer_runs) >= MIN_TRACE_REPS and took + took / len(layer_runs) > seconds:
            break

    check_digest_history(w, seed, first.digests, tally)
    metrics = {name: statistics.median([m[name] for m in layer_runs]) for name in layer_runs[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain)
    rec.save(out / "spans.npz")
    (out / "layers.json").write_text(json.dumps(metrics, indent=1))
    split = spans.predicted_split(metrics, w.name)
    if split is not None:
        print(f"predicted split {'CONFIRMED' if split[1] else 'NOT CONFIRMED'}: {split[0]}")
    print(f"tracing overhead {metrics['trace.overhead_ratio'] - 1:+.1%} "
          f"({metrics['trace.spans']:.0f} spans per traced chain)")
    return metrics


# -- entry point ----------------------------------------------------------------

def result_line(metrics: dict, declared: list[dict], tally: Tally, prefix: str = "") -> dict:
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None:
            tally.op("not measured", m["name"])
        out[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return out


class RunTimeout(Exception):
    """Raised by the deadline alarm.  Not an OSError, which the CLI catches."""


def _deadline(signum, frame):
    raise RunTimeout()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "vizsample" / "cli.py").is_file():
        print(f"error: no vizsample source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK.mkdir(parents=True, exist_ok=True)

    print(f"src lines {src_lines()}, src hash {src_hash()}, seed {args.seed} "
          f"(default {DEFAULT_SEED}, held out {HELD_OUT_SEED})", flush=True)
    tally = Tally()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    signal.signal(signal.SIGALRM, _deadline)
    for name in names:
        run = run_traced if args.trace else run_untraced
        signal.alarm(RUN_DEADLINE_S)
        try:
            measured = run(WORKLOADS[name], args.seed, args.seconds, tally)
        except RunTimeout:
            tally.op(f"not finished within {RUN_DEADLINE_S} s", name)
            measured = {}
        finally:
            signal.alarm(0)
        print(f"== {name}")
        for m in declared:
            value = measured.get(m["name"])
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {m['name']:40s} {shown:>14s} {m['unit']}")
        declared_names = {m["name"] for m in declared}
        for key, value in measured.items():
            if key not in declared_names:
                print(f"  {key:40s} {value:>14.6g} (not declared)")
        metrics.update(result_line(measured, declared, tally, prefix=f"{name}/" if len(names) > 1 else ""))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
