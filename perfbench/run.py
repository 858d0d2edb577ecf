"""Benchmark of the mmeskit command line, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 1 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

One process runs one workload with one closed-loop client: it calls
`mmeskit.cli.run(argv)` in-process with stdout captured, so command times
carry no interpreter start-up, and checks every command's output against
an independent reference (workloads.py, reference.py).  The library is
imported from `src/` of the checkout; without it the run exits with 2.

--trace 0 reports the end-to-end metrics.  The shared virtual machines this
benchmark was built on switch between a fast and a 1.5-1.9x slower
state every second or so, on each vCPU independently and for every command
kind alike, and the share of time in the slow state drifts over
minutes; medians of whole runs moved by up to 50% between runs, because
they fall wherever that share puts them.  The latency figures therefore
start from each command kind's loaded latency, the 95th percentile of
its latencies in the run, which lands in the slow state as long as that
state covers a twentieth of the run.  On a 2-vCPU host the 95th
percentile spread less between ten runs than the 90th (evaluate 0.086
against 0.107 of the median for the slowest kind) and far less than the
median (0.28):
  ops_per_s       checked commands per second, for one round of the mix
                  at loaded latencies
  latency_p50_s   median of the loaded latencies of one round's commands
  latency_tail_s  loaded latency of the slowest command kind (printed with
                  that kind's sample count and the samples beyond it)
  peak_rss_mb     peak resident memory of this process
  setup_s         from before `import mmeskit` to the end of a warm-up
                  pass running one command of each kind; the median of
                  SETUPS fresh imports.  Reference values are computed
                  outside it.
The failed ratio (failed / attempted) is printed beside them.

--trace 1 runs the loop untraced for half the time, then traced, and
reports per-module figures from spans recorded around the calls into each
module (tracing.py); `_s`, `_calls` and count figures are per round of the
workload's mix unless their unit says otherwise.  Spans are written to
.perfbench/trace-<workload>-<seed>.jsonl.

Every run appends a record with its metrics, raw latencies and machine
metadata to .perfbench/results.jsonl (or --out); --compare prints each
end-to-end metric per workload for two such files against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import END, ID, N, NAME, START, Profile, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 3
LOADED_PERCENTILE = 95
NAMES = ("evaluate", "sweep", "anneal")


def _config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# --- running commands ------------------------------------------------------


def invoke(run, argv, tracer):
    """Run one CLI command; returns (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.call("cli.run", run, argv) if tracer else run(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Tally:
    """Attempted and failed commands; a failure's details go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def judge(self, cmd, rc, out, err, tracer) -> bool:
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit code {rc}: {err.strip()}"
        else:
            try:
                if tracer:
                    tracer.call("bench.check", cmd.check, out)
                else:
                    cmd.check(out)
            except (workloads.CheckError, ValueError, KeyError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
        return problem is None


def set_up(workload, tally, tracer):
    """Fresh import of mmeskit plus the warm-up pass; returns (cli.run, seconds)."""
    for name in [m for m in sys.modules if m == "mmeskit" or m.startswith("mmeskit.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    run = importlib.import_module("mmeskit.cli").run
    if tracer:
        tracer.install()
    results = [(cmd, invoke(run, cmd.argv, tracer)) for cmd in workload.warmup()]
    elapsed = time.perf_counter() - t0
    for cmd, (rc, out, err, _) in results:
        tally.judge(cmd, rc, out, err, tracer)
    return run, elapsed


def measure(run, workload, seconds, tally, tracer=None):
    """Whole rounds of the mix until `seconds` have passed."""
    latencies, kinds, outputs, round_times = [], [], [], []
    passed = 0
    gc.collect()
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for cmd in workload.round(len(round_times)):
            rc, out, err, dt = invoke(run, cmd.argv, tracer)
            latencies.append(dt)
            kinds.append(cmd.kind)
            if tally.judge(cmd, rc, out, err, tracer):
                passed += 1
                outputs.append((cmd, out))
        round_times.append(time.perf_counter() - start)
        if time.perf_counter() - t0 >= seconds:
            break
    return {"latencies": latencies, "kinds": kinds, "passed": passed, "rounds": len(round_times),
            "elapsed": time.perf_counter() - t0, "outputs": outputs, "round_times": round_times}


def percentile(values, p):
    """p-th percentile with linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[p - 1]


# --- metrics -------------------------------------------------------------


def loaded(loop, workload):
    """Loaded latency per kind, a round's loaded latencies, and ops_per_s."""
    kinds = {}
    for kind, dt in zip(loop["kinds"], loop["latencies"]):
        kinds.setdefault(kind, []).append(dt)
    per_kind = {kind: percentile(v, LOADED_PERCENTILE) for kind, v in kinds.items()}
    mix = [per_kind[cmd.kind] for cmd in workload.round(0)]
    checked = loop["passed"] / len(loop["latencies"])
    return kinds, per_kind, mix, checked * len(mix) / sum(mix)


def end_to_end(loop, setup_times, workload):
    kinds, per_kind, mix, ops = loaded(loop, workload)
    slowest = max(per_kind, key=per_kind.get)
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_s": (statistics.median(mix), "s"),
        "latency_tail_s": (per_kind[slowest], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = {"loaded_latency_s": per_kind, "tail_kind": slowest, "tail_samples": len(kinds[slowest]),
            "beyond_tail": sum(1 for x in kinds[slowest] if x > per_kind[slowest]),
            "samples": len(loop["latencies"]), "rounds": loop["rounds"],
            "round_s": loop["round_times"], "setup_runs": setup_times,
            "latencies": list(zip(loop["kinds"], loop["latencies"]))}
    return metrics, info


def _argv_n(argv) -> int:
    return int(argv[argv.index("--n") + 1])


def per_layer(tracer, loop, untraced, workload, probes):
    """Per-module figures from the traced loop, set-up and probes."""
    import mmeskit

    prof = Profile(tracer.spans, "loop")
    setup = Profile(tracer.spans, "setup")
    r = loop["rounds"]
    d, c = prof.duration, prof.calls

    def entries(n):
        return len(mmeskit.build_coupling_table(n).entries)

    evals = {"potential.pi_me_form2", "potential.pi_me_form4", "potential.pi_me_uniform",
             "potential.energy_uniform_exact"}
    quartic = sum(
        entries(s[N]) << s[N]
        for s in prof.spans
        if s[NAME] in evals and not any(k[NAME] in evals for k in prof.children.get(s[ID], []))
    )
    built = {s[N] for s in setup.named("potential.build_coupling_table")}
    anneal_sizes = {_argv_n(cmd.argv) for pool in workload.pools.values() for cmd in pool
                    if cmd.argv[0] == "anneal"}

    sweep_evals = anneal_evals = covered = 0
    for cmd, out in loop["outputs"]:
        if cmd.argv[0] == "search":
            sweep_evals += json.loads(out)["evaluations"]
            vectors = 1 << (1 << _argv_n(cmd.argv))
            covered += vectors // 2 if "fix_global_sign" in cmd.argv else vectors
        elif cmd.argv[0] == "anneal":
            anneal_evals += json.loads(out)["evaluations"]
    anneal_self = prof.self_time_under("search.anneal", "search")
    verify_best = sum(
        k[END] - k[START]
        for s in prof.named("search.anneal")
        for k in prof.children.get(s[ID], [])
        if k[NAME] in ("potential.energy_uniform_exact", "potential.pi_me_uniform")
    )
    sweep_time = d["search.exhaustive_search"]
    untraced_ops, traced_ops = loaded(untraced, workload)[3], loaded(loop, workload)[3]
    accounted = sum(prof.layer_self.values())
    per_round = {
        "cli.run_s": d["cli.run"], "cli.self_s": prof.layer_self["cli"],
        "states.state_from_json_s": d["states.state_from_json"],
        "states.uniform_from_signs_s": d["states.uniform_from_signs"],
        "states.self_s": prof.layer_self["states"],
        "bipartite.purity_form2_s": d["bipartite.purity_form2"],
        "bipartite.reduced_density_matrix_s": d["bipartite.reduced_density_matrix"],
        "bipartite.purity_form1_s": d["bipartite.purity_form1"],
        "bipartite.self_s": prof.layer_self["bipartite"],
        "potential.pi_me_form2_s": d["potential.pi_me_form2"],
        "potential.pi_me_uniform_s": d["potential.pi_me_uniform"],
        "potential.energy_uniform_exact_s": d["potential.energy_uniform_exact"],
        "potential.self_s": prof.layer_self["potential"],
        "mmes.is_perfect_mmes_s": d["mmes.is_perfect_mmes"],
        "mmes.marginal_uniformity_gap_s": d["mmes.marginal_uniformity_gap"],
        "mmes.phase_equation_residual_s": d["mmes.phase_equation_residual"],
        "mmes.self_s": prof.layer_self["mmes"],
        "search.exhaustive_search_s": sweep_time,
        "search.anneal_s": d["search.anneal"],
        "search.verify_best_s": verify_best,
        "search.self_s": prof.layer_self["search"],
    }
    per_round_counts = {
        "bipartite.purity_form2_calls": c["bipartite.purity_form2"],
        "bipartite.reduced_density_matrix_calls": c["bipartite.reduced_density_matrix"],
        "potential.pi_me_form2_calls": c["potential.pi_me_form2"],
        "potential.energy_uniform_exact_calls": c["potential.energy_uniform_exact"],
        "potential.quartic_terms_computed": quartic,
        "search.sweep_evaluations": sweep_evals,
    }
    metrics = {k: (v / r, "s/round") for k, v in per_round.items()}
    metrics.update({k: (v / r, "count/round") for k, v in per_round_counts.items()})
    metrics.update({
        "potential.build_coupling_table_s": (setup.duration["potential.build_coupling_table"], "s"),
        "potential.table_entries": (sum(entries(n) for n in built), "count"),
        "potential.pi_me_form1_s": (probes["pi_me_form1"], "s"),
        "potential.pi_me_form4_s": (probes["pi_me_form4"], "s"),
        "search.sweep_vectors_per_s": (covered / sweep_time if sweep_time else 0.0, "1/s"),
        "search.anneal_steps_per_s": (anneal_evals / anneal_self if anneal_self else 0.0, "1/s"),
        "search.site_table_bytes_computed": (
            sum(3 * 8 * (1 << n) * entries(n) for n in anneal_sizes), "B"),
        "bench.trace_overhead_pct": (100.0 * (untraced_ops / traced_ops - 1.0), "%"),
        "bench.accounted_pct": (100.0 * accounted / loop["elapsed"], "%"),
    })
    for n in (4, 8, 9):
        metrics[f"search.flip_delta_us.n{n}"] = (probes[f"flip_delta_n{n}"] * 1e6, "us")
    layers = {k: v / r for k, v in sorted(prof.layer_self.items())}
    info = {"rounds": r, "layer_self_s_per_round": layers, "traced_loop_s": loop["elapsed"],
            "untraced_ops_per_s": untraced_ops, "traced_ops_per_s": traced_ops}
    return metrics, info


def run_probes(seed):
    """One-shot timings of the oracle forms at n=8 and of flip_delta."""
    import mmeskit

    rng = np.random.default_rng([seed, 8])
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    state = mmeskit.PureState(8, v / np.linalg.norm(v))
    out = {}
    for form in ("pi_me_form1", "pi_me_form4"):
        fn = getattr(mmeskit.potential, form)
        t0 = time.perf_counter()
        fn(state)
        out[form] = time.perf_counter() - t0
    for n, calls in ((4, 400), (8, 100), (9, 40)):
        sv = mmeskit.SignVector(n, rng.integers(0, 2, 1 << n) * 2 - 1)
        sites = rng.integers(0, 1 << n, calls)
        mmeskit.flip_delta(sv, 0)  # builds any lazily built tables
        times = []
        for j in sites:
            t0 = time.perf_counter()
            mmeskit.flip_delta(sv, int(j))
            times.append(time.perf_counter() - t0)
        out[f"flip_delta_n{n}"] = statistics.median(times)
    return out


# --- metadata --------------------------------------------------------------


def _getconf(name):
    try:
        res = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(res.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata():
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# --- one workload ----------------------------------------------------------


def run_workload(name, seed, seconds, trace, out_path):
    workdir = WORK / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](np.random.default_rng(seed), str(workdir))
    sys.path.insert(0, str(SRC))
    tally = Tally()

    if not trace:
        setup_times = []
        for _ in range(SETUPS):
            run = None  # drop the previous import's tables before the next set-up
            run, elapsed = set_up(workload, tally, None)
            setup_times.append(elapsed)
        loop = measure(run, workload, seconds, tally)
        metrics, info = end_to_end(loop, setup_times, workload)
    else:
        tracer = Tracer()
        run, _ = set_up(workload, tally, tracer)
        tracer.uninstall()
        untraced = measure(run, workload, seconds / 2, tally)
        tracer.install()
        tracer.phase = "loop"
        loop = measure(run, workload, seconds, tally, tracer)
        tracer.phase = "probe"
        probes = run_probes(seed)
        metrics, info = per_layer(tracer, loop, untraced, workload, probes)
        tracer.write(str(WORK / f"trace-{name}-{seed}.jsonl"))
        tracer.uninstall()
    for cmd in workloads.POST_CHECKS.get(name, []):
        rc, out, err, _ = invoke(run, cmd.argv, None)
        tally.judge(cmd, rc, out, err, None)

    failed_ratio = tally.failed / tally.attempted
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": failed_ratio,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info, "metadata": metadata(),
    }
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {name}  seed {seed}  {loop['rounds']} rounds, "
          f"{len(loop['latencies'])} commands, closed loop, 1 client")
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "latency_tail_s":
            extra = (f"  (p{LOADED_PERCENTILE} of {info['tail_kind']}, "
                     f"{info['beyond_tail']} of its {info['tail_samples']} samples beyond)")
        print(f"  {key:40s} {value:.6g} {unit}{extra}")
    print(f"  {'failed_ratio':40s} {failed_ratio:.6g} ({tally.failed} of {tally.attempted})")
    if trace:
        for layer, value in info["layer_self_s_per_round"].items():
            print(f"  self time {layer:30s} {value:.6g} s/round")
    print(json.dumps({
        "correct": record["correct"], "attempted": tally.attempted, "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


# --- all workloads and compare ---------------------------------------------


def run_all(args, out_path):
    """Each workload in its own process, so peak memory is per workload."""
    summary = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_path)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            print(f"workload {name} exited with {res.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary[f"{name}.{key}"] = metric
    print(json.dumps(dict(totals, metrics=summary)))
    return 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(old_path, new_path):
    """Each end-to-end metric per workload, old against new, with a verdict.

    A change is a regression or an improvement when the medians differ by
    more than the metric's bound; it is unresolved when either side's
    quartile spread exceeds the bound, unless every new run is better
    than every old run.
    """
    config = _config()
    old, new = _load(old_path), _load(new_path)
    specs = [(m, True) for m in config["end_to_end"]] + [(m, False) for m in config["per_layer"]]
    print(f"{'workload':10s} {'metric':40s} {'old':>12s} {'new':>12s} {'change':>8s}  verdict")
    for name in NAMES:
        for spec, gated in specs:
            key = spec["name"]
            a = [r["metrics"][key]["value"] for r in old if r["workload"] == name and key in r["metrics"]]
            b = [r["metrics"][key]["value"] for r in new if r["workload"] == name and key in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * change
            verdict = ""
            if gated:
                bound = spec["bound"]
                spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
                all_better = all(sign * (y - x) < 0 for x in a for y in b)
                if spreads and max(spreads) > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                elif worse < -bound:
                    verdict = "improved"
                else:
                    verdict = "within bound"
                verdict += f" (bound {bound:.0%}, runs {len(a)}/{len(b)})"
            print(f"{name:10s} {key:40s} {ma:12.6g} {mb:12.6g} {change:+8.1%}  {verdict}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file to append to (default .perfbench/results.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "mmeskit" / "__init__.py").is_file():
        print(f"error: no mmeskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _config()["run_seconds"]
    WORK.mkdir(exist_ok=True)
    out_path = Path(args.out) if args.out else WORK / "results.jsonl"
    if args.workload == "all":
        return run_all(args, out_path)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_path)


if __name__ == "__main__":
    sys.exit(main())
