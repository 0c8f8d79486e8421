"""Host-time benchmark of the index-join simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-bulk --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: several
fresh interpreters time set-up alone, then one more sets up and runs
the workload's calls for ``--seconds`` of call time. ``--trace 1`` runs
one pass of the workload twice, each in a fresh interpreter, first
untraced and then with host-time spans around every layer, and reports
the per-layer metrics. Both modes check every output against its
oracle, and at the default seed against ``golden.json``.

Every interpreter runs with one sweep job, no result cache, the
library's default engine, ``PYTHONHASHSEED=0`` and single-threaded
numeric libraries; ``REPRO_*`` variables from the caller's environment
are dropped. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print every metric by name with its unit, and the host facts.
Details and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"

#: Every run must end within this many seconds.
DEADLINE_S = 170.0
#: Set-up-only interpreters per --trace 0 run (the timed one adds one).
SETUP_SAMPLES = 4

WORKLOADS = ("join-bulk", "serve-planet", "serve-chaos-control", "query-in-predicate")
SERVE = ("serve-planet", "serve-chaos-control")

#: Per-layer metric -> the end-to-end metric and workloads it should move.
MOVES = {
    "api.self_s": "throughput_ops_per_s on every workload",
    "interleaving.executor.self_s": "throughput_ops_per_s on join-bulk (dominant), serve-*",
    "interleaving.executor.calls": "throughput_ops_per_s on serve-* (batching)",
    "interleaving.executor.us_per_lookup": "throughput_ops_per_s on join-bulk, serve-*",
    "interleaving.executor.call_ms_p50": "call_ms_p50 on join-bulk",
    "interleaving.executor.call_ms_p90": "call_ms_p90 on join-bulk",
    "interleaving.compiled.replays": "throughput_ops_per_s on join-bulk, serve-* (rises when an engine change lands)",
    "interleaving.compiled.fallbacks": "throughput_ops_per_s on query-in-predicate",
    "interleaving.compiled.replay_share": "throughput_ops_per_s on join-bulk, serve-*",
    "interleaving.compiled.schedule_compile_s": "setup_s on join-bulk, serve-*",
    "sim.cycles": "nothing: simulated, must repeat exactly",
    "sim.loads": "nothing: simulated, must repeat exactly",
    "sim.host_ns_per_load": "throughput_ops_per_s on join-bulk, query-in-predicate",
    "service.server.self_s": "throughput_ops_per_s on serve-*",
    "service.server.self_us_per_request": "throughput_ops_per_s on serve-*",
    "service.admission.self_s": "throughput_ops_per_s on serve-*",
    "service.coalescer.self_s": "throughput_ops_per_s on serve-*",
    "service.arrivals.self_s": "throughput_ops_per_s on serve-*",
    "service.batches": "nothing: simulated, must repeat exactly",
    "service.build_s": "throughput_ops_per_s on serve-*",
    "service.build.self_s": "throughput_ops_per_s on serve-*",
    "service.calibrate_s": "throughput_ops_per_s on serve-*",
    "service.calibrate.self_s": "throughput_ops_per_s on serve-*",
    "cluster.routing.self_s": "throughput_ops_per_s on serve-planet",
    "cluster.routing.calls": "throughput_ops_per_s on serve-planet",
    "cluster.routing.calls_per_batch": "throughput_ops_per_s on serve-planet (wasted re-planning)",
    "faults.injector.self_s": "throughput_ops_per_s on serve-chaos-control (dominant), serve-planet",
    "faults.injector.calls": "throughput_ops_per_s on serve-chaos-control, serve-planet",
    "faults.injector.calls_per_batch": "throughput_ops_per_s on serve-chaos-control, serve-planet",
    "faults.injector.us_per_call": "throughput_ops_per_s on serve-chaos-control (window-scan growth)",
    "control.self_s": "throughput_ops_per_s on serve-chaos-control",
    "control.calls": "throughput_ops_per_s on serve-chaos-control",
    "query.plan.self_s": "throughput_ops_per_s on query-in-predicate",
    "query.plan.calls": "throughput_ops_per_s on query-in-predicate",
    "columnstore.scan.self_s": "throughput_ops_per_s on query-in-predicate",
    "columnstore.build_s": "setup_s on query-in-predicate",
    "columnstore.build.self_s": "setup_s on query-in-predicate",
    "obs.hist.self_s": "throughput_ops_per_s on serve-*",
    "perf.sweep.self_s": "throughput_ops_per_s on serve-*",
    "trace.overhead_ratio": "nothing: traced wall / untraced wall",
    "trace.unattributed_s": "nothing: benchmark time outside every layer span",
    "trace.wall_s": "nothing: traced wall time the self times add up to",
}


class BenchError(Exception):
    """The benchmark cannot run or a process it started failed."""


def percentile_rank(n: int, q: float) -> int:
    """Nearest-rank index (1-based) of the q-th percentile of n samples."""
    return max(1, math.ceil(q / 100.0 * n))


def tail_rank(n: int) -> int:
    """Rank of p90, or of the highest percentile with ten samples beyond it.

    With too few samples for any percentile above the median to have
    ten beyond it, this is the median's rank.
    """
    return min(percentile_rank(n, 90), max(n - 10, percentile_rank(n, 50)))


def tail_ms(samples: list[float]) -> float:
    return sorted(samples)[tail_rank(len(samples)) - 1]


def median_ms(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[percentile_rank(len(ordered), 50) - 1]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measurement")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"worker exited {done.returncode}: {' '.join(args)}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {' '.join(args)}") from exc


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [
        run_child([*base, "--mode", "setup"], deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    timed = run_child([*base, "--mode", "timed", "--seconds", str(seconds)], deadline)
    setups.append(timed["setup_s"])
    calls = timed["call_ms"]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_per_s": timed["ops"] / timed["call_s"],
        "call_ms_p50": median_ms(calls),
        "call_ms_p90": tail_ms(calls),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} interpreters",
        "throughput_ops_per_s": f"{timed['ops']} ops in {timed['call_s']:.2f} s of calls",
        "call_ms_p50": f"n={len(calls)} calls",
        "call_ms_p90": f"n={len(calls)} calls, rank {tail_rank(len(calls))}",
        "peak_rss_mb": "after the first pass",
    }
    error_rate = timed["failed"] / timed["ops"]
    details = {"setups_s": setups, "timed": timed, "error_rate": error_rate}
    return values, notes, timed["ops"], timed["failed"], timed["failed"] == 0, details


def per_layer(workload: str, seed: int, deadline: float, spans_path: Path):
    base = ["--workload", workload, "--seed", str(seed)]
    plain = run_child([*base, "--mode", "plain"], deadline)
    traced = run_child([*base, "--mode", "traced", "--spans", str(spans_path)], deadline)
    ledger = traced["ledger"]
    self_s, calls, inclusive = ledger["self_s"], ledger["calls"], ledger["inclusive_s"]
    executor_calls = calls["interleaving.executor"]
    lookups = traced["spans"]["executor_lookups"]
    batches = traced["batches"]
    requests = traced["ops"] if workload in SERVE else 0
    compiled = traced["compiled"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    values.update({
        "interleaving.executor.calls": executor_calls,
        "interleaving.executor.us_per_lookup": ratio(self_s["interleaving.executor"], lookups, 1e6),
        "interleaving.executor.call_ms_p50": median_ms(traced["spans"]["executor_call_ms"]),
        "interleaving.executor.call_ms_p90": tail_ms(traced["spans"]["executor_call_ms"]),
        "interleaving.compiled.replays": compiled["replays"],
        "interleaving.compiled.fallbacks": compiled["fallbacks"],
        "interleaving.compiled.replay_share": ratio(compiled["replays"], executor_calls),
        "interleaving.compiled.schedule_compile_s": traced["schedule_compile_s"],
        "sim.cycles": traced["sim"]["cycles"],
        "sim.loads": traced["sim"]["loads"],
        "sim.host_ns_per_load": ratio(plain["wall_s"], plain["sim"]["loads"], 1e9),
        "service.server.self_us_per_request": ratio(self_s["service.server"], requests, 1e6),
        "service.batches": batches,
        "service.build_s": inclusive["service.build"],
        "service.calibrate_s": inclusive["service.calibrate"],
        "cluster.routing.calls": calls["cluster.routing"],
        "cluster.routing.calls_per_batch": ratio(calls["cluster.routing"], batches),
        "faults.injector.calls": calls["faults.injector"],
        "faults.injector.calls_per_batch": ratio(calls["faults.injector"], batches),
        "faults.injector.us_per_call": ratio(self_s["faults.injector"], calls["faults.injector"], 1e6),
        "control.calls": calls["control"],
        "query.plan.calls": calls["query.plan"],
        "columnstore.build_s": inclusive["columnstore.build"],
        "trace.overhead_ratio": ratio(traced["wall_s"], plain["wall_s"]),
        "trace.unattributed_s": ledger["unattributed_s"],
        "trace.wall_s": ledger["wall_s"],
    })
    checks = {
        "oracles": plain["failed"] == 0 and traced["failed"] == 0,
        "digests_equal": plain["digests"] == traced["digests"],
        "compiled_counts_equal": plain["compiled"] == traced["compiled"],
        "sim_totals_equal": plain["sim"] == traced["sim"],
        "accounting": ledger["ok"],
    }
    notes = {name: f"moves {moves}" for name, moves in MOVES.items()}
    n_exec = len(traced["spans"]["executor_call_ms"])
    notes["interleaving.executor.call_ms_p90"] += f"; n={n_exec}, rank {tail_rank(n_exec)}"
    attempted = plain["ops"] + traced["ops"]
    failed = plain["failed"] + traced["failed"]
    details = {"checks": checks, "plain": plain, "traced": traced}
    return values, notes, attempted, failed, all(checks.values()), details


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    deadline = monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {ROOT / 'src'}; run from a checkout root")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            result = per_layer(
                args.workload, args.seed, deadline, OUT_DIR / f"{stem}-spans.npz"
            )
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values, notes, attempted, failed, correct, details = result

    missing = [
        m["name"]
        for m in wanted
        if m["name"] not in values or (args.trace and m["name"] not in MOVES)
    ]
    if missing:
        print(f"perfbench: BENCHMARK.json names unknown metrics {missing}", file=sys.stderr)
        return 2
    host = host_facts()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<6} {notes.get(name, '')}")
    if args.trace:
        for check, ok in details["checks"].items():
            print(f"  check {check:<38} {'ok' if ok else 'FAILED'}")
    else:
        print(f"  {'error_rate':<44} {details['error_rate']:>16.6g} ratio  {failed} of {attempted} failed")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"host": host, "metrics": metrics, "correct": correct,
                    "attempted": attempted, "failed": failed, "details": details},
                   indent=1, default=float)
    )
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
