"""One benchmark process: set up a workload, then run it one way.

Started by ``run.py`` in a fresh interpreter for every measurement, so
peak RSS and in-process memos belong to one run. Prints one JSON object
as its last stdout line.

Modes:

* ``setup``  — time set-up only (imports, inputs, one warm call).
* ``timed``  — set up, then repeat whole passes of the workload's call
  cycle until ``--seconds`` of call time have run; tracing off.
* ``plain``  — set up and run one pass, untraced, counting simulated
  totals over every engine built.
* ``traced`` — the same pass with host-time spans around each layer.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

#: Set-up time starts here, before repro and the workload are imported.
STARTED = perf_counter()

HERE = Path(__file__).resolve().parent


def load_golden(workload: str, seed: int) -> list | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "golden.json").read_text())[workload]


def run_calls(workload, indices, golden, seconds=None):
    """Run calls; return per-call ms, ops, failures and digests.

    With ``seconds`` the pass over ``indices`` repeats, one whole pass
    at a time, until that much call time has accumulated. Peak RSS is
    read after the first pass: a fixed amount of work, so garbage
    collection runs at the same points in every run.
    """
    call_ms, digests = [], {}
    peak_rss_mb = None
    ops = failed = 0
    spent = 0.0
    while True:
        for i in indices:
            started = perf_counter()
            result = workload.call(i)
            elapsed = perf_counter() - started
            spent += elapsed
            call_ms.append(1e3 * elapsed)
            bad, digest = workload.check(i, result)
            ops += workload.ops(i)
            if golden is not None and digest != golden[i]:
                bad = workload.ops(i)
            failed += bad
            digests.setdefault(i, digest)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if seconds is None or spent >= seconds:
            return {
                "peak_rss_mb": peak_rss_mb,
                "call_ms": call_ms,
                "ops": ops,
                "failed": failed,
                "call_s": spent,
                "digests": [digests[i] for i in sorted(digests)],
            }
        indices = [
            (i + len(indices)) % workload.n_calls for i in indices
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "plain", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None, help="where to write the spans (traced)")
    args = parser.parse_args(argv)

    from repro import perf
    from repro.interleaving.compiled import compiled_stats, compiled_timings
    from workloads import WORKLOADS

    perf.configure(jobs=1, cache=None)
    cls = WORKLOADS[args.workload]
    out: dict = {"mode": args.mode}

    if args.mode in ("setup", "timed"):
        workload = cls(args.seed)
        out["setup_s"] = perf_counter() - STARTED
        if args.mode == "timed":
            golden = load_golden(args.workload, args.seed)
            first = list(range(cls.pass_calls))
            out.update(run_calls(workload, first, golden, args.seconds))
    else:
        from spans import SpanLog, ledger

        log = SpanLog()
        if args.mode == "traced":
            log.install()
        else:
            from repro.sim.engine import ExecutionEngine

            log.track_engines(ExecutionEngine)
        stats_before = compiled_stats()
        compile_before = compiled_timings()["schedule_compile_s"]
        t0 = perf_counter()
        workload = cls(args.seed)
        golden = load_golden(args.workload, args.seed)
        t_pass = perf_counter()
        out.update(run_calls(workload, list(range(cls.pass_calls)), golden))
        t1 = perf_counter()
        log.uninstall()
        stats_after = compiled_stats()
        out["wall_s"] = t1 - t0
        out["batches"] = getattr(workload, "batches", 0)
        out["sim"] = log.sim_totals()
        # compiled_stats() counts work, except the *_s wall times.
        out["compiled"] = {
            key: _delta(value, stats_before[key])
            for key, value in stats_after.items()
            if not key.endswith("_s")
        }
        out["schedule_compile_s"] = (
            compiled_timings()["schedule_compile_s"] - compile_before
        )
        if args.mode == "traced":
            spans = log.arrays()
            out["ledger"] = ledger(spans, log.names, t0, t1)
            out["spans"] = _span_summary(spans, log.names, t_pass)
            if args.spans:
                run_id = f"{args.workload}-seed{args.seed}-{int(t0 * 1e6)}"
                log.save(args.spans, run_id)
    print(json.dumps(out))
    return 0


def _delta(after, before):
    if isinstance(after, dict):
        keys = set(after) | set(before)
        return {k: after.get(k, 0) - before.get(k, 0) for k in sorted(keys)}
    return after - before


def _span_summary(spans, names, t_pass) -> dict:
    """Executor calls made by the pass (not set-up): sizes and times."""
    from spans import outer_mask

    executor = spans["name"] == names.index("interleaving.executor")
    pick = outer_mask(spans) & executor & (spans["start"] >= t_pass)
    return {
        "executor_call_ms": list(1e3 * (spans["end"][pick] - spans["start"][pick])),
        "executor_lookups": int(spans["size"][pick].sum()),
        "n_spans": int(len(spans["name"])),
    }


if __name__ == "__main__":
    sys.exit(main())
