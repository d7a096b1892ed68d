"""End-to-end benchmark of the ``uatest`` CLI.

Run from the repository root:

    python3 bench/run.py --workload planted-testing --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

A set-up generates one input from the seed and hands it to a fresh worker
process (worker.py) that imports ``uatest`` from ``./src``, runs one warm-up
invocation and then a closed loop of invocations (one client: each starts
after the previous one returned) at ``--threads 2``, the CLI default on a
2-core machine.

``--trace 0`` sets up ``SETUPS`` times, set-up ``i`` on the input of seed
``seed * SETUPS + i``, each running an equal share of the timed loop, and
reports the end-to-end metrics:
  setup_s      median time from input generation to the end of the warm-up
  run_s        median wall time of one invocation, argv to exit code
  peak_rss_mb  median of the worker processes' peak resident memory
  recall       share of the planted effects the reports recover
``--trace 1`` sets up once and reports the per-layer metrics of a traced pass
at ``--threads 1`` (see tracer.py), the thread ratio and the trace overhead.
``--smoke`` shrinks every input and sets up once.

Every invocation must exit 0 and write the same report as the warm-up, which
must parse through ``report_from_obj`` and carry the expected metric; once per
run the report at ``--threads 1`` must equal the one at ``--threads 2``. The
last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
THREADS = 2
SETUPS = 3
DEADLINE_S = 170.0


def _median_spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.4f} q3={q[2]:.4f} max={max(values):.4f}"


def run_workload(workloads, tracer, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    setups = 1 if trace or smoke else SETUPS
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    results, setup_s, scored = [], [], []
    try:
        for i in range(setups):
            workdir = work / f"setup{i}"
            workdir.mkdir(parents=True)
            start = time.monotonic()
            prepared = wl.prepare(workdir, seed * SETUPS + i, smoke)
            cfg = {"src": str(SRC), "workload": name, "argv": prepared.argv,
                   "fresh": prepared.fresh, "out": str(workdir / "report.json"),
                   "threads": THREADS, "seconds": seconds / setups, "identity": i == 0,
                   "mode": "trace" if trace else "e2e"}
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if Path(res["uatest"]).resolve().parent.parent != SRC.resolve():
                raise RuntimeError(f"worker imported uatest from {res['uatest']}")
            setup_s.append(res["ready"] - start)
            results.append(res)
            report = workdir / "report.json"
            scored.append((report.read_text() if report.exists() else None, prepared.truth))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    identical = all(r["identical"] for r in results)
    run_s = [t for r in results for t in r["times"]["run_s"]]
    rss = [r["maxrss_mb"] for r in results]
    lines = [f"{name} seed={seed} trace={int(trace)}"]
    if not trace:
        # a failed invocation already fails the run; its report may not parse
        recall = 0.0 if failures else statistics.mean(
            wl.recall(workloads.parse_reports(report), truth) for report, truth in scored)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", _median_spread(setup_s)),
            "run_s": (statistics.median(run_s), "s", _median_spread(run_s)),
            "peak_rss_mb": (statistics.median(rss), "MB",
                            "median of the worker processes' peaks "
                            + " ".join(f"{x:.1f}" for x in rss)),
            "recall": (recall, "share", f"planted effects recovered, mean over {len(scored)} inputs"),
        }
        correct = not failures and identical
    else:
        res = results[0]
        spans = [tracer.Span(*s) for s in res["spans"]]
        t1 = statistics.median(res["times"]["threads1_s"])
        layers = tracer.layer_metrics(spans)
        self_share = layers.pop("trace.self_share")
        layers["cli.threads_ratio"] = statistics.median(run_s) / t1
        layers["trace.overhead"] = statistics.median(res["times"]["traced_s"]) / t1
        metrics = {k: (v, tracer.unit_of(k), "") for k, v in layers.items()}
        correct = not failures and identical and abs(self_share - 1.0) < 1e-9
        lines += [f"  self {k:<34} {v:.4f} s" for k, v in tracer.self_time_table(spans).items()]
        lines.append(f"  self times sum to {self_share:.9f} of trace.run_s")
    failed = len(failures)
    lines += [f"  {k:<34} {v:.6g} {unit} {note}".rstrip() for k, (v, unit, note) in metrics.items()]
    lines.append(f"  {'failed_ratio':<34} {failed / attempted:.6g} ratio "
                 f"{failed} of {attempted} invocations")
    lines.append(f"  threads 1 vs {THREADS} reports identical: {identical}")
    lines += [f"  FAILED: {f}" for f in failures[:5]]
    print("\n".join(lines))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "uatest" / "cli.py").is_file():
        print(f"bench: no uatest sources in {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)} or all")
    correct = True
    for name in names:
        result = run_workload(workloads, tracer, name, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
