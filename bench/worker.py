"""The process that runs the CLI invocations of one benchmark set-up.

It receives a JSON config as its only argument, imports ``uatest`` from the
checkout's ``src``, runs the warm-up invocation, then a closed loop of timed
invocations: each starts only after the previous one returned. Every output
is checked; the result is printed as one JSON line on standard output.

Modes:
  e2e    timed invocations at the configured thread count
  trace  rounds of (untraced at that thread count, untraced at --threads 1,
         traced at --threads 1), for the thread ratio and the trace overhead
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    from uatest import cli
    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]]
    out = Path(cfg["out"])
    reference: bytes | None = None
    attempted = 0
    failures: list[str] = []

    def invoke(threads: int, run=cli.main) -> float:
        """One checked invocation; returns its wall time in seconds."""
        nonlocal attempted, reference
        attempted += 1
        for src, dst in cfg["fresh"]:
            shutil.copyfile(src, dst)
        out.unlink(missing_ok=True)
        argv = cfg["argv"] + ["--threads", str(threads), "--out", str(out)]
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        report = out.read_bytes() if out.exists() else b""
        if code != 0:
            failures.append(f"exit code {code} at --threads {threads}")
        elif reference is None:
            reference = report
            problem = workload.verify(report.decode())
            if problem:
                failures.append(problem)
        elif report != reference:
            failures.append(f"report at --threads {threads} differs from the first report")
        return elapsed

    if cfg["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer()

    invoke(cfg["threads"])
    ready = time.monotonic()
    identical = True
    if cfg["identity"]:
        before = len(failures)
        invoke(1)
        identical = len(failures) == before

    times: dict[str, list[float]] = {"run_s": [], "threads1_s": [], "traced_s": []}
    # Stop when one more round, as long as the last one, would end further
    # past the deadline than stopping now falls short of it.
    end = time.perf_counter() + cfg["seconds"]
    last = 0.0
    while last == 0.0 or time.perf_counter() + last / 2 < end:
        started = time.perf_counter()
        times["run_s"].append(invoke(cfg["threads"]))
        if cfg["mode"] == "trace":
            times["threads1_s"].append(invoke(1))
            times["traced_s"].append(invoke(1, run=tracer.run))
        last = time.perf_counter() - started
    spans = ([[s.name, s.start, s.end, s.parent, s.invocation, s.info] for s in tracer.spans]
             if cfg["mode"] == "trace" else [])

    print(json.dumps({
        "uatest": cli.__file__,
        "ready": ready,
        "attempted": attempted,
        "failures": failures,
        "identical": identical,
        "times": times,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
