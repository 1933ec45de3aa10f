"""One cold pass of one workload in this fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED [--traced]

Run from the repository root with ``src`` on PYTHONPATH (``run.py`` does
both).  Prints one JSON line: the pass's timings, peak memory, gate counts
and a digest of its outputs, plus the per-layer counters when traced.
"""

from __future__ import annotations

import time

import reference

reference.warm_up()  # before set-up starts: it is not the kernel's cost
STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import partial  # noqa: E402


def one_pass(name: str, seed: int, traced: bool) -> dict:
    import workloads  # imports cmtensor: part of set-up, like any user's start

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    mark = tracer.mark if tracer else (lambda group: None)
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    setup_s = time.perf_counter() - STARTED

    failures = workloads.Failures()
    probes = []
    started = time.perf_counter()
    items, certify_items, outputs = workload.run(
        inputs, seed, mark, failures, partial(reference.probe, probes)
    )
    wall_s = time.perf_counter() - started - sum(certify_items) - sum(probes)
    mark("gate")
    workload.gate(inputs, outputs, seed, failures)

    payload = json.dumps(workload.payload(inputs, outputs), sort_keys=True)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_s": items,
        "certify_items_s": certify_items,
        "probes_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": failures.attempted,
        "failures": failures.messages,
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write_spans(workloads.OUT / f"spans-{name}.jsonl")
    if name == "session":
        inputs[0].unlink()
    return result


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    try:
        result = one_pass(name, seed, "--traced" in argv[2:])
    except Exception:  # report any crash as a failed pass, never a hang
        print(json.dumps({"crash": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
