"""The cmtensor benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload corpus|bases|session|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; it imports the kernel from ``src``.  Each
sample is one cold pass in a fresh single-threaded interpreter (see
``worker.py``), as a ``cmtensor corpus`` or ``cmtensor run`` user pays it.
Passes repeat until ``--seconds`` is spent, at least three of them.  Each
pass samples the host's speed between its items (``reference.py``), and
its timings are scaled to the reference speed before they are combined.
Pass totals are medians over passes; latency percentiles and certification
time come from each item's median over the passes, so that a short
slowdown of the host that hits a few items of one pass is dropped.
``NOTES.md`` gives the rationale.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate: untraced, traced under PYTHONHASHSEED=1, traced under
PYTHONHASHSEED=2.  The exact counters must agree between the traced passes,
and every traced pass must produce the untraced outputs byte for byte.

Every output is gated (see ``workloads.py``).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.  The
exit code is 0 only when nothing failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from itertools import repeat
from pathlib import Path

from reference import NOMINAL_PROBE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "bases", "session")
MIN_PASSES = 3
# A run must end within 180 s; a pass still running at this point is killed.
RUN_LIMIT_S = 170
# Counters that must repeat exactly across traced passes.
EXACT_SUFFIXES = (".calls", "_ratio", ".basis_len_max", ".basis_terms_total", ".statements")


def _pass(root: Path, workload: str, seed: int, hash_seed, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if traced:
        cmd.append("--traced")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"pass still running after {timeout:.0f} s", "elapsed": timeout}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"crash": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    result["elapsed"] = time.perf_counter() - started
    return result


def _p(values, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _item_medians(per_pass: list) -> list:
    """Each item's median over the passes (every pass has the same items)."""
    return [statistics.median(times) for times in zip(*per_pass)]


def _speeds(r: dict) -> dict:
    """The host speeds that apply to each timing of a pass.

    A speed is the reference sample time over the measured one.  ``corpus``
    and ``bases`` sample the host before each item, before its certification
    and after the last one, so item i lies between samples 2i and 2i+1 and
    its certification between 2i+1 and 2i+2; each takes the mean of its two.
    ``session`` samples only around its one call, so its items and
    certifications share one speed.  ``wall_s`` takes the items' speeds
    weighted by their times, and ``setup_s`` the first sample, taken as
    set-up ends."""
    probes, items = r["probes_s"], r["items_s"]
    if len(probes) == 2 * len(items) + 1:
        between = [2 * NOMINAL_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]
        local, certify = between[::2], between[1::2]
    else:
        local = [NOMINAL_PROBE_S / statistics.fmean(probes)] * len(items)
        certify = local[:1] * len(r["certify_items_s"])
    return {
        "items_s": local,
        "certify_items_s": certify,
        "wall_s": sum(t * f for t, f in zip(items, local)) / sum(items),
        "setup_s": NOMINAL_PROBE_S / probes[0],
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    schedule = [(0, False), (1, True), (2, True)] if trace else [(0, False)]
    passes = []
    started = time.perf_counter()
    while True:
        hash_seed, traced = schedule[len(passes) % len(schedule)]
        timeout = started + RUN_LIMIT_S - time.perf_counter()
        r = _pass(root, workload, seed, hash_seed, traced, timeout)
        passes.append((traced, hash_seed, r))
        typical = statistics.median(r["elapsed"] for _, _, r in passes)
        finish = time.perf_counter() + typical - started
        if finish > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and finish > seconds):
            break

    problems = []
    attempted = failed = 0
    for traced, hash_seed, r in passes:
        if "crash" in r:
            attempted += 1
            failed += 1
            problems.append(f"pass crashed: {r['crash']}")
            continue
        attempted += r["attempted"]
        failed += len(r["failures"])
        problems += r["failures"][:5]
    ok = [(traced, hs, r) for traced, hs, r in passes if "crash" not in r]
    if len({r["digest"] for _, _, r in ok}) > 1:
        failed += 1
        problems.append("passes disagree on the outputs (traced and untraced included)")

    plain = [r for traced, _, r in ok if not traced]
    if len({(len(r["items_s"]), len(r["certify_items_s"])) for r in plain}) > 1:
        failed += 1
        problems.append("passes disagree on the number of items")
        plain = []
    metrics = {}
    raw = {}
    if not trace and plain:
        speeds = [_speeds(r) for r in plain]

        def timings(speeds):
            def total(key):
                return statistics.median(r[key] * s[key] for s, r in zip(speeds, plain))

            def per_item(key):
                return _item_medians(
                    [[t * f for t, f in zip(r[key], s[key])] for s, r in zip(speeds, plain)]
                )

            items = per_item("items_s")
            return {
                "setup_s": total("setup_s"),
                "wall_s": total("wall_s"),
                "item_p50_ms": 1000 * _p(items, 50),
                "item_p84_ms": 1000 * _p(items, 84),
                "certify_s": sum(per_item("certify_items_s")),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }

        values = timings(speeds)
        ones = repeat(1.0)
        unscaled = {"items_s": ones, "certify_items_s": ones, "wall_s": 1.0, "setup_s": 1.0}
        raw = timings([unscaled] * len(plain))
        raw["host_speed"] = statistics.median(s["wall_s"] for s in speeds)
        for spec in bench["end_to_end"]:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    traced_runs = [(hs, r) for traced, hs, r in ok if traced]
    if trace and traced_runs and plain:
        layers = [r["layers"] for _, r in traced_runs]
        for name in layers[0]:
            if name.endswith(EXACT_SUFFIXES) and len({repr(l[name]) for l in layers}) > 1:
                failed += 1
                seen = {hs: r["layers"][name] for hs, r in traced_runs}
                problems.append(f"{name} differs across PYTHONHASHSEED values: {seen}")
        overhead = statistics.median(r["wall_s"] for _, r in traced_runs) / statistics.median(
            r["wall_s"] for r in plain
        )
        for spec in bench["per_layer"]:
            name = spec["name"]
            if name == "trace.overhead_ratio":
                value = overhead
            else:
                value = statistics.median(l[name] for l in layers)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    if not metrics:
        failed += 1
        problems.append("no pass completed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
        "problems": problems,
        "raw": raw,
    }


def _report(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{workload}] {result['passes']} passes; fail_rate {failed}/{attempted} "
          f"= {failed / attempted:.4f}")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name:<56} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["raw"].items():
        print(f"[{workload}]   unscaled {name:<47} {value:>14.6g}")
    for line in result["problems"][:20]:
        print(f"[{workload}] FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "cmtensor" / "__init__.py").is_file():
        print(f"perfbench: no kernel source at {root / 'src' / 'cmtensor'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    compileall.compile_dir(str(root / "src"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(root, name, args.seed, args.seconds, bool(args.trace), bench)
        _report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
