"""End-to-end benchmark of the F-DETA pipeline.

Run one workload from the repository root::

    python3 perfbench/run.py --workload fleet-ingest --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer ledger instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends a stamped record to ``perfbench/_out/records.jsonl``; traced runs
write their spans to ``perfbench/_out/spans-<workload>-seed<N>.json``.
``--workload all`` runs every workload, each in its own process.

The exit code is 0 only when every output matches its reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: BLAS pools would otherwise spin on both cores
# and make timings depend on whatever else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

#: End-to-end metrics (untraced runs), with units.  ``call_p95_ms`` is
#: printed in the table but is not one of them: fsync tails on a shared
#: disk move it by more than any bound the benchmark may set.
END_TO_END = {
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "verdict_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: A run sets up at least ``SETUPS`` times and until the set-ups add up
#: to ``SETUP_SECONDS``; ``setup_s`` is their median.  A cheap set-up
#: (0.06 s for paper-eval) thus gets enough samples for a steady median.
SETUPS = 3
SETUP_SECONDS = 2.0


def _import_program():
    """Put the checkout's ``src`` first on the path and import it.

    Refuses to run against any other copy of the package, so a checkout
    without its sources fails instead of measuring something else.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}")


def _git_sha() -> str:
    """HEAD's sha, or ``unknown`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_stamp(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "machine": f"{platform.node()} {platform.machine()} "
                   f"{platform.platform()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "unix_time": round(time.time(), 3),
    }


def _median_over(passes, statistic) -> float:
    """Median over passes of one per-pass statistic.

    Each pass is summarised on its own, so a pass that ran while the
    host was slow moves one sample of the median, not the whole pool.
    """
    values = [statistic(r) for r in passes]
    return statistics.median(values) if values else float("nan")


def _percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else float("nan")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, inputs, workdir: Path, ledger):
    """Build a fresh system, run one pass on it and tear it down."""
    from ledger import Instrumentation

    system = workload.build(inputs, str(workdir))
    gc.collect()
    # Flush what earlier passes left behind (dirty pages, the discards
    # of their deleted WALs), so this pass's fsyncs do not pay for them.
    os.sync()
    try:
        if ledger is None:
            return workload.run(inputs, system, None)
        with Instrumentation(ledger):
            return workload.run(inputs, system, ledger)
    finally:
        workload.teardown(system)
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from ledger import COUNT_ROWS, COUNT_UNITS, Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work_root = OUT / f"work-{os.getpid()}"
    setups: list[float] = []
    passes = []  # (traced, PassResult)
    first_outputs = None  # pass 0's, for the reference check
    ledger = None
    mismatches: list[str] = []
    try:
        t0 = time.perf_counter()
        _timed_pass(workload, workload.generate(seed, small=True),
                    work_root / "warmup", None)
        warmup_s = time.perf_counter() - t0
        # Set-up is timed on its own, several times: generate every input
        # and build the system.  The passes reuse the last inputs (every
        # set-up of one seed makes the same ones) on a fresh system each.
        while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
            workdir = work_root / f"setup{len(setups)}"
            t0 = time.perf_counter()
            inputs = workload.generate(seed)
            system = workload.build(inputs, str(workdir))
            setups.append(time.perf_counter() - t0)
            workload.teardown(system)
            shutil.rmtree(workdir, ignore_errors=True)
        # The pre-built inputs stay alive for the whole run; frozen, they
        # are not rescanned by every full collection inside a pass, as a
        # stream of readings arriving from the network would not be.
        gc.collect()
        gc.freeze()
        measured = 0.0
        while measured < seconds or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            ledger_now = Ledger() if traced else None
            result = _timed_pass(workload, inputs,
                                 work_root / f"p{len(passes)}", ledger_now)
            ledger = ledger_now or ledger
            passes.append((traced, result))
            measured += result.wall_s
            if first_outputs is None:
                # Read after one pass, so the figure does not depend on
                # how many passes fit into the run.
                peak_rss = _peak_rss_mb()
                first_outputs = result.outputs
            else:
                mismatches += [f"pass {len(passes) - 1}: {m}" for m in
                               workload.same(first_outputs, result.outputs)]
        mismatches = workload.check(inputs, first_outputs) + mismatches
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    plain = [r for traced, r in passes if not traced]
    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    calls = [s for r in plain for s in r.call_s]
    verdicts = [s for r in plain for s in r.verdict_s]
    stamp = run_stamp(seed)
    print(f"# {name} seed={seed} warmup={warmup_s:.3f}s pass walls="
          + ",".join(f"{r.wall_s:.3f}{'T' if t else ''}" for t, r in passes)
          + f" git={stamp['git_sha'][:12]} "
          f"nproc={stamp['nproc']} python={stamp['python']} "
          f"numpy={stamp['numpy']}")
    if trace:
        # The ledger is the last traced pass's; its rows sum to that
        # pass's wall clock.
        result = next(r for traced, r in reversed(passes) if traced)
        rows = ledger.rows(result.wall_s)
        print(f"# ledger rows sum to {sum(rows.values()):.6f}s of "
              f"{result.wall_s:.6f}s traced wall clock")
        metrics = {key: (value, "s") for key, value in rows.items()}
        metrics.update({key: (ledger.counts[key], COUNT_UNITS.get(key, "count"))
                        for key in COUNT_ROWS})
        metrics["scaleout.shard_skew"] = (
            result.extra.get("scaleout.shard_skew", 0.0), "ratio")
        metrics["eventtime.peak_buffered_readings"] = (
            result.extra.get("eventtime.peak_buffered_readings", 0), "count")
        metrics["traced_wall_s"] = (result.wall_s, "s")
        metrics["tracing_overhead_s"] = (
            statistics.median(r.wall_s for t, r in passes if t)
            - statistics.median(r.wall_s for r in plain), "s")
        ledger.write(str(OUT / f"spans-{name}-seed{seed}.json"),
                     origin=ledger.spans[0][1] if ledger.spans else 0.0)
    else:
        values = {
            "work_per_s": _median_over(plain, lambda r: r.work / r.wall_s),
            "call_p50_ms": 1e3 * _median_over(
                plain, lambda r: _percentile(r.call_s, 50)),
            "verdict_p50_ms": 1e3 * _median_over(
                plain, lambda r: _percentile(r.verdict_s, 50)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    for key, (value, unit) in metrics.items():
        print(f"{name:<16} {key:<36} {value:>16.6f} {unit}")
    if not trace:
        p95 = 1e3 * _median_over(plain, lambda r: _percentile(r.call_s, 95))
        print(f"{name:<16} {'call_p95_ms (unbounded)':<36} {p95:>16.6f} ms")
    print(f"{name:<16} {'untraced passes':<36} {len(plain):>16d}")
    print(f"{name:<16} {'call samples':<36} {len(calls):>16d}")
    print(f"{name:<16} {'verdict samples':<36} {len(verdicts):>16d}")
    print(f"{name:<16} {'failed_op_ratio':<36} "
          f"{failed / max(attempted, 1):>16.6f} ({failed}/{attempted})")
    print(f"{name:<16} {'output_mismatches':<36} {len(mismatches):>16d}")
    for line in mismatches[:20]:
        print(f"# mismatch: {line}")
    correct = not mismatches and failed == 0
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps({
            "stamp": stamp,
            "workload": name,
            "trace": trace,
            "seconds": seconds,
            "warmup_s": warmup_s,
            "pass_walls_s": [r.wall_s for _, r in passes],
            "traced_passes": [t for t, _ in passes],
            "setup_samples_s": setups,
            "call_samples": len(calls),
            "verdict_samples": len(verdicts),
            "attempted": attempted,
            "failed": failed,
            "output_mismatches": len(mismatches),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            ).returncode
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
