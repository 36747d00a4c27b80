"""Benchmark of qmultimeter: three checked workloads, end-to-end and per layer.

Run from the repository root, without installing the package::

    python3 bench/run.py --workload search_sweep --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each operation starts when the last
one returned.  BLAS runs on one thread.  Every operation is checked against
the verdict or distance the theory predicts; a raised exception or a wrong
outcome counts as failed and still counts in the latency samples.

``--trace 0`` measures the end-to-end metrics, with times calibrated
against a reference kernel timed between operations (``reference.py``).  ``--trace 1`` runs the
workload untraced for half the time, then the same passes again with every
public function of the package wrapped (see ``tracing.py``), and reports
the per-layer metrics, the tracing overhead and whether both halves gave
the same outcomes.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
for people.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: One BLAS thread: the loop has one caller, and on a shared two-CPU machine
#: a second BLAS thread adds more run-to-run spread than speed.
BLAS_THREADS = "1"

#: At least this many operations per timed phase, so that at least ten
#: latency samples lie above the 90th percentile.
MIN_OPS = 110

#: Seconds of operations between two timings of the reference kernel
#: (about 6.5 ms each, so they add under 3% to a run).
REFERENCE_INTERVAL = 0.25

#: Set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median.
SETUP_REPEATS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and generate inputs, print the elapsed seconds and one timing "
        "of the reference kernel, and exit (repeats the set-up measurement in a "
        "fresh process)",
    )
    return parser.parse_args(argv)


def _import_package():
    """Import numpy and the package from this checkout's ``src``; None on failure."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import qmultimeter
    except ImportError as exc:
        print(f"error: cannot import qmultimeter from {src}: {exc}", file=sys.stderr)
        return None
    found = Path(qmultimeter.__file__).resolve().parent.parent
    if found != src.resolve():
        print(f"error: imported qmultimeter from {found}, not {src}", file=sys.stderr)
        return None
    return qmultimeter


# ---------------------------------------------------------------------------
# the closed loop


class Record:
    """One operation's outcome and wall time; ``ref_index`` counts the
    reference measurements taken before it started."""

    __slots__ = ("kind", "seconds", "ok", "outcome", "samples", "ref_index")

    def __init__(self, kind, seconds, ok, outcome, samples, ref_index=0):
        self.kind, self.seconds, self.ok = kind, seconds, ok
        self.outcome, self.samples, self.ref_index = outcome, samples, ref_index


def run_op(op, op_id: int, tracer=None, ref_index: int = 0) -> Record:
    """Run and check one operation; an exception is a failed outcome."""
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            with tracer.operation(op_id):
                outcome = op.run()
    except Exception as exc:  # the loop must go on; the failure is counted and shown
        outcome = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return Record(op.kind, elapsed, outcome == op.expect, outcome, op.samples, ref_index)


def run_phase(passes, seconds: float, min_ops: int = 0, n_passes=None, tracer=None,
              reference=None):
    """Run whole passes until ``seconds`` and ``min_ops`` are reached (or ``n_passes``).

    With a ``reference``, its kernel is timed before the first operation,
    after any operation that ends ``REFERENCE_INTERVAL`` seconds after the
    last measurement, and after the last operation.  Returns one
    ``(wall seconds, records)`` pair per pass.
    """
    done = []
    n_ops = 0
    start = last_ref = time.perf_counter()
    if reference is not None:
        reference.measure()
    while True:
        began = time.perf_counter()
        records = []
        for op in passes[len(done) % len(passes)]:
            ref_index = len(reference.times) if reference is not None else 0
            records.append(run_op(op, n_ops + len(records), tracer, ref_index))
            if reference is not None and time.perf_counter() - last_ref >= REFERENCE_INTERVAL:
                reference.measure()
                last_ref = time.perf_counter()
        done.append((time.perf_counter() - began, records))
        n_ops += len(records)
        if n_passes is not None:
            if len(done) >= n_passes:
                break
        elif time.perf_counter() - start >= seconds and n_ops >= min_ops:
            break
    if reference is not None:
        reference.measure()
    return done


def flat(done) -> list:
    return [r for _, records in done for r in records]


# ---------------------------------------------------------------------------
# metrics


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _setup_samples(args, own: tuple) -> list:
    """``(set-up seconds, reference seconds)`` of this process and of fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        setup, ref = done.stdout.split()[-2:]
        samples.append((float(setup), float(ref)))
    return samples


def end_to_end(records, setup: list, reference=None) -> dict:
    """End-to-end metrics; with a ``reference``, in the nominal machine's time.

    Each latency is scaled by the reference kernel's nominal time over its
    time measured around the operation, and each set-up by the kernel's
    time measured right after it (see ``reference.py``).
    """
    if reference is None:
        latencies = [r.seconds for r in records]
    else:
        latencies = [r.seconds * reference.scale(r.ref_index) for r in records]
    return {
        "setup_s": (_percentile(setup, 50), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_ms.p50": (1e3 * _percentile(latencies, 50), "ms"),
        "latency_ms.p90": (1e3 * _percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _blas_runtime():
    """OpenBLAS config string and thread count as the loaded library reports them."""
    import numpy as np

    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in sorted(p for d in libdirs if d.is_dir() for p in d.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(args) -> dict:
    import numpy as np

    import qmultimeter

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _blas_runtime()
    status = Path("/proc/self/status")
    process_threads = None
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                process_threads = int(line.split()[1])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime_config": config,
        "blas_threads": threads,
        "process_threads": process_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "qmultimeter": qmultimeter.__version__,
        "git_commit": _git_commit(),
    }


def _print_table(records, title: str) -> None:
    by_kind: dict = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    print(f"# {title}: latency by operation kind")
    for kind, values in by_kind.items():
        print(f"  {kind:40s} n={len(values):6d}  p50={1e3 * _percentile(values, 50):10.3f} ms")


def _print_failures(records) -> None:
    failed = [r for r in records if not r.ok]
    for r in failed[:5]:
        print(f"# FAILED {r.kind}: got {r.outcome!r}")
    if len(failed) > 5:
        print(f"# ... and {len(failed) - 5} more failed operations")


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:16.6f} {unit}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------------------


def _untraced(args, passes, reference, own_setup: tuple) -> int:
    """End-to-end metrics, calibrated against the reference kernel."""
    from reference import NOMINAL_SECONDS

    done = run_phase(passes, args.seconds, MIN_OPS, reference=reference)
    records = flat(done)
    setups = _setup_samples(args, own_setup)
    metrics = end_to_end(records, [s * NOMINAL_SECONDS / r for s, r in setups], reference)
    failed = sum(not r.ok for r in records)
    _print_table(records, f"untraced, {len(done)} passes, {sum(w for w, _ in done):.3f} s")
    _print_failures(records)
    print("# seconds per pass: " + " ".join(f"{w:.3f}" for w, _ in done))
    ref_ms = [1e3 * t for t in reference.times]
    print(f"# reference kernel: {len(ref_ms)} runs, p10/p50/p90 "
          f"{_percentile(ref_ms, 10):.3f}/{_percentile(ref_ms, 50):.3f}/"
          f"{_percentile(ref_ms, 90):.3f} ms (nominal {1e3 * NOMINAL_SECONDS} ms)")
    p90 = metrics["latency_ms.p90"][0]
    above = sum(1e3 * r.seconds * reference.scale(r.ref_index) > p90 for r in records)
    print(f"# end-to-end metrics at nominal machine speed ({len(records)} latency samples, "
          f"{above} above p90)")
    _print_metrics(metrics)
    print("# reported here only: wall-clock values as measured, failures, search rate")
    wall = end_to_end(records, [s for s, _ in setups])
    extra = {f"{name}.wall": value for name, value in wall.items() if name != "peak_rss_mb"}
    extra["failed_ratio"] = (failed / len(records), "ratio")
    searched = [r for r in records if r.samples]
    if searched:
        extra["search_samples_per_s.wall"] = (
            sum(r.samples for r in searched) / sum(r.seconds for r in searched), "1/s")
    _print_metrics(extra)
    print(_result_line(failed == 0, len(records), failed, metrics))
    return 0


def _traced(args, passes) -> int:
    """Untraced half, then the same passes traced: per-layer metrics and overhead."""
    from tracing import Tracer

    plain = run_phase(passes, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(passes, 0, n_passes=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    same = [r.outcome for r in flat(plain)] == [r.outcome for r in flat(traced)]
    # Pass by pass, so that a burst of outside load on one half moves it less.
    overhead = _percentile([t / p for (t, _), (p, _) in zip(traced, plain)], 50) - 1.0
    metrics, missing = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
    records = flat(plain) + flat(traced)
    failed = sum(not r.ok for r in records)
    _print_table(flat(traced), f"traced, {len(traced)} passes, {sum(w for w, _ in traced):.3f} s "
                               f"(untraced {sum(w for w, _ in plain):.3f} s)")
    _print_failures(records)
    print(f"# traced outcomes equal untraced outcomes: {same}")
    for name in missing:
        print(f"# missing: {name} is not defined by the package")
    print("# per-layer metrics (traced half)")
    _print_metrics(metrics)
    print("# every traced function that was called: calls, self seconds")
    for name, (calls, self_s, _, _) in sorted(tracer.per_name().items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:52s} {calls:10d} {self_s:12.6f} s")
    print(_result_line(failed == 0 and same, len(records), failed, metrics))
    return 0


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; ``tiny`` shrinks the inputs for the benchmark's own tests."""
    args = _parse_args(argv)
    if _import_package() is None:
        return 2
    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    try:
        passes = workloads.build(args.workload, args.seed, ROOT / "scenarios", tiny=tiny)
    except OSError as exc:
        print(f"error: cannot generate inputs: {exc}", file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - _T0
    reference = Reference()
    own = (own_setup, reference.measure())
    if args.setup_only:
        print(*own)
        return 0
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    if args.trace:
        return _traced(args, passes)
    return _untraced(args, passes, reference, own)


if __name__ == "__main__":
    sys.exit(main())
