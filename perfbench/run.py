"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload char_flat_g512 --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  A record with the
provenance, every figure and the sample counts is written to
``.perfbench/`` under the repository root, next to the span dump of a
traced run.  See ``perfbench/METRICS.md``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import spec

#: One process generates the load on one thread; BLAS is pinned to match.
#: Set before numpy is first imported (by ``workloads``, inside main).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Set-ups and process starts per run; setup_s adds their medians.
SETUP_REPEATS = 5
STARTUP_REPEATS = 5


def startup_seconds() -> list[tuple[float, float]]:
    """``(wall seconds, factor to the reference speed)`` of each fresh
    interpreter that imports the benchmarked code.  The started process
    probes the host's speed itself, since it may run on another core."""
    from hostspeed import REFERENCE_S

    code = (
        "import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
        "from hostspeed import HostSpeed; s = HostSpeed(); "
        "print((s.probe() + s.probe()) / 2)"
        .format(str(ROOT / "src"), str(ROOT / "perfbench"))
    )
    starts = []
    for _ in range(STARTUP_REPEATS):
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # and those sleeps, not the import, would set the time measured.
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True)
        wall_s = perf_counter() - t0
        starts.append((wall_s, REFERENCE_S / float(done.stdout)))
    return starts


def setup_seconds(starts, setups, scaled: bool) -> float:
    """Median process start plus median set-up, scaled or on the wall."""
    def med(pairs):
        return median(s * f if scaled else s for s, f in pairs)
    return med(starts) + med(setups)


def parse_args(argv):
    names = [w["name"] for w in spec.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        p.error("--workload is required")
    return args


def provenance(args) -> dict:
    """Where and on what code a result was measured."""
    import numpy

    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=60,
        )
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import HostSpeed
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    speed = HostSpeed()
    starts = startup_seconds()

    setups, warms, state = [], [], None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, wall_s, factor = speed.timed(lambda: workload.setup(args.seed))
        setups.append((wall_s, factor))
        warms.append(state.warm)

    recorder = SpanRecorder() if args.trace else None
    window = workload.measure(state, args.seconds, recorder)
    workload.check(state, window, warms)

    e2e, figures = workload.end_to_end(state, window)
    e2e["setup_s"] = setup_seconds(starts, setups, scaled=True)
    figures["wall_setup_s"] = setup_seconds(starts, setups, scaled=False)
    e2e["peak_rss_mb"] = window.rss_mb
    figures["error_rate"] = window.failed / window.attempted
    units = dict((n, u) for n, u, _ in spec.END_TO_END)
    units.update(spec.WORKLOAD_FIGURES)
    units.update(spec.PER_LAYER)
    if args.trace:
        reported = workload.per_layer(state, window, recorder)
    else:
        reported = {name: e2e[name] for name, _, _ in spec.END_TO_END}

    plain_units = window.traced.count(False)
    samples = len(window.samples) or plain_units
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(window.host_s)} {workload.unit} units timed "
          f"({plain_units} untraced), step percentiles over {samples} "
          f"{workload.sample_unit} samples")
    print("setup wall s (x factor to the reference speed): process starts "
          + ", ".join(f"{s:.4f} (x{f:.3f})" for s, f in starts)
          + "; set-ups "
          + ", ".join(f"{s:.4f} (x{f:.3f})" for s, f in setups))
    for name, value in {**e2e, **figures, **(reported if args.trace else {})}.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"checks: attempted {window.attempted}, failed {window.failed}")

    record = {
        "provenance": provenance(args),
        "attempted": window.attempted,
        "failed": window.failed,
        "timed_units": len(window.host_s),
        "untraced_units": plain_units,
        "step_samples": samples,
        "startup_s_and_scale": starts,
        "setup_s_and_scale": setups,
        "unit_host_s": window.host_s,
        "unit_scale": window.scale,
        "unit_traced": window.traced,
        "step_host_s": window.samples,
        "step_scale": window.sample_scale,
        "speed_probes_s": speed.probes + window.speed.probes,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in {**e2e, **figures, **reported}.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if recorder is not None:
        recorder.write_chrome(OUT_DIR / f"{stem}-spans.json", record["provenance"])

    bad = [k for k, v in reported.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics {bad}: no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
