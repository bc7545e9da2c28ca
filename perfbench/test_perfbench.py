"""Tests of the benchmark itself: manifest, checks, seeds, tracing.

Run from the repository root::

    python3 -m pytest perfbench -q

The end-to-end tests start ``run.py`` as a subprocess, so the whole
file takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.core import Fp16Codec  # noqa: E402
from tracing import Patches, SpanRecorder  # noqa: E402

#: A seed that was not used while the benchmark was tuned.
FRESH_SEED = 7919


def run_bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int, trace: int = 0) -> dict:
    path = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_manifest_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
    names = [w["name"] for w in committed["workloads"]]
    assert names == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "world, codec, clean",
    [
        (512, Fp16Codec(), False),  # fp16 sums of 512 x 512-scaled grads overflow
        (16, Fp16Codec(), True),
        (512, Fp16Codec(scale=1.0), True),
    ],
)
def test_fp16_negative_control(world, codec, clean):
    """The checks count the known fp16 overflow at G=512 as failures."""
    workload = workloads.TrainWorkload(
        lambda seed: workloads.char_trainer(seed, world=world, codec=codec)
    )
    state = workload.setup(seed=3)
    window = workloads.Window()
    workload.check(state, window, [state.warm])
    assert window.attempted == workloads.WARMUP_STEPS + 2
    if clean:
        assert window.failed == 0
    else:
        # Step 2 returns a NaN loss, which the finite-loss check counts.
        # The replica-sync check alone would pass: every replica holds
        # the same NaN parameters, and NaN compares as no divergence.
        assert window.failed >= 1
        assert not math.isfinite(state.warm[1][0])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_fresh_seed_runs_clean(workload):
    result = result_of(run_bench(workload, FRESH_SEED))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {name for name, _, _ in spec.END_TO_END}
    assert set(result["metrics"]) == want
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    provenance = record_of(workload, FRESH_SEED)["provenance"]
    assert provenance["seed"] == FRESH_SEED
    assert provenance["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for key in ("src_sha256", "host", "python", "numpy", "nproc"):
        assert provenance[key]


def test_same_seed_repeats_simulated_figures_exactly():
    figures = []
    for _ in range(2):
        result = result_of(run_bench("word_mesh_g128", 11))
        record = record_of("word_mesh_g128", 11)
        figures.append((
            result["metrics"]["sim_step_ms"]["value"],
            result["metrics"]["wire_bytes_per_rank_step"]["value"],
            record["metrics"]["final_loss"]["value"],
        ))
    assert figures[0] == figures[1]


def test_traced_char_split_follows_the_profile():
    """Rank execution is the largest layer; sync time exceeds replication."""
    result = result_of(run_bench("char_flat_g512", FRESH_SEED, trace=1))
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in spec.PER_LAYER}
    layer_ms = {k: v for k, v in m.items() if k.endswith("_ms") and "sim" not in k}
    assert max(layer_ms, key=layer_ms.get) == "nn.exec_ms"
    # Every collective of a char step runs inside gradient sync.
    sync = sum(m[k] for k in ("core.sync_ms", "core.exchange_ms",
                              "core.wire.encode_ms", "core.wire.decode_ms",
                              "cluster.collective_ms"))
    assert sync > m["optim.replicate_ms"] > m["data.batch_ms"] > 0
    assert m["nn.batched_frac"] == 1.0
    assert m["bench.unattributed_frac"] < 0.1
    assert m["serve.decode_ms"] == 0.0


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench("char_flat_g512", 1, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_and_patch_undo():
    class Layer:
        calls = 0

        @classmethod
        def pooled(cls, n):
            cls.calls += n
            return True

        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    rec, patches = SpanRecorder(), Patches()
    original = vars(Layer)["outer"]
    patches.wrap(rec, Layer, "outer", "outer")
    patches.wrap(rec, Layer, "inner", "inner")
    patches.wrap(rec, Layer, "pooled", "pooled")
    assert Layer().outer() == 2
    assert type(Layer()).pooled(3) is True and Layer.calls == 3
    self_s = rec.self_seconds()
    assert self_s["outer"] == pytest.approx(
        rec.total_seconds("outer") - rec.total_seconds("inner")
    )
    patches.undo()
    assert isinstance(vars(Layer)["pooled"], classmethod)
    assert vars(Layer)["outer"] is original and Layer().outer() == 2
    assert len(rec.spans) == 3


def test_step_clock_scales_between_probes():
    """Each decode step gets the factor of the probes on either side of
    it, and a probe's own time is left out of the steps."""
    clock = workloads.StepClock()
    clock.marks = [1.0, 2.0, 3.0]
    clock.paused = 0.5  # a probe ran after the second step
    clock.probes = [(2, 2 * hostspeed.REFERENCE_S)]
    seconds, factors = clock.scaled_steps(
        0.0, 4.5, before=hostspeed.REFERENCE_S, after=4 * hostspeed.REFERENCE_S
    )
    assert seconds.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert factors.tolist() == pytest.approx([2 / 3, 2 / 3, 1 / 3, 1 / 3])


def test_host_speed_probes_and_times():
    speed = hostspeed.HostSpeed()
    result, wall_s, factor = speed.timed(lambda: sum(range(1000)))
    assert result == 499500 and wall_s > 0 and factor > 0
    assert len(speed.probes) == 2 and min(speed.probes) > 0


def test_self_seconds_scale_by_root():
    rec = SpanRecorder()
    rec.spans = [
        ["root", 0.0, 4.0, -1], ["layer", 1.0, 2.0, 0],
        ["root", 4.0, 6.0, -1], ["layer", 4.0, 5.0, 2],
    ]
    assert rec.self_seconds() == {"root": 4.0, "layer": 2.0}
    assert rec.self_seconds([1.0, 0.5]) == {"root": 3.5, "layer": 1.5}
