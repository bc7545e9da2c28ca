"""What the benchmark measures: workloads, metrics, units and bounds.

``run.py --write-manifest`` renders this module into ``BENCHMARK.json``
at the repository root, so the manifest and the code that fills it in
cannot drift apart.  ``METRICS.md`` explains every name.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds one run measures (the timed window; set-up is extra).
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "char_flat_g512",
        "why": (
            "Table-V mini char LM at G=512, flat path, delta index codec, "
            "batched executor: rank execution, Adam replication and codec "
            "time dominate; mesh and serving sit idle"
        ),
    },
    {
        "name": "word_mesh_g128",
        "why": (
            "Word LM, sampled softmax, Zipf-freq seeding at G=128 on "
            "pipe=2,tensor=2,data=32: per-rank loop, mesh exchange and 1F1B; "
            "the bypass side of every char_flat_g512 change"
        ),
    },
    {
        "name": "serve_zipf_w4",
        "why": (
            "ServingEngine on 4 ranks over a ladder of Zipfian/bursty "
            "open-loop arrival rates: scheduler, state cache and sharded "
            "lookup; the trainer and sync path sit idle"
        ),
    },
]

#: (name, unit, bound).  Every workload reports every one of these.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("host_tokens_per_s", "1/s", 0.25),
    ("host_step_ms_p50", "ms", 0.25),
    ("host_step_ms_p90", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("sim_step_ms", "sim_ms", 0.15),
    ("wire_bytes_per_rank_step", "B", 0.15),
]

#: Lower is better for every end-to-end metric except these.
HIGHER_IS_BETTER = {"host_tokens_per_s"}

#: (name, unit).  Host and sim times are per unit of work: a train step,
#: or a serving decode step.  Idle layers report 0 (1.0 for a ratio).
PER_LAYER = [
    ("data.batch_ms", "ms/step"),
    ("nn.exec_ms", "ms/step"),
    ("nn.batched_frac", "frac"),
    ("optim.apply_ms", "ms/step"),
    ("optim.replicate_ms", "ms/step"),
    ("optim.replicate_fallbacks", "count/step"),
    ("core.sync_ms", "ms/step"),
    ("core.exchange_ms", "ms/step"),
    ("core.unique_frac", "frac"),
    ("core.wire.encode_ms", "ms/step"),
    ("core.wire.decode_ms", "ms/step"),
    ("core.wire.compression_x", "x"),
    ("cluster.collective_ms", "ms/step"),
    ("cluster.collectives_per_step", "count/step"),
    ("cluster.sim_comm_ms", "sim_ms/step"),
    ("cluster.sim_exposed_comm_ms", "sim_ms/step"),
    ("cluster.mesh.bytes.data", "B/step"),
    ("cluster.mesh.bytes.tensor", "B/step"),
    ("cluster.mesh.bytes.pipe", "B/step"),
    ("cluster.pipe_bubble_frac", "frac"),
    ("serve.decode_ms", "ms/step"),
    ("serve.lookup_ms", "ms/step"),
    ("serve.sched_ms", "ms/step"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.evictions", "count/sweep"),
    ("serve.recomputes", "count/sweep"),
    ("serve.batch_mean", "tokens/step"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
]

#: Per-layer metrics where a larger value is the better one.
HIGHER_LAYER = {
    "nn.batched_frac",
    "core.wire.compression_x",
    "serve.cache_hit_frac",
    "serve.batch_mean",
}

#: Figures every run prints by name but that are not in the manifest.
#: The host metrics of the manifest are at the reference host speed
#: (hostspeed.py); ``wall_*`` are the same figures as the wall clock read
#: them, which drift with the shared host by more than the bounds allow.
#: The rest exist on one kind of workload only, and the manifest wants
#: each end-to-end metric on every workload and never 0 (error_rate is 0
#: on a clean run; the result line carries it as failed / attempted).
WORKLOAD_FIGURES = {
    "wall_setup_s": "s",
    "wall_tokens_per_s": "1/s",
    "wall_step_ms_p50": "ms",
    "wall_step_ms_p90": "ms",
    "final_loss": "nats",
    "error_rate": "frac",
    "sim_ttft_ms_p50": "sim_ms",
    "sim_ttft_ms_p99": "sim_ms",
    "sim_tpot_ms_p50": "sim_ms",
    "sim_rps_at_slo": "1/sim_s",
}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
                "bound": bound,
            }
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_LAYER else "lower",
            }
            for name, unit in PER_LAYER
        ],
    }

