"""The benchmark workloads, driven only through the program's public API.

Each workload has four phases:

* ``setup(seed)`` builds the generated inputs (corpus or traffic) and the
  program objects, and warms them up.  ``run.py`` calls it several times
  and times each call; the repeats must reproduce each other exactly.
* ``measure(state, seconds, recorder)`` is the timed window.  With a
  :class:`~tracing.SpanRecorder` it alternates untraced and traced
  blocks, so one run yields the per-layer split and the tracing
  overhead.
* ``check(state, window, warms)`` runs the output checks.
* ``end_to_end`` and ``per_layer`` turn the window into metrics.

Training workloads count one operation per ``train_step`` (warm-up
steps included) plus one per run-level check: replicas bit-synchronised,
and set-ups of one seed repeating exactly.  The serving workload counts
one operation per request served, plus the set-up check.  A failed
operation is printed to standard error, counted, and never hidden.
"""

from __future__ import annotations

import math
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.core.embedding_sync as embedding_sync
import repro.core.wire.transfer as wire_transfer
import repro.serve.engine as serve_engine
from repro.cluster import Communicator, MeshCommunicator, WorkHandle
from repro.core import DeltaBitpackCodec, SeedStrategy
from repro.core.sparse_exchange import PendingSparseExchange
from repro.data import ONE_BILLION_WORD, TIEBA, BatchSpec, ShardedBatcher, make_corpus
from repro.nn.parallel import PipelineSchedule
from repro.optim import SGD, Adam
from repro.perf import PAPER_PLATFORM, achieved_flops_per_gpu, word_lm_flops_per_iteration
from repro.serve import (
    ArrivalSpec,
    ContinuousBatchingScheduler,
    ServeConfig,
    ServingEngine,
    TrafficConfig,
    WordLMDecoder,
    generate_traffic,
    naive_serve,
)
from repro.telemetry import MetricsRegistry
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

import hostspeed
from hostspeed import HostSpeed
from spec import PER_LAYER
from tracing import Patches, SpanRecorder

#: Steps or sweeps per traced / untraced block of the traced run.
BLOCK = 5
#: A window never runs past this many host seconds, whatever its minimum.
WINDOW_CAP_S = 120.0


@dataclass
class Window:
    """What the timed window saw, one entry per unit of work."""

    host_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Untraced host seconds of each decode step (serving only).
    samples: list = field(default_factory=list)
    #: Per unit, and per sample: the factor that takes its host time to
    #: the reference speed, from the probes around it (see hostspeed.py).
    scale: list[float] = field(default_factory=list)
    sample_scale: list[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Peak RSS once a fixed amount of work has run (see peak_rss_mb).
    rss_mb: float = 0.0

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        print(f"FAILED: {what}", file=sys.stderr)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _alternate(window: Window, seconds: float, min_units: int, recorder,
               run_block) -> None:
    """Run blocks until ``seconds`` passed and ``min_units`` units ran.

    With a recorder, odd blocks run traced: ``run_block(traced)`` must
    attach its spans before and undo them after.
    """
    start = perf_counter()
    block = 0
    while True:
        run_block(recorder is not None and block % 2 == 1)
        block += 1
        elapsed = perf_counter() - start
        done = len(window.host_s)
        if recorder is not None and block % 2 == 1:
            continue  # end on a traced block so both kinds are present
        if elapsed >= WINDOW_CAP_S or (elapsed >= seconds and done >= min_units):
            return


def _layer_ms(recorder: SpanRecorder, window: Window,
              units: int) -> dict[str, float]:
    """Self milliseconds per unit of work at the reference speed, keyed by
    span name; each traced unit of the window has one root span."""
    scale = [f for f, t in zip(window.scale, window.traced) if t]
    return {
        name: 1e3 * s / units
        for name, s in recorder.self_seconds(scale).items()
    }


def _unattributed(recorder: SpanRecorder, root: str) -> float:
    """Share of the root spans' time that no layer span covers."""
    return recorder.self_seconds()[root] / recorder.total_seconds(root)


def _trace_overhead(window: Window) -> float:
    scaled = [h * f for h, f in zip(window.host_s, window.scale)]
    traced = [h for h, t in zip(scaled, window.traced) if t]
    plain = [h for h, t in zip(scaled, window.traced) if not t]
    return float(np.mean(traced) / np.mean(plain) - 1.0)


def _host_metrics(window: Window, tokens: float) -> tuple[dict, dict]:
    """Tokens per host second over the untraced units, and the step
    percentiles, at the reference speed (``host_*``) and as measured on
    the wall clock (``wall_*``).  ``tokens`` is what the untraced units
    made; steps are the units themselves, or the samples when there are.
    """
    plain = [(h, f) for h, f, t in
             zip(window.host_s, window.scale, window.traced) if not t]
    steps = list(zip(window.samples, window.sample_scale)) or plain

    def figures(clock: str, scaled: bool) -> dict:
        seconds = sum(h * f if scaled else h for h, f in plain)
        step_s = [h * f if scaled else h for h, f in steps]
        return {
            f"{clock}_tokens_per_s": tokens / seconds,
            f"{clock}_step_ms_p50": 1e3 * _percentile(step_s, 50),
            f"{clock}_step_ms_p90": 1e3 * _percentile(step_s, 90),
        }

    return figures("host", True), figures("wall", False)


def _instrument_cluster(rec: SpanRecorder, patches: Patches) -> None:
    """Host time inside the communicators' collectives (numerics and
    accounting), flat and per mesh axis, from issue through wait."""
    for op in ("iallreduce", "iallgather", "ibroadcast", "ireduce_scatter",
               "issue_scheduled"):
        patches.wrap(rec, Communicator, op, "cluster.collective")
    for op in ("iallreduce", "iallgather", "ibroadcast", "ireduce_scatter",
               "transfer"):
        patches.wrap(rec, MeshCommunicator, op, "cluster.collective")
    patches.wrap(rec, WorkHandle, "wait", "cluster.collective")


def _idle_layers() -> dict[str, float]:
    """Per-layer values of a workload where no layer ran."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    out["core.wire.compression_x"] = 1.0
    return out


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

BATCH = BatchSpec(2, 8)
WARMUP_STEPS = 2
#: Simulated figures, wire bytes and final_loss are read over the first
#: FIXED_STEPS timed steps, so they do not depend on host speed.
FIXED_STEPS = 40
LOSS_TAIL = 10
#: p90 of the host step time keeps at least ten samples above it (and
#: every run covers the FIXED_STEPS).
MIN_STEPS = 100


@dataclass
class StepRecord:
    """One ``train_step`` as the benchmark saw it."""

    host_s: float
    loss: float
    sim_s: float
    wire_bytes: int
    collectives: int
    comm_s: float
    exposed_s: float
    failed: bool


def checked_step(trainer: DistributedTrainer, recorder=None) -> StepRecord:
    """Run one ``train_step``; a raise or a non-finite loss fails it."""
    timeline, ledger = trainer.comm.timeline, trainer.comm.ledger
    mark, snap = timeline.mark(), ledger.snapshot()
    exposed = timeline.exposed_comm_time()
    step = trainer.train_step
    if recorder is not None:
        step = recorder.wrap(step, "bench.step")
    failed = False
    t0 = perf_counter()
    try:
        loss = step()
    except Exception:  # counted and printed: a raised step is a failure
        traceback.print_exc(file=sys.stderr)
        loss, failed = float("nan"), True
    host_s = perf_counter() - t0
    if not math.isfinite(loss):
        failed = True
    delta = ledger.delta_since(snap)
    return StepRecord(
        host_s=host_s,
        loss=loss,
        sim_s=timeline.elapsed_since(mark),
        wire_bytes=delta.wire_bytes_per_rank,
        collectives=delta.n_events,
        comm_s=delta.time_s,
        exposed_s=timeline.exposed_comm_time() - exposed,
        failed=failed,
    )


CHAR_MODEL = CharLMConfig(
    vocab_size=150, embedding_dim=8, hidden_dim=12, depth=2, dropout=0.0
)
WORD_MODEL = WordLMConfig(
    vocab_size=500, embedding_dim=16, hidden_dim=24, projection_dim=16,
    num_samples=24,
)
#: Distinct training windows per corpus epoch.
CORPUS_STEPS = {"char": 48, "word": 256}


def _corpus_tokens(data_ranks: int, steps: int) -> int:
    """Tokens for ``steps`` windows of every rank, plus the held-out split
    (at least 20k, so a small world still gets a validation batch)."""
    return max(20_000, data_ranks * BATCH.local_batch_tokens * steps * 11 // 10)


def char_trainer(seed: int, world: int = 512, codec=None) -> DistributedTrainer:
    """The Table-V mini char LM on the flat path with the delta codec."""
    corpus = make_corpus(
        TIEBA.scaled(CHAR_MODEL.vocab_size),
        _corpus_tokens(world, CORPUS_STEPS["char"]),
        seed=seed,
    )
    config = TrainConfig(
        world_size=world, batch=BATCH, base_lr=4e-3, wire_codec="delta",
        codec=codec,
    )
    return DistributedTrainer(
        lambda rng, rank: CharLanguageModel(
            CHAR_MODEL, rng, dropout_rng=np.random.default_rng(rank)
        ),
        lambda params, lr: Adam(params, lr),
        corpus.train,
        corpus.valid,
        config,
    )


def word_trainer(seed: int) -> DistributedTrainer:
    """The word LM on the hybrid mesh, compute time from the FLOP model."""
    data = 32
    corpus = make_corpus(
        ONE_BILLION_WORD.scaled(WORD_MODEL.vocab_size),
        _corpus_tokens(data, CORPUS_STEPS["word"]),
        seed=seed,
    )
    compute_s = word_lm_flops_per_iteration(WORD_MODEL, BATCH) / (
        achieved_flops_per_gpu(PAPER_PLATFORM)
    )
    config = TrainConfig(
        world_size=4 * data,
        batch=BATCH,
        base_lr=0.3,
        seed_strategy=SeedStrategy.ZIPF_FREQ,
        mesh=f"pipe=2,tensor=2,data={data}",
        compute_seconds_per_step=compute_s,
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_MODEL, rng),
        lambda params, lr: SGD(params, lr),
        corpus.train,
        corpus.valid,
        config,
    )


@dataclass
class TrainState:
    trainer: DistributedTrainer
    warm: list[tuple]  # (loss, sim_s, wire_bytes, failed) per warm-up step
    steps: list[StepRecord] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


class TrainWorkload:
    """A training workload: ``train_step`` in a loop, then the checks."""

    unit = sample_unit = "train_step"

    def __init__(self, make_trainer):
        self.make_trainer = make_trainer

    def setup(self, seed: int) -> TrainState:
        trainer = self.make_trainer(seed)
        warm = [checked_step(trainer) for _ in range(WARMUP_STEPS)]
        return TrainState(
            trainer, [(s.loss, s.sim_s, s.wire_bytes, s.failed) for s in warm]
        )

    def _instrument(self, state: TrainState, rec: SpanRecorder,
                    patches: Patches) -> None:
        """Wrap each layer's entry point for one traced block."""
        tr = state.trainer
        patches.wrap(rec, ShardedBatcher, "batch", "data.batch")
        patches.wrap(rec, ShardedBatcher, "step_batches", "data.batch")
        if tr.batched_executor is not None:
            def batched(result):
                rec.counts["nn.batched_attempts"] += 1
                rec.counts["nn.batched_steps"] += result is not None
            patches.wrap(rec, tr.batched_executor, "step", "nn.exec", batched)
        patches.wrap(rec, type(tr.replicas[0]), "step", "nn.exec")
        opt_type = type(tr.optimizers[0])
        patches.wrap(rec, opt_type, "step", "optim.apply")
        if hasattr(opt_type, "replicate_group"):
            def pooled(ok):
                rec.counts["optim.replicate_fallbacks"] += not ok
            patches.wrap(rec, opt_type, "replicate_group", "optim.replicate",
                         pooled)
            patches.wrap(rec, opt_type, "replicate_from", "optim.replicate")
        sync = tr.synchronizer
        patches.wrap(rec, sync, "sync_replicas", "core.sync")
        patches.wrap(rec, sync.strategy, "iexchange", "core.exchange")
        patches.wrap(rec, PendingSparseExchange, "wait", "core.exchange")
        patches.wrap(rec, embedding_sync, "sparse_mesh_exchange",
                     "core.exchange")
        patches.wrap(rec, DeltaBitpackCodec, "encode", "core.wire.encode")
        patches.wrap(rec, wire_transfer, "decode_frames", "core.wire.decode")
        _instrument_cluster(rec, patches)
        patches.set(tr.comm, "metrics", state.registry)

    def measure(self, state: TrainState, seconds: float,
                recorder: SpanRecorder | None) -> Window:
        window = Window()
        tr = state.trainer

        def run_block(traced: bool) -> None:
            patches = Patches()
            if traced:
                self._instrument(state, recorder, patches)
            try:
                for _ in range(BLOCK):
                    record, _, factor = window.speed.timed(
                        lambda: checked_step(tr, recorder if traced else None)
                    )
                    state.steps.append(record)
                    if len(state.steps) == FIXED_STEPS:
                        window.rss_mb = _peak_rss_mb()
                    window.host_s.append(record.host_s)
                    window.scale.append(factor)
                    window.traced.append(traced)
                    window.attempted += 1
                    if record.failed:
                        window.fail(
                            f"train_step {len(state.steps)}: loss {record.loss}"
                        )
            finally:
                patches.undo()

        _alternate(window, seconds, MIN_STEPS, recorder,
                   run_block)
        return window

    def check(self, state: TrainState, window: Window, warms: list) -> None:
        """Warm-up steps, replicas in sync, set-ups repeating exactly.

        ``warms`` holds every set-up's :attr:`TrainState.warm`; the
        warm-up steps of the set-up that was measured count as steps.
        """
        window.attempted += len(state.warm) + 2
        for i, (loss, *_, failed) in enumerate(state.warm):
            if failed:
                window.fail(f"warm-up train_step {i + 1}: loss {loss}")
        try:
            assert_replicas_synchronized(state.trainer.replicas, atol=0.0)
        except AssertionError as err:
            window.fail(f"replica sync: {err}")
        if any(w != warms[0] for w in warms[1:]):
            window.fail(f"set-ups of one seed differ: {warms}")

    def end_to_end(self, state: TrainState, window: Window) -> tuple[dict, dict]:
        tr = state.trainer
        fixed = state.steps[:FIXED_STEPS]
        tokens = tr.data_parallel * BATCH.local_batch_tokens
        metrics, figures = _host_metrics(
            window, tokens * window.traced.count(False)
        )
        metrics.update({
            "sim_step_ms": 1e3 * float(np.mean([s.sim_s for s in fixed])),
            "wire_bytes_per_rank_step": float(
                np.mean([s.wire_bytes for s in fixed])
            ),
        })
        losses = [s.loss for s in fixed[-LOSS_TAIL:]]
        figures["final_loss"] = float(np.mean(losses))
        return metrics, figures

    def per_layer(self, state: TrainState, window: Window,
                  recorder: SpanRecorder) -> dict:
        tr = state.trainer
        traced_steps = sum(window.traced)
        ms = _layer_ms(recorder, window, traced_steps)
        counts = recorder.counts
        fixed = state.steps[:FIXED_STEPS]
        out = _idle_layers()
        for name in ("data.batch", "nn.exec", "optim.apply",
                     "optim.replicate", "core.sync", "core.exchange",
                     "core.wire.encode", "core.wire.decode",
                     "cluster.collective"):
            out[f"{name}_ms"] = ms.get(name, 0.0)
        attempts = counts["nn.batched_attempts"]
        out["nn.batched_frac"] = (
            counts["nn.batched_steps"] / attempts if attempts else 0.0
        )
        out["optim.replicate_fallbacks"] = (
            counts["optim.replicate_fallbacks"] / traced_steps
        )
        out["core.unique_frac"] = _unique_frac(tr, len(fixed))
        out["core.wire.compression_x"] = _compression(state.registry)
        out["cluster.collectives_per_step"] = float(
            np.mean([s.collectives for s in fixed])
        )
        out["cluster.sim_comm_ms"] = 1e3 * float(np.mean([s.comm_s for s in fixed]))
        out["cluster.sim_exposed_comm_ms"] = 1e3 * float(
            np.mean([s.exposed_s for s in fixed])
        )
        if "repro_mesh_wire_bytes_total" in state.registry:
            family = state.registry.get("repro_mesh_wire_bytes_total")
            for axis, op in family.series_keys():
                out[f"cluster.mesh.bytes.{axis}"] += (
                    family.value(axis=axis, op=op) / traced_steps
                )
        if tr.mesh is not None:
            out["cluster.pipe_bubble_frac"] = PipelineSchedule(
                tr.mesh.axis_size("pipe"), tr.config.accumulation_steps, 0.0, 0.0
            ).bubble_fraction
        out["bench.unattributed_frac"] = _unattributed(recorder, "bench.step")
        out["bench.trace_overhead_frac"] = _trace_overhead(window)
        return out


def _unique_frac(trainer: DistributedTrainer, steps: int) -> float:
    """Mean over the fixed steps of global unique input ids / (G_data·K)."""
    batcher = trainer.batcher
    first = WARMUP_STEPS  # the fixed steps follow the warm-up steps
    fracs = []
    for s in range(first, first + steps):
        batches = batcher.step_batches(s % batcher.steps_per_epoch)
        ids = np.concatenate([b.inputs.ravel() for b in batches])
        fracs.append(np.unique(ids).size / ids.size)
    return float(np.mean(fracs))


def _compression(registry: MetricsRegistry) -> float:
    """Logical bytes encoded / frame bytes sent, over every codec."""
    if "repro_wire_frame_bytes_total" not in registry:
        return 1.0
    logical = registry.get("repro_wire_encode_bytes_total")
    frames = registry.get("repro_wire_frame_bytes_total")
    keys = frames.series_keys()
    sent = sum(frames.value(codec=k[0]) for k in keys)
    return sum(logical.value(codec=k[0]) for k in keys) / sent if sent else 1.0


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------

SERVE_MODEL = WordLMConfig(
    vocab_size=120, embedding_dim=16, hidden_dim=32, projection_dim=16,
    num_samples=8,
)
SERVE_WORLD = 4
#: Mean arrival rates (requests per simulated second) of the ladder.
RATE_LADDER = (40, 80, 120, 160, 200)
#: The rate whose latencies are reported, over all its streams.
REFERENCE_RATE = 80
#: p99 TTFT limit every stream of a rate must meet for sim_rps_at_slo.
TTFT_LIMIT_S = 0.15
REQUESTS_PER_RUNG = 320
#: Streams served per rate of the ladder, each with its own seed.  With
#: one, a stream's prompt pool and burst pattern moved a run's decode-step
#: times by up to 30% from one seed to the next; three halve that spread.
STREAMS_PER_RATE = 3
#: The rate of each stream of a sweep.
SWEEP_RATES = RATE_LADDER * STREAMS_PER_RATE
MIN_SWEEPS = 3
WARMUP_REQUESTS = 32
#: Calm/burst phases: bursts run at BURST_FACTOR x the calm rate.
CALM_S, BURST_S, BURST_FACTOR = 0.1, 0.025, 4.0


def serve_config(decoder: WordLMDecoder) -> ServeConfig:
    """Engine knobs: explicit per-token charges, no deadline drops, and a
    state cache of four active batches so queued prefills can be evicted.
    """
    return ServeConfig(
        max_batch=8,
        seed=0,
        drop_expired=False,
        decode_token_s=2e-3,
        prefill_token_s=5e-4,
        cache_budget_bytes=32 * decoder.state_nbytes,
    )


def rung_traffic(seed: int, rung: int, rate: float) -> TrafficConfig:
    """Stream ``rung`` of a sweep: Zipfian/bursty, mean arrival rate
    ``rate``."""
    calm = rate * (CALM_S + BURST_S) / (CALM_S + BURST_FACTOR * BURST_S)
    return TrafficConfig(
        num_requests=REQUESTS_PER_RUNG,
        vocab_size=SERVE_MODEL.vocab_size,
        prompt_pool=12,
        arrivals=ArrivalSpec(
            calm_rate=calm, burst_rate=BURST_FACTOR * calm,
            mean_calm_s=CALM_S, mean_burst_s=BURST_S,
        ),
        seed=seed * len(SWEEP_RATES) + rung,
    )


#: Host seconds between probes of the host's speed inside a rung run.
PROBE_EVERY_S = 0.03


class StepClock:
    """Telemetry sink for the engine: the host time of each decode step.

    With a :class:`~hostspeed.HostSpeed`, it also probes the host's speed
    between decode steps, at most every ``PROBE_EVERY_S``: a rung runs
    for most of a second, longer than the host keeps one speed.  The
    probes' own time is left out of the marks.

    Implements the part of the :class:`~repro.telemetry.TelemetrySession`
    interface that :class:`~repro.serve.ServingEngine` calls.
    """

    def __init__(self, speed: HostSpeed | None = None) -> None:
        self.speed = speed
        #: Per decode step: host time, less the probes before it.
        self.marks: list[float] = []
        self.sim_step_s: list[float] = []
        #: Host seconds spent probing.
        self.paused = 0.0
        #: Per probe: (decode steps before it, probe seconds).
        self.probes: list[tuple[int, float]] = []
        self._next_probe = perf_counter() + PROBE_EVERY_S

    def track(self, comm, label: str = "") -> None:
        pass

    def record_event(self, *args, **kwargs) -> None:
        pass

    def record_step(self, **fields) -> None:
        now = perf_counter()
        self.marks.append(now - self.paused)
        self.sim_step_s.append(fields["step_time_s"])
        if self.speed is not None and now >= self._next_probe:
            self.probes.append((len(self.marks), self.speed.probe()))
            done = perf_counter()
            self.paused += done - now
            self._next_probe = done + PROBE_EVERY_S

    def scaled_steps(self, t0: float, end: float, before: float,
                     after: float) -> tuple[np.ndarray, np.ndarray]:
        """Host seconds of each decode step of a run from ``t0`` to
        ``end``, plus the tail after the last one, and each one's factor
        to the reference speed from the probes on either side of it;
        ``before`` and ``after`` are probes taken around the run."""
        seconds = np.diff([t0, *self.marks, end - self.paused])
        bounds = [(0, before), *self.probes, (len(seconds), after)]
        factors = np.empty_like(seconds)
        for (i0, p0), (i1, p1) in zip(bounds, bounds[1:]):
            factors[i0:i1] = hostspeed.factor(p0, p1)
        return seconds, factors


@dataclass
class RungRun:
    """One rung served by one engine."""

    report: object  # ServingReport, or None when the engine raised
    clock: StepClock
    comm: Communicator


@dataclass
class ServeState:
    decoder: WordLMDecoder
    config: ServeConfig
    streams: list[list]  # per rung, at SWEEP_RATES: the generated requests
    warm: tuple
    #: Per rung: naive decode's tokens for every request.
    reference: list[list[tuple]] = field(default_factory=list)
    #: The first sweep, kept whole for the simulated figures; later
    #: sweeps serve the same streams and are dropped once checked, so
    #: the live heap does not grow with the window.
    first: list[RungRun] = field(default_factory=list)
    #: Per rung run: (tokens, decode steps, traced).
    runs: list[tuple[int, int, bool]] = field(default_factory=list)


class ServeWorkload:
    """Rate-ladder sweeps of the serving engine."""

    unit, sample_unit = "rung run", "decode_step"

    def setup(self, seed: int) -> ServeState:
        model = WordLanguageModel(SERVE_MODEL, np.random.default_rng(0))
        decoder = WordLMDecoder(model)
        config = serve_config(decoder)
        streams = [
            generate_traffic(rung_traffic(seed, i, rate))
            for i, rate in enumerate(SWEEP_RATES)
        ]
        warm = ServingEngine(
            decoder, Communicator(SERVE_WORLD), config
        ).run(streams[0][:WARMUP_REQUESTS])
        return ServeState(
            decoder, config, streams,
            (warm.makespan_s, tuple(r.tokens for r in warm.requests)),
        )

    def _verify(self, state: ServeState, rung: int, report,
                window: Window) -> None:
        """Every request finished, with naive decode's tokens."""
        want = state.reference[rung]
        bad = [
            got.request_id
            for got, tokens in zip(report.requests, want)
            if got.tokens != tokens or got.dropped
        ]
        bad += ["missing"] * (len(want) - len(report.requests))
        if bad:
            window.fail(
                f"rung {rung} ({SWEEP_RATES[rung]}/s): requests {bad[:8]} "
                "differ from naive decode", len(bad)
            )

    def _serve(self, state: ServeState, window: Window,
               recorder: SpanRecorder | None) -> None:
        """One sweep: every stream of the ladder, each on a fresh engine."""
        traced = recorder is not None
        for rung, requests in enumerate(state.streams):
            # Probes inside a traced run would count as its unattributed
            # time; a traced run's factor comes from the probes around it.
            clock = StepClock(None if traced else window.speed)
            comm = Communicator(SERVE_WORLD)
            run = ServingEngine(
                state.decoder, comm, state.config, telemetry=clock
            ).run
            if traced:
                run = recorder.wrap(run, "bench.run")
            before = window.speed.probe()
            t0, report = _started(run, requests)
            end = perf_counter()
            seconds, factors = clock.scaled_steps(
                t0, end, before, window.speed.probe()
            )
            host_s = float(seconds.sum())
            window.host_s.append(host_s)
            window.scale.append(float(seconds @ factors) / host_s)
            window.traced.append(traced)
            window.attempted += len(requests)
            if not traced:  # the last entry is the tail after the last step
                window.samples.extend(seconds[:-1].tolist())
                window.sample_scale.extend(factors[:-1].tolist())
            if report is None:
                window.fail(f"engine raised on {len(requests)} requests",
                            len(requests))
                state.runs.append((0, 0, traced))
            else:
                self._verify(state, rung, report, window)
                state.runs.append(
                    (report.total_tokens, report.decode_steps, traced)
                )
            if len(state.first) < len(state.streams):
                state.first.append(RungRun(report, clock, comm))
        if window.rss_mb == 0.0:
            window.rss_mb = _peak_rss_mb()

    def _instrument(self, state: ServeState, rec: SpanRecorder,
                    patches: Patches) -> None:
        patches.wrap(rec, state.decoder, "step", "serve.decode")
        patches.wrap(rec, serve_engine, "sharded_embedding_lookup",
                     "serve.lookup")
        patches.wrap(rec, ContinuousBatchingScheduler, "poll", "serve.sched")
        _instrument_cluster(rec, patches)

    def measure(self, state: ServeState, seconds: float,
                recorder: SpanRecorder | None) -> Window:
        state.reference = [
            [r.tokens for r in naive_serve(
                state.decoder, requests, state.config).requests]
            for requests in state.streams
        ]
        window = Window()

        def run_block(traced: bool) -> None:
            patches = Patches()
            if traced:
                self._instrument(state, recorder, patches)
            try:
                for _ in range(1 if recorder is None else BLOCK // 2):
                    self._serve(state, window, recorder if traced else None)
            finally:
                patches.undo()

        _alternate(window, seconds, MIN_SWEEPS * len(SWEEP_RATES), recorder,
                   run_block)
        return window

    def check(self, state: ServeState, window: Window, warms: list) -> None:
        """Set-ups repeat exactly; tokens were checked as each rung ran."""
        window.attempted += 1
        if any(w != warms[0] for w in warms[1:]):
            window.fail("set-ups of one seed differ")

    def end_to_end(self, state: ServeState, window: Window) -> tuple[dict, dict]:
        tokens = sum(t for t, _, traced in state.runs if not traced)
        metrics, figures = _host_metrics(window, tokens)
        # Simulated figures come from the first sweep: every sweep serves
        # the same streams, so they repeat exactly.
        reports = [run.report for run in state.first]
        sim_steps = [s for run in state.first for s in run.clock.sim_step_s]
        metrics.update({
            "sim_step_ms": 1e3 * float(np.mean(sim_steps)),
            "wire_bytes_per_rank_step": sum(r.wire_bytes_per_rank for r in reports)
            / len(sim_steps),
        })
        ref = [r for rate, r in zip(SWEEP_RATES, reports)
               if rate == REFERENCE_RATE]
        ttft = [t for r in ref for t in r.ttft_values()]
        tpot = [g for rep in ref for r in rep.requests
                for g in r.per_token_latencies_s()[1:]]
        passing = [
            rate for rate in RATE_LADDER
            if all(_meets_slo(rep, stream) for r, rep, stream
                   in zip(SWEEP_RATES, reports, state.streams) if r == rate)
        ]
        figures.update({
            "sim_ttft_ms_p50": 1e3 * _percentile(ttft, 50),
            "sim_ttft_ms_p99": 1e3 * _percentile(ttft, 99),
            "sim_tpot_ms_p50": 1e3 * _percentile(tpot, 50),
            "sim_rps_at_slo": float(max(passing, default=0)),
        })
        return metrics, figures

    def per_layer(self, state: ServeState, window: Window,
                  recorder: SpanRecorder) -> dict:
        traced_steps = sum(steps for _, steps, traced in state.runs if traced)
        ms = _layer_ms(recorder, window, traced_steps)
        reports = [run.report for run in state.first]
        steps = sum(r.decode_steps for r in reports)
        cache = {
            key: sum(r.cache_stats[key] for r in reports)
            for key in ("hits", "misses", "evictions")
        }
        ledgers = [run.comm.ledger for run in state.first]
        out = _idle_layers()
        out.update({
            "cluster.collectives_per_step": sum(len(g.events) for g in ledgers)
            / steps,
            "cluster.sim_comm_ms": 1e3 * sum(g.total_time_s for g in ledgers)
            / steps,
            "cluster.collective_ms": ms.get("cluster.collective", 0.0),
            "serve.decode_ms": ms.get("serve.decode", 0.0),
            "serve.lookup_ms": ms.get("serve.lookup", 0.0),
            "serve.sched_ms": ms.get("serve.sched", 0.0),
            "serve.cache_hit_frac": cache["hits"] / (cache["hits"] + cache["misses"]),
            "serve.evictions": float(cache["evictions"]),
            "serve.recomputes": float(sum(r.recomputes for r in reports)),
            "serve.batch_mean": sum(r.total_tokens for r in reports) / steps,
            "bench.unattributed_frac": _unattributed(recorder, "bench.run"),
            "bench.trace_overhead_frac": _trace_overhead(window),
        })
        return out


def _started(run, requests):
    """``(start time, run(requests))``; a raise is printed and gives
    ``None`` as the report."""
    t0 = perf_counter()
    try:
        return t0, run(requests)
    except Exception:  # counted by the caller: every request fails
        traceback.print_exc(file=sys.stderr)
        return t0, None


def _meets_slo(report, stream) -> bool:
    """p99 TTFT within the limit, and the queue drains within it too.

    A backlog that grows through the stream leaves work queued when the
    arrivals stop, so the drain time after the last arrival exceeds the
    limit even when the early requests were fast.
    """
    if report is None:
        return False
    p99 = _percentile(report.ttft_values(), 99)
    drain = report.makespan_s - max(r.arrival_s for r in stream)
    return p99 <= TTFT_LIMIT_S and drain <= TTFT_LIMIT_S


WORKLOADS = {
    "char_flat_g512": TrainWorkload(char_trainer),
    "word_mesh_g128": TrainWorkload(word_trainer),
    "serve_zipf_w4": ServeWorkload(),
}

