"""stream-durable: the sharded streaming stack with durability, in-process.

``ShardRouter(workers=2)`` with the compiled engine,
``ShardedStreamingForecaster(cadence=4)`` and a ``ShardedSnapshotter``
(WAL on, no fsync, a checkpoint every 4096 ticks per shard) over 256
series x 7 variables.  Warm histories are staggered by series index
mod 4, so every round issues 64 forecasts.  Each round appends one
tick per series and then waits for that round's forecasts: the pacing
bounds the queue, so a latency is service time, never backlog.  A
latency is read at the caller, when the round's wait finds the
forecast resolved: the service threads race the ingest thread for the
interpreter lock, and the exact moment a future resolves mid-round
flipped the median between 0.4 ms and 14 ms from one run to the next.

Before timing, a first "life" of the stack writes a snapshot plus a WAL
tail; ``setup_s`` is a restart: service load, compile and recovery
from that directory, until each shard worker has answered.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from . import common, trace
from .trace import Tracer

WORKERS = 2
CADENCE = 4
_SERIES_ROWS = 4096  # generated rows; series read them cyclically


class Inputs:
    """Seeded tick values: series ``i`` reads rows from its own offset."""

    def __init__(self, seed: int, series: int):
        rng = np.random.default_rng(seed)
        self.rows = common.scaled_series(seed, _SERIES_ROWS)
        self.offsets = rng.integers(0, _SERIES_ROWS, size=series)
        self.keys = [f"series-{i:04d}" for i in range(series)]
        #: Ticks each series holds after the first life: staggered so
        #: a quarter of the series crosses the cadence every round.
        self.warm = [common.HISTORY + i % CADENCE for i in range(series)]

    def value(self, i: int, tick: int) -> np.ndarray:
        return self.rows[(self.offsets[i] + tick) % _SERIES_ROWS]

    def window(self, i: int, last_tick: int) -> np.ndarray:
        ticks = range(last_tick - common.HISTORY + 1, last_tick + 1)
        return np.stack([self.value(i, t) for t in ticks])


def _stack(artifacts: str):
    from repro.shard import ShardedStreamingForecaster, ShardRouter

    router = ShardRouter(artifacts, workers=WORKERS, engine="compiled",
                         max_batch=64)
    try:
        return ShardedStreamingForecaster(
            router, dataset=common.DATASET, horizon=common.HORIZON,
            cadence=CADENCE)
    except BaseException:
        router.close()
        raise


def _first_life(artifacts, directory, inputs, size) -> int:
    """Warm every series, checkpointing as configured; leave the WAL
    tail behind (no final checkpoint) and return the accepted seq."""
    from repro.durable import ShardedSnapshotter

    sharded = _stack(artifacts)
    try:
        snapshotter = ShardedSnapshotter(
            sharded, directory, every=size.checkpoint_every, wal=True,
            fsync=False)
        try:
            for tick in range(max(inputs.warm)):
                for i, key in enumerate(inputs.keys):
                    if tick < inputs.warm[i]:
                        sharded.append(key, float(tick),
                                       inputs.value(i, tick))
            seq = sharded.seq
        finally:
            snapshotter.close()
    finally:
        sharded.close()
    return seq


class Life:
    """One restarted stack: recovered, snapshotting, answering."""

    def __init__(self, artifacts, source, directory, inputs, size,
                 expected_seq, probe):
        from repro.durable import (RecoveryError, RecoveryStages,
                                   ShardedRecoverer, ShardedSnapshotter)

        shutil.copytree(source, directory)
        started = time.perf_counter()
        self.sharded = _stack(artifacts)
        self.snapshotter = None
        try:
            recoverer = ShardedRecoverer()
            try:
                self.sharded.restore_from(directory, recoverer=recoverer)
            except RecoveryError:
                pass  # judged from the recoverer's state below
            state = recoverer.state()
            self.recovered = (state.stage is RecoveryStages.SUCCEEDED
                              and state.detail.get("final_seq")
                              == expected_seq)
            self.recovery = (f"stage={state.stage.value} "
                             f"seq={state.detail.get('final_seq')} "
                             f"expected={expected_seq} "
                             f"reason={state.failure_reason}")
            self.snapshotter = ShardedSnapshotter(
                self.sharded, directory, every=size.checkpoint_every,
                wal=True, fsync=False)
            answers = [worker.service.predict(probe)
                       for worker in self.sharded.router.workers]
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        self.workers_agree = all(common.same_bits(answers[0], a)
                                 for a in answers[1:])
        self.next_tick = list(inputs.warm)
        self.checkpoint_ticks = size.checkpoint_every * WORKERS

    def close(self) -> None:
        if self.snapshotter is not None:
            self.snapshotter.close()
        self.sharded.close()


def _rounds(life: Life, inputs: Inputs, seconds: float, rng,
            sample_every: int = 0) -> dict:
    """Paced rounds for ``seconds``: one tick per series, then wait."""
    sharded, keys = life.sharded, inputs.keys
    latencies, round_ns, sampled = [], [], []
    ticks = failed = 0
    now = time.perf_counter_ns
    start = now()
    deadline = start + int(seconds * 1e9)
    rounds = backlogged = 0
    while now() < deadline:
        # Forecasts still queued from an earlier round would be backlog.
        backlogged += sharded.router.pressure()[0] > 0
        round_start = now()
        issued = []
        for i, key in enumerate(keys):
            tick = life.next_tick[i]
            appended = now()
            future = sharded.append(key, float(tick), inputs.value(i, tick))
            life.next_tick[i] = tick + 1
            ticks += 1
            if future is not None:
                issued.append((i, tick, appended, future))
        for i, tick, appended, future in issued:
            try:
                future.result(timeout=60)
            except Exception:  # a failed forecast is a failed operation
                failed += 1
                continue
            latencies.append((now() - appended) / 1e6)
        round_ns.append(now() - round_start)
        if sample_every and issued and rounds % sample_every == 0:
            i, tick, _, future = issued[int(rng.integers(len(issued)))]
            sampled.append((i, tick, future))
        rounds += 1
    end = now()
    # Throughput windows span one checkpoint period each, so every
    # window pays for one checkpoint per shard.
    per_window = max(1, life.checkpoint_ticks // len(keys))
    windows = [per_window * len(keys) * 1e9 / sum(round_ns[k:k + per_window])
               for k in range(0, len(round_ns) - per_window + 1, per_window)]
    return {"t0": start, "t1": end, "ticks": ticks, "failed": failed,
            "window_rates": windows, "backlogged": backlogged,
            "latencies": latencies, "round_ms": [r / 1e6 for r in round_ns],
            "sampled": sampled}


def _counters(sharded) -> dict:
    snapshot = sharded.snapshot()
    per_shard = [s["stream"]["ticks"]
                 for s in sharded.shard_snapshots().values()]
    return {"stream": snapshot["stream"], "service": snapshot["service"],
            "shard_ticks": per_shard}


def _pass(artifacts, source, workdir, tag, inputs, size, expected_seq,
          probe, seconds, setups, rng) -> dict:
    lives, setup_s, recoveries = [], [], []
    try:
        for k in range(setups):
            for life in lives:
                life.close()
            lives = [Life(artifacts, source,
                          os.path.join(workdir, f"{tag}-{k}"), inputs, size,
                          expected_seq, probe)]
            setup_s.append(lives[0].setup_s)
            recoveries.append((lives[0].recovered, lives[0].recovery))
        life = lives[0]
        _rounds(life, inputs, size.warmup_s, rng)
        before = _counters(life.sharded)
        timed = _rounds(life, inputs, seconds, rng, sample_every=4)
        after = _counters(life.sharded)
        checked = _check(life, inputs, timed["sampled"], size)
        timed.update(setup_s=setup_s, recoveries=recoveries,
                     counters=(before, after), bitwise=checked,
                     workers_agree=life.workers_agree,
                     peak_rss_mb=common.peak_rss_mb())
        return timed
    finally:
        for life in lives:
            life.close()


def _check(life, inputs, sampled, size) -> tuple[int, int]:
    """Streamed forecasts == service.predict on the same window."""
    chosen = sampled[:: max(1, len(sampled) // max(size.samples, 1))]
    chosen = chosen[: size.samples]
    equal = 0
    for i, tick, future in chosen:
        direct = life.sharded.router.predict(
            inputs.window(i, tick), dataset=common.DATASET,
            horizon=common.HORIZON)
        equal += common.same_bits(future.result(), direct)
    return equal, len(chosen)


def _summary(timed: dict) -> dict:
    # Median over windows (whole run when shorter than one window):
    # neighbours on a shared box slow whole seconds at a time.
    elapsed = (timed["t1"] - timed["t0"]) / 1e9
    return {
        "throughput_per_s": common.percentile(timed["window_rates"], 50)
        if timed["window_rates"] else timed["ticks"] / elapsed,
        "latency_p50_ms": common.percentile(timed["latencies"], 50),
        "latency_p90_ms": common.percentile(timed["latencies"], 90),
        "round_p50_ms": common.percentile(timed["round_ms"], 50),
        "round_p90_ms": common.percentile(timed["round_ms"], 90),
    }


def run(root: str, workdir: str, seed: int, seconds: float,
        size: common.Size, traced: bool, spans_path: str) -> dict:
    artifacts = os.path.join(workdir, "artifacts")
    common.make_artifact(artifacts)
    inputs = Inputs(seed, size.series)
    source = os.path.join(workdir, "first-life")
    expected_seq = _first_life(artifacts, source, inputs, size)
    probe = inputs.window(0, inputs.warm[0] - 1)
    rng = np.random.default_rng([seed, 1])

    passes = [_pass(artifacts, source, workdir, "untraced", inputs, size,
                    expected_seq, probe, seconds,
                    1 if traced else size.stream_setups, rng)]
    layers = {}
    if traced:
        tracer = Tracer().install()
        try:
            passes.append(_pass(artifacts, source, workdir, "traced",
                                inputs, size, expected_seq, probe, seconds,
                                1, rng))
        finally:
            tracer.uninstall()
        tracer.dump(spans_path)
        layers = _layers(tracer, passes[1], _summary(passes[0]))

    result = passes[0]
    outcome = _summary(result)
    checks, attempted, failed = [], 0, 0
    for index, timed in enumerate(passes):
        label = "traced " if index else ""
        summary = _summary(timed)
        equal, total = timed["bitwise"]
        failed_recoveries = sum(not ok for ok, _ in timed["recoveries"])
        attempted += timed["ticks"] + len(timed["recoveries"])
        failed += timed["failed"] + failed_recoveries + (total - equal)
        checks += [
            (f"{label}recovery succeeded at the expected seq",
             failed_recoveries == 0, timed["recoveries"][-1][1]),
            (f"{label}streamed forecast == service.predict (bitwise)",
             total > 0 and equal == total, f"{equal}/{total} equal"),
            (f"{label}shard workers answer identically",
             timed["workers_agree"], "probe window on every worker"),
            (f"{label}no failed forecast", timed["failed"] == 0,
             f"{timed['failed']} failed"),
            (f"{label}no backlog: nothing queued at a round start, p90 "
             f"latency < p90 round duration",
             timed["backlogged"] == 0
             and summary["latency_p90_ms"] < summary["round_p90_ms"],
             f"{timed['backlogged']} backlogged rounds, p90 "
             f"{summary['latency_p90_ms']:.2f} ms, round p90 "
             f"{summary['round_p90_ms']:.2f} ms"),
        ]
    e2e = {
        "setup_s": common.percentile(result["setup_s"], 50),
        "throughput_per_s": outcome["throughput_per_s"],
        "latency_p50_ms": outcome["latency_p50_ms"],
        "latency_p90_ms": outcome["latency_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "series": size.series, "workers": WORKERS, "cadence": CADENCE,
        "rounds": len(result["round_ms"]),
        "round_p50_ms": round(outcome["round_p50_ms"], 3),
        "latency_samples": len(result["latencies"]),
        "setup_samples": [round(s, 4) for s in result["setup_s"]],
        "first_life_seq": expected_seq,
    }
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed, "checks": checks, "notes": notes}


def _layers(tracer: Tracer, timed: dict, untraced: dict) -> dict:
    t0, t1 = timed["t0"], timed["t1"]
    table = tracer.table()

    def spans(name, window=True):
        if window:
            return tracer.select(name, t0, t1, table=table)
        return tracer.select(name, table=table)

    def p50(values, scale):
        return common.percentile(values, 50) / scale

    forwards = spans("infer.predict")
    forward_ns = trace.durations(forwards)
    wal = spans("durable.wal_append")
    checkpoints = spans("durable.checkpoint")
    waits = [done - end - forward for _, end, done, forward in tracer.waits
             if forward is not None and end >= t0 and done <= t1]
    before, after = timed["counters"]
    service = {k: after["service"][k] - before["service"][k]
               for k in ("batches", "served", "plan_rebuilds",
                         "plan_misses")}
    stream = {k: after["stream"][k] - before["stream"][k]
              for k in ("ticks", "forecasts")}
    shard_ticks = [a - b for a, b in zip(after["shard_ticks"],
                                         before["shard_ticks"])]
    summary = _summary(timed)
    return {
        "serve.wait_us_p50": p50(waits, 1e3),
        "serve.batch_rows_mean": service["served"]
        / max(service["batches"], 1),
        "serve.max_coalesced": after["service"]["max_coalesced"],
        "infer.forward_us_p50": p50(forward_ns, 1e3),
        "infer.forward_us_per_row": forward_ns.sum() / 1e3
        / max(forwards[:, trace.EXTRA].sum(), 1),
        "infer.compile_ms": p50(
            trace.durations(spans("infer.compile", False)), 1e6),
        "infer.plan_rebuilds": service["plan_rebuilds"]
        + service["plan_misses"],
        "stream.append_us_p50": p50(
            spans("stream.append")[:, trace.SELF], 1e3),
        "stream.forecasts_per_tick": stream["forecasts"]
        / max(stream["ticks"], 1),
        "shard.route_us_p50": p50(spans("shard.append")[:, trace.SELF], 1e3),
        "shard.tick_skew": max(shard_ticks) / max(min(shard_ticks), 1),
        "durable.wal_append_us_p50": p50(trace.durations(wal), 1e3),
        "durable.wal_bytes_per_tick": wal[:, trace.EXTRA].sum()
        / max(len(wal), 1),
        "durable.checkpoint_ms_p50": p50(trace.durations(checkpoints), 1e6),
        "durable.checkpoints": len(checkpoints),
        "durable.snapshot_mb": p50(checkpoints[:, trace.EXTRA], 2**20),
        "durable.recover_ms": p50(
            trace.durations(spans("durable.recover", False)), 1e6),
        "traced.throughput_per_s": summary["throughput_per_s"],
        "traced.latency_p50_ms": summary["latency_p50_ms"],
        "trace.overhead_pct": 100.0 * (untraced["throughput_per_s"]
                                       / summary["throughput_per_s"] - 1.0),
    }
