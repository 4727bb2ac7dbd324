"""train-distill: ``TimeKDTrainer`` in ``training_mode="joint"``, in-process.

The joint objective of paper Eq. 30 (reconstruction + PKD + forecast)
at the ``BENCH_SCALE`` shapes on the in-repo synthetic ETTm1.  The CLM
prompt embeddings are precomputed during set-up with no disk cache, so
the ``llm`` work lands in ``setup_s``; the timed phase then repeats
``train_joint()`` calls of a fixed number of epochs.  An epoch (train
plus validation) ends at the trainer's once-per-epoch ``evaluate()``.
"""

from __future__ import annotations

import math
import time


from . import common, trace
from .trace import Tracer


class Job:
    """Data, trainer and precomputed CLM embeddings for one seed."""

    def __init__(self, seed: int, size: common.Size):
        from repro.core import TimeKDConfig
        from repro.core.trainer import TimeKDTrainer
        from repro.data import load_dataset, make_forecasting_data

        started = time.perf_counter()
        series = load_dataset(common.DATASET, length=size.train_length,
                              seed_offset=seed)
        data = make_forecasting_data(series, history_length=common.HISTORY,
                                     horizon=common.HORIZON)
        train = common.BENCH_TRAIN
        config = TimeKDConfig(
            history_length=common.HISTORY, horizon=common.HORIZON,
            num_variables=data.num_variables,
            frequency_minutes=data.frequency_minutes,
            llm_pretrain_steps=train["llm_pretrain_steps"],
            prompt_value_stride=train["prompt_value_stride"],
            teacher_epochs=train["teacher_epochs"],
            student_epochs=size.train_epochs,
            batch_size=train["batch_size"],
            max_batches_per_epoch=train["max_batches"],
            training_mode="joint", precompute_embeddings=True,
            embedding_cache_dir=None, seed=0, **common.BENCH_SHAPES)
        self.trainer = TimeKDTrainer(config, data)
        self.trainer.prepare_embeddings()
        self.setup_s = time.perf_counter() - started
        self.rows_per_epoch = min(
            len(data.train),
            config.batch_size * config.max_batches_per_epoch)
        self.epoch_ends: list[int] = []
        evaluate = self.trainer.evaluate

        def timed_evaluate(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            self.epoch_ends.append(time.perf_counter_ns())
            return result

        # The epoch boundary: train_joint calls evaluate() once per epoch.
        self.trainer.evaluate = timed_evaluate

    def warm_up(self) -> None:
        """One ``train_joint()`` with the teacher warm-up of Eq. 30's
        schedule; later calls skip it so every timed epoch is joint."""
        self.trainer.train_joint()
        self.trainer.config = self.trainer.config.with_updates(
            teacher_epochs=0)

    def timed(self, seconds: float) -> dict:
        trainer = self.trainer
        clm_before = trainer.clm.num_forwards
        losses_before = len(trainer.history["student_loss"])
        epochs_ms, call_rates = [], []
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            self.epoch_ends.clear()
            call_start = time.perf_counter_ns()
            trainer.train_joint()
            bounds = [call_start] + self.epoch_ends
            epochs_ms += [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]
            call_rates.append(len(self.epoch_ends) * self.rows_per_epoch
                              / ((bounds[-1] - call_start) / 1e9))
        end = time.perf_counter_ns()
        losses = (trainer.history["student_loss"][losses_before:]
                  + trainer.history["val_mse"][losses_before:])
        return {"t0": start, "t1": end, "epochs_ms": epochs_ms,
                "call_rates": call_rates, "losses": losses,
                "clm_forwards": trainer.clm.num_forwards - clm_before,
                "rows": len(epochs_ms) * self.rows_per_epoch}


def _summary(timed: dict) -> dict:
    # Median over train_joint() calls: neighbours on a shared box slow
    # whole seconds at a time, and a median shrugs those off.
    return {
        "throughput_per_s": common.percentile(timed["call_rates"], 50),
        "latency_p50_ms": common.percentile(timed["epochs_ms"], 50),
        "latency_p90_ms": common.percentile(timed["epochs_ms"], 90),
    }


def _pass(seed, seconds, size, setups) -> dict:
    setup_s, job = [], None
    for _ in range(setups):
        job = None  # release the previous set-up before the next
        job = Job(seed, size)
        setup_s.append(job.setup_s)
    job.warm_up()
    timed = job.timed(seconds)
    timed["setup_s"] = setup_s
    timed["peak_rss_mb"] = common.peak_rss_mb()
    return timed


def run(root: str, workdir: str, seed: int, seconds: float,
        size: common.Size, traced: bool, spans_path: str) -> dict:
    passes = [_pass(seed, seconds, size, 1 if traced else size.train_setups)]
    layers = {}
    if traced:
        tracer = Tracer().install()
        try:
            passes.append(_pass(seed, seconds, size, 1))
        finally:
            tracer.uninstall()
        tracer.dump(spans_path)
        layers = _layers(tracer, passes[1], _summary(passes[0]))

    checks, attempted, failed = [], 0, 0
    for index, timed in enumerate(passes):
        label = "traced " if index else ""
        bad = sum(not math.isfinite(v) for v in timed["losses"])
        attempted += len(timed["epochs_ms"])
        failed += bad
        checks += [
            (f"{label}every loss is finite",
             bad == 0 and bool(timed["losses"]),
             f"{len(timed['losses']) - bad}/{len(timed['losses'])} finite"),
            (f"{label}no CLM forward while timed",
             timed["clm_forwards"] == 0,
             f"{timed['clm_forwards']} forwards"),
        ]
    result = passes[0]
    outcome = _summary(result)
    e2e = {
        "setup_s": common.percentile(result["setup_s"], 50),
        "throughput_per_s": outcome["throughput_per_s"],
        "latency_p50_ms": outcome["latency_p50_ms"],
        "latency_p90_ms": outcome["latency_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "epochs": len(result["epochs_ms"]), "calls": len(result["call_rates"]),
        "rows_per_epoch": result["rows"] // max(len(result["epochs_ms"]), 1),
        "setup_samples": [round(s, 4) for s in result["setup_s"]],
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

    def ms(rows):
        return common.percentile(trace.durations(rows), 50) / 1e6

    def training(name):
        """Root spans: the training step's, not the per-epoch evaluate()'s
        (whose forwards are children of ``core.evaluate``)."""
        rows = spans(name)
        return rows[rows[:, trace.PARENT] == -1]

    clip = trace.durations(spans("nn.clip"))
    step = trace.durations(spans("nn.adamw_step"))
    steps = clip[:len(step)] + step[:len(clip)]
    summary = _summary(timed)
    return {
        "core.teacher_forward_ms_p50": ms(training("core.teacher_forward")),
        "core.student_forward_ms_p50": ms(training("core.student_forward")),
        "core.pkd_loss_ms_p50": ms(spans("core.pkd_loss")),
        "core.store_gather_us_p50": ms(spans("core.store_gather")) * 1e3,
        "core.eval_ms_p50": ms(spans("core.evaluate")),
        "nn.backward_ms_p50": ms(spans("nn.backward")),
        "nn.optim_step_ms_p50": common.percentile(steps, 50) / 1e6,
        "llm.precompute_s": ms(spans("llm.precompute", False)) / 1e3,
        "llm.clm_forwards_timed": timed["clm_forwards"],
        "traced.throughput_per_s": summary["throughput_per_s"],
        "traced.latency_p50_ms": summary["latency_p50_ms"],
        "trace.overhead_pct": 100.0 * (untraced["throughput_per_s"]
                                       / summary["throughput_per_s"] - 1.0),
    }
