"""Metric catalogue: names, units, direction and what each should move.

``BENCHMARK.json`` at the repository root declares the same names and
units; ``perfbench/tests`` checks that the two agree.  Each per-layer
metric names the end-to-end metric and the workload it should move, so
a performance change can state its prediction before code is written.
"""

from __future__ import annotations

WORKLOADS = ("predict-http", "stream-durable", "train-distill")

#: (name, unit, better) — identical on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better, should move -> workload).  A workload that
#: does not run a layer reports that layer's metrics as 0.
PER_LAYER = (
    ("gateway.wire_ms_p50", "ms", "lower",
     "latency_p50_ms, throughput_per_s -> predict-http"),
    ("gateway.handler_us_p50", "us", "lower",
     "latency_p50_ms -> predict-http (once the wire stall is gone)"),
    ("gateway.refused_ratio", "ratio", "lower",
     "failure share -> predict-http"),
    ("serve.wait_us_p50", "us", "lower",
     "latency_p90_ms -> stream-durable; latency_p50_ms -> predict-http"),
    ("serve.batch_rows_mean", "rows", "higher",
     "throughput_per_s -> stream-durable"),
    ("serve.max_coalesced", "rows", "higher",
     "throughput_per_s -> stream-durable"),
    ("infer.forward_us_p50", "us", "lower",
     "throughput_per_s -> stream-durable (small share on predict-http)"),
    ("infer.forward_us_per_row", "us", "lower",
     "throughput_per_s -> stream-durable (small share on predict-http)"),
    ("infer.compile_ms", "ms", "lower",
     "setup_s -> predict-http, stream-durable"),
    ("infer.plan_rebuilds", "count", "lower",
     "throughput_per_s -> stream-durable"),
    ("stream.append_us_p50", "us", "lower",
     "throughput_per_s -> stream-durable"),
    ("stream.forecasts_per_tick", "ratio", "higher",
     "throughput_per_s -> stream-durable"),
    ("shard.route_us_p50", "us", "lower",
     "throughput_per_s -> stream-durable"),
    ("shard.tick_skew", "ratio", "lower",
     "latency_p90_ms -> stream-durable"),
    ("durable.wal_append_us_p50", "us", "lower",
     "throughput_per_s -> stream-durable"),
    ("durable.wal_bytes_per_tick", "bytes", "lower",
     "throughput_per_s -> stream-durable"),
    ("durable.checkpoint_ms_p50", "ms", "lower",
     "latency_p90_ms -> stream-durable"),
    ("durable.checkpoints", "count", "lower",
     "latency_p90_ms -> stream-durable"),
    ("durable.snapshot_mb", "MB", "lower",
     "latency_p90_ms -> stream-durable"),
    ("durable.recover_ms", "ms", "lower",
     "setup_s -> stream-durable"),
    ("core.teacher_forward_ms_p50", "ms", "lower",
     "latency_p50_ms, throughput_per_s -> train-distill"),
    ("core.student_forward_ms_p50", "ms", "lower",
     "latency_p50_ms, throughput_per_s -> train-distill"),
    ("core.pkd_loss_ms_p50", "ms", "lower",
     "latency_p50_ms, throughput_per_s -> train-distill"),
    ("core.store_gather_us_p50", "us", "lower",
     "throughput_per_s -> train-distill"),
    ("core.eval_ms_p50", "ms", "lower",
     "throughput_per_s -> train-distill"),
    ("nn.backward_ms_p50", "ms", "lower",
     "latency_p50_ms -> train-distill"),
    ("nn.optim_step_ms_p50", "ms", "lower",
     "latency_p50_ms -> train-distill"),
    ("llm.precompute_s", "s", "lower",
     "setup_s -> train-distill"),
    ("llm.clm_forwards_timed", "count", "lower",
     "setup_s -> train-distill (must stay 0)"),
    ("traced.throughput_per_s", "1/s", "higher",
     "the traced pass's own throughput_per_s"),
    ("traced.latency_p50_ms", "ms", "lower",
     "the traced pass's own latency_p50_ms"),
    ("trace.overhead_pct", "%", "lower",
     "untraced over traced throughput in the same run, minus 100"),
    ("machine.ref_gemm_ms_before", "ms", "lower",
     "diagnostic only: box speed before the run"),
    ("machine.ref_gemm_ms_after", "ms", "lower",
     "diagnostic only: box speed after the run"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _, _ in PER_LAYER})


def report(values: dict, names) -> dict:
    """``{name: {"value", "unit"}}`` for ``names``; absent layers read 0."""
    return {name: {"value": float(values.get(name, 0.0)),
                   "unit": UNITS[name]} for name in names}


def end_to_end_names() -> list[str]:
    return [name for name, _, _ in END_TO_END]


def per_layer_names() -> list[str]:
    return [name for name, _, _, _ in PER_LAYER]
