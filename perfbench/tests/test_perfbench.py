"""The benchmark's own tests: tiny-size smoke runs and a planted slowdown.

The smoke runs go through the real command (``perfbench/run.py``) at
``--size tiny``; the slowdown test calls the workloads in-process so it
can wrap ``CompiledStudent.predict`` in this process.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

from perfbench import common, metrics, stream_durable, train_distill

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TINY = common.SIZES["tiny"]


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(
        metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _run(workload: str, trace: int) -> list[str]:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout.strip().splitlines()


def _assert_named(reported: dict, names) -> None:
    assert sorted(reported) == sorted(names)
    for name in names:
        assert reported[name]["unit"] == metrics.UNITS[name], name
        assert isinstance(reported[name]["value"], float), name


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    lines = _run(workload, trace=1)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_named(result["metrics"], metrics.per_layer_names())
    e2e = json.loads(next(line for line in lines
                          if line.startswith("end_to_end "))[11:])
    _assert_named(e2e, metrics.end_to_end_names())
    for name in metrics.end_to_end_names():
        assert e2e[name]["value"] > 0, name


def test_untraced_run_prints_the_end_to_end_metrics():
    result = json.loads(_run("stream-durable", trace=0)[-1])
    assert result["correct"] is True
    _assert_named(result["metrics"], metrics.end_to_end_names())


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict-http",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def _alternate(segment, patch, pairs: int) -> dict:
    """Run ``segment()`` alternately with and without ``patch`` applied,
    swapping the order every pair so drift of the box cancels."""
    rates = {False: [], True: []}
    for pair in range(pairs):
        for slow in ((False, True) if pair % 2 == 0 else (True, False)):
            with patch(slow):
                rates[slow].append(segment())
    return {slow: statistics.median(r) for slow, r in rates.items()}


def test_planted_2x_forward_slowdown_moves_only_stream_durable(tmp_path):
    """A 2x slower compiled forward must lower stream-durable throughput
    and leave train-distill, which never runs it, unmoved."""
    from repro.infer.engine import CompiledStudent

    original = CompiledStudent.predict
    calls = []

    def twice(self, history):
        calls.append(1)
        original(self, history)
        return original(self, history)

    @contextlib.contextmanager
    def patch(slow: bool):
        CompiledStudent.predict = twice if slow else original
        try:
            yield
        finally:
            CompiledStudent.predict = original

    artifacts = str(tmp_path / "artifacts")
    common.make_artifact(artifacts)
    inputs = stream_durable.Inputs(7, TINY.series)
    source = str(tmp_path / "first-life")
    seq = stream_durable._first_life(artifacts, source, inputs, TINY)
    life = stream_durable.Life(
        artifacts, source, str(tmp_path / "life"), inputs, TINY, seq,
        inputs.window(0, inputs.warm[0] - 1))
    rng = np.random.default_rng(0)
    try:
        assert life.recovered, life.recovery

        def stream_segment() -> float:
            timed = stream_durable._rounds(life, inputs, 0.4, rng)
            assert timed["failed"] == 0
            return timed["ticks"] * 1e9 / (timed["t1"] - timed["t0"])

        stream = _alternate(stream_segment, patch, pairs=8)
    finally:
        life.close()
    assert calls, "stream-durable never reached the compiled forward"
    assert stream[True] < 0.95 * stream[False], stream

    job = train_distill.Job(7, TINY)
    job.warm_up()

    def train_segment() -> float:
        timed = job.timed(0.4)
        return timed["rows"] * 1e9 / (timed["t1"] - timed["t0"])

    calls.clear()
    train = _alternate(train_segment, patch, pairs=4)
    assert not calls, "train-distill must not run the compiled forward"
    assert 0.8 < train[True] / train[False] < 1.25, train
