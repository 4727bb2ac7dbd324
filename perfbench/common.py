"""Shared pieces: sizes, generated inputs, statistics, machine probes."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass

import numpy as np

HISTORY = 96
HORIZON = 24
NUM_VARIABLES = 7
DATASET = "ETTm1"

#: Student/teacher shapes of ``BENCH_SCALE`` in benchmarks/conftest.py,
#: pinned here so the benchmark's workload cannot drift with that file.
BENCH_SHAPES = dict(d_model=32, num_heads=2, num_layers=1, ffn_dim=64)
BENCH_TRAIN = dict(data_length=700, epochs=10, teacher_epochs=5,
                   batch_size=16, max_batches=8, llm_pretrain_steps=60,
                   prompt_value_stride=8)

#: Fixed GEMM loop for ``machine.ref_gemm_ms`` (not gated).
_GEMM_N = 64
_GEMM_LOOPS = 4000


@dataclass(frozen=True)
class Size:
    """Workload sizes.  ``bench`` is what BENCHMARK.json runs; ``tiny``
    only exists so the benchmark's own tests finish in seconds."""

    http_setups: int     # set-ups per run; setup_s is their median
    stream_setups: int
    train_setups: int
    warmup_s: float      # untimed warm-up before the timed phase
    http_pool: int       # distinct request windows (predict-http)
    series: int          # live series (stream-durable)
    checkpoint_every: int
    train_length: int    # synthetic ETTm1 rows (train-distill)
    train_epochs: int    # joint epochs per timed train_joint() call
    samples: int         # outputs checked bitwise per run


SIZES = {
    "bench": Size(http_setups=7, stream_setups=5, train_setups=3,
                  warmup_s=1.0, http_pool=64, series=256,
                  checkpoint_every=4096,
                  train_length=BENCH_TRAIN["data_length"],
                  train_epochs=BENCH_TRAIN["epochs"], samples=32),
    "tiny": Size(http_setups=1, stream_setups=1, train_setups=1,
                 warmup_s=0.2, http_pool=8, series=32,
                 checkpoint_every=512, train_length=400, train_epochs=2,
                 samples=4),
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ref_gemm_ms() -> float:
    """Wall time of a fixed float32 64x64 GEMM loop (box drift probe)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((_GEMM_N, _GEMM_N)).astype(np.float32)
    b = rng.standard_normal((_GEMM_N, _GEMM_N)).astype(np.float32)
    out = np.empty_like(a)
    start = time.perf_counter()
    for _ in range(_GEMM_LOOPS):
        np.matmul(a, b, out=out)
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set in MB of ``pid`` (this process when None)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def scaled_series(seed: int, length: int) -> np.ndarray:
    """Z-scaled synthetic ETTm1 rows ``(length, 7)``; the seed shifts
    the generator through the dataset's ``seed_offset``."""
    from repro.data import StandardScaler, load_dataset

    values = load_dataset(DATASET, length=length,
                          seed_offset=seed).values.astype(np.float64)
    return StandardScaler().fit(values).transform(values)


def make_artifact(directory: str) -> str:
    """Write the one ETTm1 h24 96x7 student bundle the servers load.

    The weights come from a fixed initialisation seed: the workloads
    time the serving path, whose cost does not depend on the values.
    """
    from repro.core import TimeKDConfig
    from repro.core.student import StudentModel
    from repro.data import StandardScaler
    from repro.nn import init as nn_init
    from repro.serve import save_student_artifact

    os.makedirs(directory, exist_ok=True)
    config = TimeKDConfig(history_length=HISTORY, horizon=HORIZON,
                          num_variables=NUM_VARIABLES, **BENCH_SHAPES)
    nn_init.seed_everything(0)
    student = StudentModel(config)
    student.eval()
    scaler = StandardScaler().fit(scaled_series(0, 512))
    path = os.path.join(directory, "ettm1-h24.npz")
    save_student_artifact(path, student, config, scaler=scaler,
                          metadata={"dataset": DATASET})
    return path


def same_bits(a, b) -> bool:
    """Bitwise equality of two arrays (dtype, shape and bytes)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())
