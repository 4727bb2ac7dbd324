"""Spans around the public calls of the runtime packages.

The tracer wraps functions from the outside (no program source
changes): each wrapped call records a span with name, start, end,
parent and request id.  Spans live in memory, one row of int64 columns
each (a 20 s stream-durable pass records over a million), and are
written out as JSON lines when the run ends.  A span's self time is
its duration minus the time its child spans cover.

Request ids: a root span takes the ``rid`` field of a gateway request
body when there is one (so client and server records line up), else a
fresh id; child spans inherit their parent's id.  Future hand-offs are
recorded separately as waits: ``ForecastService.submit`` return →
future resolved, with the duration of the batch forward that resolved
it, taken in the service thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from array import array

import numpy as np

_now = time.perf_counter_ns

#: (span name, module, class or None for a module function, attribute).
#: Module functions are patched where the caller looks them up.
TARGETS = (
    ("gateway.predict", "repro.gateway.app", "Gateway", "predict"),
    ("serve.submit", "repro.serve.service", "ForecastService", "submit"),
    ("infer.predict", "repro.infer.engine", "CompiledStudent", "predict"),
    ("infer.compile", "repro.infer.engine", "CompiledStudent", "__init__"),
    ("stream.append", "repro.stream.forecaster", "StreamingForecaster",
     "append"),
    ("shard.append", "repro.shard.stream", "ShardedStreamingForecaster",
     "append"),
    ("durable.recover", "repro.shard.stream", "ShardedStreamingForecaster",
     "restore_from"),
    ("durable.wal_append", "repro.durable.wal", "TickWAL", "append"),
    ("durable.checkpoint", "repro.durable.snapshot", "StreamSnapshotter",
     "checkpoint"),
    ("core.teacher_forward", "repro.core.teacher", "CrossModalityTeacher",
     "forward"),
    ("core.student_forward", "repro.core.student", "StudentModel",
     "forward"),
    ("core.pkd_loss", "repro.core.trainer", None, "pkd_loss"),
    ("core.store_gather", "repro.core.store", "EmbeddingStore",
     "get_batch"),
    ("core.evaluate", "repro.core.trainer", "TimeKDTrainer", "evaluate"),
    ("llm.precompute", "repro.core.trainer", "TimeKDTrainer",
     "prepare_embeddings"),
    ("nn.backward", "repro.nn.tensor", "Tensor", "backward"),
    ("nn.adamw_step", "repro.nn.optim", "AdamW", "step"),
    ("nn.clip", "repro.core.trainer", None, "clip_grad_norm"),
)
NAMES = [name for name, _, _, _ in TARGETS]

#: Columns of a span row; NAME and PARENT_NAME index ``NAMES`` (-1: none).
(INDEX, NAME, PARENT, PARENT_NAME, RID, START, END, SELF,
 EXTRA) = range(9)
_WIDTH = 9
#: Spans and waits written out per run (the first ones recorded).
DUMP_LIMIT = 100_000


class Tracer:
    """Installs span wrappers; keeps spans and future waits in memory."""

    def __init__(self):
        self._rows = array("q")
        #: (rid, submit_end_ns, done_ns, forward_ns or None)
        self.waits: list[tuple] = []
        self._local = threading.local()
        self._indices = itertools.count()
        self._rids = itertools.count(-1, -1)  # never clash with client ids
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, code: int, fn):
        hooks = _HOOKS.get(NAMES[code], _NO_HOOKS)
        local, rows = self._local, self._rows
        indices, rids = self._indices, self._rids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = hooks.before(args) if hooks.before else None
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            rid = hooks.rid(args) if hooks.rid else None
            if rid is None:
                rid = parent[4] if parent is not None else next(rids)
            # [index, name, parent index, parent name, rid, start, child]
            span = [next(indices), code,
                    parent[0] if parent is not None else -1,
                    parent[1] if parent is not None else -1, rid, 0, 0]
            stack.append(span)
            result, returned = None, False
            span[5] = _now()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - span[5]
                if stack:
                    stack[-1][6] += duration
                extra = (hooks.extra(args, result, pre)
                         if hooks.extra and returned else -1)
                # One extend per span: atomic under the interpreter lock,
                # so rows from different threads never interleave.
                rows.extend((span[0], code, span[2], span[3], rid, span[5],
                             end, duration - span[6], extra))
                if hooks.after and returned:
                    hooks.after(tracer, rid, end, duration, result)

        return wrapper

    def install(self) -> "Tracer":
        for code, (_, module_name, owner_name, attr) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(code, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _future_done(self, rid, submit_end, submit_thread, future) -> None:
        done = _now()
        forward = None
        if threading.get_ident() != submit_thread:
            # Resolved in the service thread right after its forward.
            forward = getattr(self._local, "last_forward", None)
        self.waits.append((rid, submit_end, done, forward))

    # -- reading ----------------------------------------------------------
    def table(self) -> np.ndarray:
        """All span rows as an ``(n, 9)`` int64 array (a copy)."""
        return np.array(self._rows, dtype=np.int64).reshape(-1, _WIDTH)

    def select(self, name: str, t0: int = 0, t1: int | None = None,
               table: np.ndarray | None = None) -> np.ndarray:
        """Rows of the spans named ``name`` lying inside ``[t0, t1]``."""
        table = self.table() if table is None else table
        keep = (table[:, NAME] == NAMES.index(name)) & (table[:, START] >= t0)
        if t1 is not None:
            keep &= table[:, END] <= t1
        return table[keep]

    def dump(self, path: str) -> None:
        """Write the first spans, then the first waits, as JSON lines."""
        from repro.persist import atomic_write_text

        lines = [json.dumps({
            "span": NAMES[row[NAME]], "index": row[INDEX],
            "parent": row[PARENT], "rid": row[RID], "start_ns": row[START],
            "end_ns": row[END], "self_ns": row[SELF], "extra": row[EXTRA]})
            for row in self.table()[:DUMP_LIMIT].tolist()]
        lines += [json.dumps({
            "wait": "serve.future", "rid": rid, "submit_end_ns": submit_end,
            "done_ns": done, "forward_ns": forward})
            for rid, submit_end, done, forward in self.waits[:DUMP_LIMIT]]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        atomic_write_text(path, "\n".join(lines) + "\n")


def durations(rows: np.ndarray) -> np.ndarray:
    return rows[:, END] - rows[:, START]


def load(path: str) -> tuple[list[dict], list[dict]]:
    """Read a :meth:`Tracer.dump` file back as (spans, waits)."""
    spans, waits = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            (spans if "span" in record else waits).append(record)
    return spans, waits


# -- per-target hooks ------------------------------------------------------
class _Hooks:
    __slots__ = ("rid", "before", "extra", "after")

    def __init__(self, rid=None, before=None, extra=None, after=None):
        self.rid, self.before = rid, before
        self.extra, self.after = extra, after


_NO_HOOKS = _Hooks()


def _gateway_rid(args):
    payload = args[2] if len(args) > 2 else None
    rid = payload.get("rid") if isinstance(payload, dict) else None
    return rid if isinstance(rid, int) else None


def _after_submit(tracer, rid, end, duration, future):
    future.add_done_callback(functools.partial(
        tracer._future_done, rid, end, threading.get_ident()))


def _after_forward(tracer, rid, end, duration, result):
    tracer._local.last_forward = duration


_HOOKS = {
    "gateway.predict": _Hooks(rid=_gateway_rid),
    "serve.submit": _Hooks(after=_after_submit),
    "infer.predict": _Hooks(extra=lambda args, result, pre: len(result),
                            after=_after_forward),
    "durable.wal_append": _Hooks(
        before=lambda args: args[0].durable_size,
        extra=lambda args, result, pre: args[0].durable_size - pre),
    "durable.checkpoint": _Hooks(
        extra=lambda args, path, pre: os.path.getsize(path)),
}
