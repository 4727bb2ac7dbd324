"""predict-http: ``repro gateway`` in its own process, closed-loop load.

The server runs with CLI defaults (compiled engine, ``--max-batch 64``)
over one ETTm1 h24 96x7 artifact, with keys generous enough that
nothing is refused.  One generator process (this one) drives it with
two keep-alive ``http.client`` connections in a closed loop: each
connection sends its next ``POST /v1/predict`` only when the previous
response has been read, so ``throughput_per_s`` is a measured capacity
and, by Little's law, throughput x mean latency stays at the two
requests in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from . import common, trace

CONNECTIONS = 2
API_KEY = "k-bench"
#: Every ``SAMPLE_EVERY``-th response per connection is kept for the
#: bitwise check against in-process ``ForecastService.predict``.
SAMPLE_EVERY = 16
_LISTENING = re.compile(r"listening on (http://\S+)")


class Server:
    """One gateway process; its output is drained by a thread."""

    def __init__(self, command: list[str], cwd: str, env: dict):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: list[str] = []
        self.url = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout=120) or self.url is None:
            self.stop()
            raise RuntimeError("gateway did not start:\n"
                               + "".join(self.lines[-20:]))
        host_port = self.url.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()  # EOF: the process is gone

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/v1/stats",
                         headers={"Authorization": f"Bearer {API_KEY}"})
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"/v1/stats answered {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def stop(self) -> int | None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode


def _post(conn, body: bytes):
    conn.request("POST", "/v1/predict", body=body, headers={
        "Authorization": f"Bearer {API_KEY}",
        "Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _body(rid: int, history: bytes) -> bytes:
    return b'{"rid": %d, "history": %s}' % (rid, history)


class Load:
    """Closed-loop load from ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, server: Server, histories: list[bytes], seed: int):
        self.server = server
        self.histories = histories
        self.seed = seed
        self.next_rid = 1

    def run(self, seconds: float, keep_samples: bool) -> dict:
        records: list[list] = [[] for _ in range(CONNECTIONS)]
        samples: list[list] = [[] for _ in range(CONNECTIONS)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(CONNECTIONS + 1)
        base_rid = self.next_rid
        start_ns = [0]

        def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, base_rid, index])
            conn = self.server.connect()
            out, kept = records[index], samples[index]
            rid = base_rid + index
            try:
                barrier.wait()
                deadline = start_ns[0] + int(seconds * 1e9)
                count = 0
                while time.perf_counter_ns() < deadline:
                    window = int(rng.integers(len(self.histories)))
                    body = _body(rid, self.histories[window])
                    sent = time.perf_counter_ns()
                    try:
                        status, payload = _post(conn, body)
                    except (OSError, http.client.HTTPException):
                        status, payload = -1, b""
                        conn.close()
                        conn = self.server.connect()
                    done = time.perf_counter_ns()
                    out.append((rid, window, sent, done, status))
                    if keep_samples and count % SAMPLE_EVERY == 0:
                        kept.append((window, status, payload))
                    rid += CONNECTIONS
                    count += 1
            except BaseException as error:  # reported by the caller
                errors.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        start_ns[0] = time.perf_counter_ns()
        barrier.wait()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        flat = [r for part in records for r in part]
        self.next_rid = max([r[0] for r in flat] + [base_rid]) + 1
        end_ns = max([r[3] for r in flat] + [start_ns[0] + 1])
        return {"records": flat, "t0": start_ns[0], "t1": end_ns,
                "samples": [s for part in samples for s in part]}


def _summary(result: dict) -> dict:
    ok = [r for r in result["records"] if r[4] == 200]
    latencies = [(r[3] - r[2]) / 1e6 for r in ok]
    elapsed = (result["t1"] - result["t0"]) / 1e9
    throughput = len(ok) / elapsed
    return {
        "throughput_per_s": throughput,
        "latency_p50_ms": common.percentile(latencies, 50),
        "latency_p90_ms": common.percentile(latencies, 90),
        "in_flight": throughput * (float(np.mean(latencies)) / 1e3
                                   if latencies else 0.0),
        "attempted": len(result["records"]),
        "failed": len(result["records"]) - len(ok),
        "samples": len(latencies),
    }


def _prepare(workdir: str, seed: int, size: common.Size):
    from repro.gateway import write_keys_file

    artifacts = os.path.join(workdir, "artifacts")
    common.make_artifact(artifacts)
    keys = os.path.join(workdir, "keys.json")
    write_keys_file(keys, {API_KEY: {"tenant": "bench", "units": 10**15,
                                     "rate": 1e12, "burst": 1e12}})
    rng = np.random.default_rng(seed)
    values = common.scaled_series(seed, 2048)
    starts = rng.choice(len(values) - common.HISTORY, size=size.http_pool,
                        replace=False)
    windows = np.stack([values[s:s + common.HISTORY]
                        for s in starts]).astype(np.float32)
    histories = [json.dumps(w.tolist()).encode("utf-8") for w in windows]
    return artifacts, keys, windows, histories


def _command(root: str, artifacts: str, keys: str, spans: str | None):
    gateway = ["gateway", "--artifacts", artifacts, "--keys", keys,
               "--port", "0"]
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *gateway]
    launcher = os.path.join(root, "perfbench", "gateway_launcher.py")
    return [sys.executable, launcher, spans, *gateway]


def _setup(root, env, command, first_body) -> tuple[Server, float]:
    """Spawn a gateway; set-up ends at its first 200 forecast."""
    server = Server(command, root, env)
    try:
        conn = server.connect()
        try:
            status, _ = _post(conn, first_body)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"first forecast answered {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.spawned


def _pass(server: Server, histories, seed, seconds, warmup_s,
          keep_samples: bool) -> dict:
    load = Load(server, histories, seed)
    load.run(warmup_s, keep_samples=False)
    before = server.stats()
    result = load.run(seconds, keep_samples=keep_samples)
    after = server.stats()
    result["stats"] = (before, after)
    result["peak_rss_mb"] = common.peak_rss_mb(server.proc.pid)
    return result


def run(root: str, workdir: str, seed: int, seconds: float,
        size: common.Size, traced: bool, spans_path: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), env.get("PYTHONPATH", "")]).rstrip(
            os.pathsep)
    artifacts, keys, windows, histories = _prepare(workdir, seed, size)
    first_body = _body(0, histories[0])
    plain = _command(root, artifacts, keys, None)

    setups, server = [], None
    try:
        for _ in range(1 if traced else size.http_setups):
            if server is not None:
                server.stop()
                server = None
            server, seconds_to_first = _setup(root, env, plain, first_body)
            setups.append(seconds_to_first)
        result = _pass(server, histories, seed, seconds, size.warmup_s,
                       keep_samples=True)
    finally:
        if server is not None:
            server.stop()

    outcome = _summary(result)
    samples = list(result["samples"])
    traced_result = None
    layers = {}
    if traced:
        server, _ = _setup(root, env,
                           _command(root, artifacts, keys, spans_path),
                           first_body)
        try:
            traced_result = _pass(server, histories, seed, seconds,
                                  size.warmup_s, keep_samples=True)
        finally:
            server.stop()
        samples += traced_result["samples"]
        layers = _layers(traced_result, spans_path, outcome)

    checks, failed_samples = _check(artifacts, windows, samples, size)
    e2e = {
        "setup_s": common.percentile(setups, 50),
        "throughput_per_s": outcome["throughput_per_s"],
        "latency_p50_ms": outcome["latency_p50_ms"],
        "latency_p90_ms": outcome["latency_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted = outcome["attempted"]
    failed = outcome["failed"]
    if traced_result is not None:
        traced_outcome = _summary(traced_result)
        attempted += traced_outcome["attempted"]
        failed += traced_outcome["failed"]
    notes = {
        "connections": CONNECTIONS,
        "little_in_flight": round(outcome["in_flight"], 4),
        "latency_samples": outcome["samples"],
        "setup_samples": [round(s, 4) for s in setups],
        "bitwise_samples": len(samples),
    }
    checks += [
        ("no refused or failed request", failed == 0,
         f"{failed} of {attempted}"),
        # A closed loop keeps every connection busy: throughput is then a
        # capacity, not the rate the client chose to offer.
        ("Little's law: throughput x mean latency = connections (+-10%)",
         abs(outcome["in_flight"] - CONNECTIONS) <= 0.1 * CONNECTIONS,
         f"{outcome['in_flight']:.3f} in flight"),
    ]
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed + failed_samples, "checks": checks,
            "notes": notes}


def _check(artifacts, windows, samples, size):
    """Bitwise: HTTP forecasts == in-process ForecastService.predict."""
    from repro.serve import ForecastService

    chosen = samples[: max(size.samples, 1)]
    mismatched = 0
    with ForecastService(artifacts, engine="compiled",
                         max_batch=64) as service:
        for window, status, payload in chosen:
            if status != 200:
                mismatched += 1
                continue
            served = np.asarray(json.loads(payload)["forecast"],
                                dtype=np.float32)
            direct = service.predict(windows[window])
            if not common.same_bits(served, direct):
                mismatched += 1
    return ([("HTTP forecast == in-process predict (bitwise)",
              bool(chosen) and mismatched == 0,
              f"{len(chosen) - mismatched}/{len(chosen)} equal")],
            mismatched)


def _delta(before: dict, after: dict, section: str, field: str) -> int:
    return int(after[section][field]) - int(before[section][field])


def _layers(result: dict, spans_path: str, untraced: dict) -> dict:
    spans, waits = trace.load(spans_path)
    t0, t1 = result["t0"], result["t1"]
    timed = [s for s in spans
             if s["end_ns"] and s["start_ns"] >= t0 and s["end_ns"] <= t1]

    def named(name):
        return [s for s in timed if s["span"] == name]

    predicts = {s["rid"]: s for s in named("gateway.predict")}
    wait_of = {w["rid"]: w["done_ns"] - w["submit_end_ns"] for w in waits}
    wire, handler = [], []
    for rid, _, sent, done, status in result["records"]:
        span = predicts.get(rid)
        if status == 200 and span is not None:
            wire.append((done - sent - (span["end_ns"] - span["start_ns"]))
                        / 1e6)
    for rid, span in predicts.items():
        if rid in wait_of:
            handler.append((span["self_ns"] - wait_of[rid]) / 1e3)
    serve_wait = [(w["done_ns"] - w["submit_end_ns"] - w["forward_ns"]) / 1e3
                  for w in waits if w["forward_ns"] is not None
                  and w["submit_end_ns"] >= t0 and w["done_ns"] <= t1]
    forwards = named("infer.predict")
    rows = sum(s["extra"] or 0 for s in forwards)
    forward_ns = [s["end_ns"] - s["start_ns"] for s in forwards]
    compiles = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
                if s["span"] == "infer.compile" and s["end_ns"]]

    before, after = result["stats"]
    gateway_refused = sum(
        _delta(before, after, "gateway", field) for field in (
            "shed_quota", "shed_rate", "shed_saturated", "unauthorized",
            "invalid", "errors"))
    batches = _delta(before, after, "service", "batches")
    summary = _summary(result)
    return {
        "gateway.wire_ms_p50": common.percentile(wire, 50),
        "gateway.handler_us_p50": common.percentile(handler, 50),
        "gateway.refused_ratio": gateway_refused / max(
            summary["attempted"], 1),
        "serve.wait_us_p50": common.percentile(serve_wait, 50),
        "serve.batch_rows_mean": _delta(before, after, "service", "served")
        / max(batches, 1),
        "serve.max_coalesced": after["service"]["max_coalesced"],
        "infer.forward_us_p50": common.percentile(forward_ns, 50) / 1e3,
        "infer.forward_us_per_row": sum(forward_ns) / 1e3 / max(rows, 1),
        "infer.compile_ms": common.percentile(compiles, 50),
        "infer.plan_rebuilds": _delta(before, after, "service",
                                      "plan_rebuilds")
        + _delta(before, after, "service", "plan_misses"),
        "traced.throughput_per_s": summary["throughput_per_s"],
        "traced.latency_p50_ms": summary["latency_p50_ms"],
        "trace.overhead_pct": 100.0 * (untraced["throughput_per_s"]
                                       / summary["throughput_per_s"] - 1.0),
    }
