"""``serve-mixed``: mixed warm/cold plan traffic against the plan service.

The service runs in its own process with the ``lenet-digits`` and
``convnet-cifar`` engines.  Two keep-alive clients in this process run a
closed loop (each sends its next request when the last one returns).
90% of requests are warm POSTs drawn from a primed hot set of 8 bodies
across both engines; 10% are cold POSTs whose ``read_time`` is drawn
log-uniformly over [1 s, 1 y], so each resolves a variance map and an
order and writes a cache artifact beside the reads.  The workload
bypasses the Monte Carlo engine, the cim simulator and the nn kernels
(apart from each engine's one curvature pass while priming).
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import zlib

from layers import layer_metrics
from stats import median, peak_rss, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ENGINES = {"lenet-digits": 4, "convnet-cifar": 6}  # workload -> weight bits
HOT_SET = 8
COLD_SHARE = 0.10
CLIENTS = 2
READ_TIME_RANGE = (1.0, 3.1536e7)  # 1 s .. 1 year
VERIFY_COLD_SAMPLE = 16
MEMORY_ITEMS = 64


def _body(workload, read_time):
    return {
        "workload": workload,
        "methods": ["swim", "hetero_swim", "magnitude"],
        "nwc_targets": [0.1, 0.3, 0.5, 0.7, 0.9],
        "technology": "pcm-comp",
        "read_time": read_time,
        "weight_bits": ENGINES[workload],
    }


def _read_time(rng):
    low, high = (math.log(v) for v in READ_TIME_RANGE)
    return math.exp(rng.uniform(low, high))


def generate(seed, per_client=50000):
    """The hot set and each client's request sequence, from the seed alone.

    A sequence entry is ``("warm", hot index)`` or ``("cold", body)``.
    The mix is the same for every seed: each client's every tenth request
    is cold, the clients' cold slots are half a period apart, and each
    client's cold requests alternate between the engines, starting on
    different ones.  A cold POST costs about a hundred warm ones, so a
    drawn mix would move the figures from seed to seed.  The seed draws
    the hot set, each warm request's hot body and each cold read time.
    """
    rng = random.Random(seed)
    workloads = sorted(ENGINES)
    hot = [_body(workloads[i % len(workloads)], _read_time(rng))
           for i in range(HOT_SET)]
    period = round(1 / COLD_SHARE)
    sequences = []
    for client in range(CLIENTS):
        cold_slot = (period - 1 + client * period // CLIENTS) % period
        sequence = []
        for index in range(per_client):
            if index % period == cold_slot:
                workload = workloads[(index // period + client) % len(workloads)]
                sequence.append(("cold", _body(workload, _read_time(rng))))
            else:
                sequence.append(("warm", rng.randrange(HOT_SET)))
        sequences.append(sequence)
    return hot, sequences


class Server:
    """The plan service in a child process (``child.py serve``)."""

    def __init__(self, tmp, env, trace_path=None):
        self.cache_dir = os.path.join(tmp, "serve-cache")
        self.port_file = os.path.join(tmp, "serve.port")
        self.log = open(os.path.join(tmp, "serve.log"), "wb")
        command = [sys.executable, os.path.join(HERE, "child.py"), "serve",
                   "--cache", self.cache_dir, "--port-file", self.port_file]
        if trace_path:
            command += ["--trace", trace_path]
        # A long-lived server bounds its cache's memory tier; evicted
        # artifacts fall back to disk.
        self.proc = subprocess.Popen(
            command, env=dict(env, REPRO_CACHE_DIR=self.cache_dir,
                              REPRO_CACHE_MEM_ITEMS=str(MEMORY_ITEMS)),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.port = None

    def wait_ready(self, timeout=150):
        """Block until ``/healthz`` answers; returns the port."""
        from repro.serve import PlanClient, PlanClientError

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}")
            if self.port is None and os.path.exists(self.port_file):
                with open(self.port_file, encoding="utf-8") as handle:
                    self.port = int(handle.read())
            if self.port is not None:
                try:
                    with PlanClient(port=self.port, timeout=5) as client:
                        if client.healthz():
                            return self.port
                except PlanClientError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def signal(self, signum):
        self.proc.send_signal(signum)

    def stop(self, timeout=60):
        """SIGTERM (drain), wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def _client_loop(port, hot, hot_bytes, sequence, barrier, deadline_box, records,
                 tracer=None, parent=None):
    """One closed-loop client; appends one record per request."""
    from repro.serve import PlanClient, PlanClientError

    with PlanClient(port=port, timeout=60) as client:
        barrier.wait()
        deadline = deadline_box[0]
        for kind, item in sequence:
            if time.perf_counter() >= deadline:
                return
            body = hot[item] if kind == "warm" else item
            began = time.perf_counter()
            mono = time.monotonic()
            try:
                response = client.plan(body)
                error = None
            except PlanClientError as exc:
                response, error = None, str(exc)
            latency = time.perf_counter() - began
            if tracer is not None:
                tracer.record_span("serve.request", mono, latency, parent=parent,
                                   kind=kind)
            record = {"kind": kind, "latency": latency,
                      "server_ms": client.last_server_ms, "error": error}
            if response is not None:
                if kind == "warm":
                    if response.source != "warm" or response.data != hot_bytes[item]:
                        record["error"] = f"warm reply {response.source} differs"
                else:
                    if response.source != "cold":
                        record["error"] = f"cold request served {response.source}"
                    record.update(body=body, key=response.key,
                                  crc=zlib.crc32(response.data),
                                  size=len(response.data))
            records.append(record)


def _window(port, hot, hot_bytes, sequences, seconds, tracer=None):
    """Run the clients for ``seconds``.

    Returns each client's records, the window's wall time, and (when
    tracing) the window's root span record.
    """
    barrier = threading.Barrier(CLIENTS + 1)
    deadline_box = [0.0]
    per_client = [[] for _ in range(CLIENTS)]
    parent = None
    if tracer is not None:
        parent = f"{os.getpid():x}-window-{time.monotonic_ns()}"
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, hot, hot_bytes, sequences[i], barrier, deadline_box,
                  per_client[i], tracer, parent),
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    deadline_box[0] = time.perf_counter() + seconds
    mono = time.monotonic()
    began = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    wall = time.perf_counter() - began
    root = None
    if tracer is not None:
        root = {"name": "bench.serve_window", "id": parent, "parent": None,
                "start": mono, "dur": wall, "pid": os.getpid(), "attrs": {}}
    return per_client, wall, root


def _direct_check(records, hot, hot_bytes, seed, tally):
    """Served bytes == a direct memory-only ``PlanEngine`` resolution.

    Every hot body is checked (every warm reply already equals one of
    them byte for byte); cold replies are checked on a seeded sample,
    since re-resolving all of them costs as much as the workload.
    """
    from repro.plan import PlanArtifactCache
    from repro.plan.engine import build_engine
    from repro.serve import parse_plan_request, plan_bytes
    from repro.serve.codec import plan_config, split_plan_route

    engines = {}

    def resolve(body):
        (workload, _), remainder = split_plan_route(json.dumps(body).encode())
        if workload not in engines:
            engines[workload] = build_engine(
                workload, scale="smoke", cache=PlanArtifactCache(disk=False))
        engine = engines[workload]
        request = parse_plan_request(remainder)
        key = engine.cache.key("plan", plan_config(engine, request))
        return key, plan_bytes(engine.plan(request))

    for index, body in enumerate(hot):
        _, data = resolve(body)
        tally.check(data == hot_bytes[index],
                    f"hot body {index} differs from a direct resolution")
    cold = [r for r in records if r["kind"] == "cold" and "crc" in r]
    sample = random.Random(seed).sample(cold, min(VERIFY_COLD_SAMPLE, len(cold)))
    for record in sample:
        key, data = resolve(record["body"])
        tally.check(
            key == record["key"] and len(data) == record["size"]
            and zlib.crc32(data) == record["crc"],
            f"cold plan {record['key']} differs from a direct resolution",
        )
    return len(sample)


def run_serve_workload(seed, seconds, trace, tmp, env, tally):
    """Measure ``serve-mixed``; returns the benchmark's result dict."""
    from repro.obs import TRACER
    from repro.serve import PlanClient, PlanClientError

    hot, sequences = generate(seed)
    out = {"lines": []}
    trace_path = os.path.join(tmp, "serve-spans.jsonl") if trace else None
    began = time.perf_counter()
    server = Server(tmp, env, trace_path=trace_path)
    # The direct check loads the zoo the server trained.
    os.environ["REPRO_CACHE_DIR"] = server.cache_dir
    try:
        port = server.wait_ready()
        hot_bytes = []
        with PlanClient(port=port, timeout=60) as client:
            for body in hot:
                response = client.plan(body)
                tally.check(response.source == "cold",
                            f"priming served {response.source}")
                hot_bytes.append(response.data)
        setup_s = time.perf_counter() - began

        if trace:
            server.signal(signal.SIGUSR1)  # server tracing off
            time.sleep(0.2)
            first, untraced_wall, _ = _window(
                port, hot, hot_bytes, sequences, seconds / 2)
            server.signal(signal.SIGUSR1)  # and on again
            time.sleep(0.2)
            TRACER.enable()
            # Each client continues its own sequence, so no cold body repeats.
            rest = [seq[len(done):] for seq, done in zip(sequences, first)]
            second, wall, root = _window(port, hot, hot_bytes, rest,
                                         seconds / 2, tracer=TRACER)
            TRACER.disable()
            untraced = [r for client in first for r in client]
            records = [r for client in second for r in client]
        else:
            first, wall, _ = _window(port, hot, hot_bytes, sequences, seconds)
            records = [r for client in first for r in client]
            untraced, untraced_wall = records, wall

        with PlanClient(port=port, timeout=60) as client:
            stats = client.statsz()
    except (PlanClientError, RuntimeError) as exc:
        tally.check(False, f"serve-mixed aborted: {exc}")
        return out
    finally:
        code = server.stop()
    tally.check(code == 0, f"server exited {code} after SIGTERM")
    rss_mb = peak_rss(out["lines"])

    everything = untraced + records if trace else records
    for record in everything:
        tally.check(record["error"] is None, record["error"] or "")
    cold_keys = {r["key"] for r in everything if r["kind"] == "cold" and "key" in r}
    resolutions = stats["requests"]["engine_resolutions"]
    tally.check(resolutions == HOT_SET + len(cold_keys),
                f"{resolutions} engine resolutions for "
                f"{HOT_SET + len(cold_keys)} distinct cold keys")
    sampled = _direct_check(everything, hot, hot_bytes, seed, tally)
    out["lines"].append(
        f"seed {seed}: {len(everything)} requests, {len(cold_keys)} distinct "
        f"cold keys, {sampled} cold plans re-resolved directly; hot-set "
        f"digests {[format(zlib.crc32(b), '08x') for b in hot_bytes]}"
    )

    def latencies(source, kind):
        return [1e3 * r["latency"] for r in source if r["kind"] == kind]

    warm = latencies(untraced, "warm")
    cold = latencies(untraced, "cold")
    if not trace:
        out["e2e"] = {
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
            "cold_p50_ms": median(cold),
            "warm_p50_ms": median(warm),
            "ops_per_s": len(records) / wall,
        }
        out["lines"].append(
            f"{len(warm)} warm and {len(cold)} cold requests in {wall:.2f}s; "
            f"tails (too unsteady here to gate): warm p90 "
            f"{percentile(warm, 90):.3f} ms, p99 {percentile(warm, 99):.3f} ms, "
            f"cold p90 {percentile(cold, 90):.3f} ms"
        )
        by_engine = {
            workload: median([1e3 * r["latency"] for r in untraced
                              if r["kind"] == "cold" and "body" in r
                              and r["body"]["workload"] == workload])
            for workload in sorted(ENGINES)
        }
        out["lines"].append("cold p50 by engine: " + ", ".join(
            f"{workload} {ms:.3f} ms" for workload, ms in by_engine.items()))
        return out

    with open(trace_path, encoding="utf-8") as handle:
        server_spans = [json.loads(line) for line in handle]
    spans = server_spans + TRACER.drain()
    metrics = layer_metrics(spans, [root])
    served = [r for r in records if r["server_ms"] is not None]
    for kind in ("warm", "cold"):
        metrics[f"serve.server_ms.{kind}_p50"] = median(
            [r["server_ms"] for r in served if r["kind"] == kind])
    metrics["serve.transport_ms.p50"] = median(
        [1e3 * r["latency"] - r["server_ms"] for r in served])
    metrics["serve.engine_resolutions"] = resolutions
    metrics["serve.coalesced"] = stats["requests"]["coalesced"]
    metrics["obs.trace_overhead"] = (
        (len(untraced) / untraced_wall) / (len(records) / wall) - 1
    )
    for name in ("mc.eval.calls", "cim.write_verify.s", "insitu.run.s"):
        tally.check(metrics[name] == 0, f"serve-mixed reached {name}")
    out["per_layer"] = metrics
    out["spans"] = spans
    out["e2e_untraced"] = {
        "setup_s (traced server)": setup_s,
        "ops_per_s": len(untraced) / untraced_wall,
        "warm_p50_ms": median(warm),
        "cold_p50_ms": median(cold),
    }
    return out
