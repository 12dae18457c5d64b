"""Correctness of the content-addressed planning artifact cache.

The cache's whole value rests on three properties the planning subsystem
leans on: keys are pure functions of content (stable across processes),
any mutation of the producing inputs makes old entries unreachable, and
a warm hit returns exactly what the cold producer stored.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cim import resolve_technology
from repro.plan import (
    PLAN_CACHE_VERSION,
    PlanArtifactCache,
    artifact_key,
    data_digest,
    model_digest,
)

CONFIG = {
    "model": "abc123",
    "sense": "def456",
    "technology": {"name": "pcm", "sigma": 0.12, "drift_nu": 0.05},
    "read_time": 2.592e6,
    "wear_inflation": 1.0,
}


def _subprocess_eval(expression):
    """Evaluate one expression in a fresh interpreter, return its stdout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    script = (
        "import json\n"
        "from repro.plan import artifact_key, data_digest\n"
        "import numpy as np\n"
        f"print({expression})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


class TestKeyStability:
    def test_key_is_deterministic_across_processes(self):
        """The same config hashes to the same key in a fresh interpreter."""
        here = artifact_key("order", CONFIG)
        there = _subprocess_eval(
            f"artifact_key('order', json.loads({json.dumps(CONFIG)!r}))"
        )
        assert here == there

    def test_data_digest_is_deterministic_across_processes(self):
        here = data_digest(np.arange(12.0).reshape(3, 4))
        there = _subprocess_eval(
            "data_digest(np.arange(12.0).reshape(3, 4))"
        )
        assert here == there

    def test_key_independent_of_dict_insertion_order(self):
        shuffled = dict(reversed(list(CONFIG.items())))
        assert artifact_key("order", CONFIG) == artifact_key("order", shuffled)

    def test_kind_partitions_the_key_space(self):
        assert artifact_key("order", CONFIG) != artifact_key("curvature", CONFIG)


class TestInvalidation:
    def test_model_mutation_changes_digest(self, trained_lenet):
        model, _, _ = trained_lenet
        before = model_digest(model)
        params = dict(model.named_parameters())
        name = sorted(params)[0]
        original = params[name].data.copy()
        try:
            params[name].data.flat[0] += 1e-3
            assert model_digest(model) != before
        finally:
            params[name].data[...] = original
        assert model_digest(model) == before

    def test_stack_mutation_changes_key(self):
        """Any technology parameter change re-addresses the artifact."""
        tech = resolve_technology("pcm")
        base = artifact_key("variance", {"technology": tech.to_dict()})
        from dataclasses import replace

        for mutation in (
            {"sigma": 0.13},
            {"drift_nu": 0.06},
            {"wear_sigma_growth": 0.5},
        ):
            mutated = replace(tech, **mutation)
            assert artifact_key(
                "variance", {"technology": mutated.to_dict()}
            ) != base

    def test_version_bump_invalidates(self, tmp_path):
        old = PlanArtifactCache(root=str(tmp_path), version=PLAN_CACHE_VERSION)
        old.put("order", CONFIG, {"order": np.arange(5)})
        bumped = PlanArtifactCache(
            root=str(tmp_path), version=PLAN_CACHE_VERSION + 1
        )
        assert bumped.get("order", CONFIG) is None
        assert old.get("order", CONFIG) is not None


class TestBackends:
    def test_memory_roundtrip(self, tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path), disk=False)
        stored = cache.put("order", CONFIG, {"order": np.arange(7)})
        loaded = cache.get("order", CONFIG)
        assert np.array_equal(loaded["order"], stored["order"])
        assert cache.stats()["memory"] == 1

    def test_disk_roundtrip_across_instances(self, tmp_path):
        """A fresh cache instance (new process in spirit) hits the disk."""
        writer = PlanArtifactCache(root=str(tmp_path))
        writer.put(
            "curvature", CONFIG,
            {"scores": np.linspace(0, 1, 9), "tie": np.arange(9.0)},
        )
        reader = PlanArtifactCache(root=str(tmp_path))
        arrays = reader.get("curvature", CONFIG)
        assert np.array_equal(arrays["scores"], np.linspace(0, 1, 9))
        assert np.array_equal(arrays["tie"], np.arange(9.0))
        assert reader.stats()["disk"] == 1

    def test_miss_then_producer_runs_once(self, tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path))
        calls = []

        def produce():
            calls.append(1)
            return {"order": np.arange(3)}

        first = cache.get_or_create("order", CONFIG, produce)
        second = cache.get_or_create("order", CONFIG, produce)
        assert len(calls) == 1
        assert np.array_equal(first["order"], second["order"])

    def test_clear_memory_keeps_disk(self, tmp_path):
        """A cache with an empty memory tier reads the disk entry."""
        cache = PlanArtifactCache(root=str(tmp_path))
        cache.put("order", CONFIG, {"order": np.arange(4)})
        fresh = PlanArtifactCache(root=str(tmp_path))
        assert np.array_equal(fresh.get("order", CONFIG)["order"], np.arange(4))
        assert fresh.stats()["disk"] == 1

    def test_disabled_disk_is_session_local(self, tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path), disk=False)
        cache.put("order", CONFIG, {"order": np.arange(4)})
        assert not os.path.exists(cache.root) or not os.listdir(cache.root)
        fresh = PlanArtifactCache(root=str(tmp_path), disk=False)
        assert fresh.get("order", CONFIG) is None


class TestMemoryLRU:
    """The bounded memory tier: REPRO_CACHE_MEM_ITEMS / memory_items."""

    def _configs(self, n):
        return [{**CONFIG, "read_time": float(i)} for i in range(n)]

    def test_unbounded_by_default(self, tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path))
        for config in self._configs(12):
            cache.put("order", config, {"order": np.arange(3)})
        assert cache.memory_items == 0
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["memory_entries"] == 12

    def test_eviction_round_trips_through_disk_bitwise(self, tmp_path):
        """An evicted entry is a disk hit, not a recompute, bit-for-bit."""
        rng = np.random.default_rng(11)
        cache = PlanArtifactCache(root=str(tmp_path), memory_items=2)
        configs = self._configs(3)
        payloads = [
            {"order": rng.permutation(64), "scores": rng.normal(size=64)}
            for _ in configs
        ]
        for config, payload in zip(configs, payloads):
            cache.put("order", config, payload)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["memory_entries"] == 2
        assert stats["memory_cap"] == 2

        calls = []
        arrays = cache.get_or_create(
            "order", configs[0], lambda: calls.append(1)
        )
        assert calls == []  # served from disk, producer never ran
        assert cache.stats()["disk"] == 1
        for name in payloads[0]:
            assert np.array_equal(arrays[name], payloads[0][name])
            assert arrays[name].dtype == payloads[0][name].dtype

    def test_lru_evicts_least_recently_used(self, tmp_path):
        cache = PlanArtifactCache(root=str(tmp_path), memory_items=2)
        first, second, third = self._configs(3)
        cache.put("order", first, {"order": np.arange(1)})
        cache.put("order", second, {"order": np.arange(2)})
        cache.get("order", first)  # refresh: second is now the LRU entry
        cache.put("order", third, {"order": np.arange(3)})
        with cache._memory_lock:
            keys = set(cache._memory)
        assert cache.key("order", first) in keys
        assert cache.key("order", second) not in keys
        assert cache.key("order", third) in keys

    def test_env_cap_and_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MEM_ITEMS", "1")
        cache = PlanArtifactCache(root=str(tmp_path))
        for config in self._configs(3):
            cache.put("order", config, {"order": np.arange(2)})
        assert cache.memory_items == 1
        assert cache.stats()["evictions"] == 2

        monkeypatch.setenv("REPRO_CACHE_MEM_ITEMS", "nope")
        with pytest.raises(ValueError):
            PlanArtifactCache(root=str(tmp_path))
        with pytest.raises(ValueError):
            PlanArtifactCache(root=str(tmp_path), memory_items=-1)

    def test_lookup_by_key_matches_get(self, tmp_path):
        """lookup(kind, key) is get() minus the config hashing."""
        cache = PlanArtifactCache(root=str(tmp_path))
        cache.put("order", CONFIG, {"order": np.arange(5)})
        key = cache.key("order", CONFIG)
        assert np.array_equal(cache.lookup("order", key)["order"], np.arange(5))
        fresh = PlanArtifactCache(root=str(tmp_path))
        assert np.array_equal(
            fresh.lookup("order", key)["order"], np.arange(5)
        )
        assert fresh.lookup("order", "0" * 32) is None


class TestCounterThreadSafety:
    def test_counters_exact_under_concurrent_traffic(self, tmp_path):
        """hits/misses stay read-modify-write-safe across threads.

        The serving layer reads the cache from the event loop while
        resolver threads write it; every counter update goes through
        ``_memory_lock``, so the totals must come out *exact* — an
        unlocked ``+= 1`` would drop increments under this hammering
        (the /statsz under-count bug).
        """
        import sys as _sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        cache = PlanArtifactCache(root=str(tmp_path), disk=False)
        configs = [{"i": i} for i in range(4)]
        for config in configs:
            cache.put("order", config, {"order": np.arange(3)})

        n_threads, iterations = 8, 300
        barrier = threading.Barrier(n_threads)
        switch = _sys.getswitchinterval()
        _sys.setswitchinterval(1e-6)  # force aggressive interleaving
        try:
            def hammer(worker):
                barrier.wait()
                for i in range(iterations):
                    hit = configs[(worker + i) % len(configs)]
                    assert cache.get("order", hit) is not None
                    assert cache.lookup("order", "0" * 32) is None

            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(hammer, range(n_threads)))
        finally:
            _sys.setswitchinterval(switch)

        stats = cache.stats()
        assert stats["memory"] == n_threads * iterations
        assert stats["misses"] == n_threads * iterations


@pytest.mark.parametrize("disk", [True, False])
def test_cold_vs_warm_artifacts_bitwise(tmp_path, disk):
    """Whatever the producer emitted is returned bit-for-bit on warm hits."""
    rng = np.random.default_rng(5)
    arrays = {
        "scores": rng.normal(size=257),
        "order": rng.permutation(257),
    }
    cache = PlanArtifactCache(root=str(tmp_path), disk=disk)
    cache.put("order", CONFIG, arrays)
    warm = (
        PlanArtifactCache(root=str(tmp_path)) if disk else cache
    ).get("order", CONFIG)
    for name in arrays:
        assert np.array_equal(warm[name], arrays[name])
        assert warm[name].dtype == arrays[name].dtype
