"""Tests for the request-latency model: anchors, monotonicity, shape."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LatencyModel, dram_spec, flash_spec
from repro.core import latency_model
from repro.core.latency_model import MemorySpec, RequestTiming
from repro.cpu import CORTEX_A7, CORTEX_A15_1GHZ
from repro.errors import ConfigurationError
from repro.units import GB, NS, US
from repro.workloads import REQUEST_SIZE_SWEEP


def mercury_model(core=CORTEX_A7, latency=10 * NS, has_l2=True) -> LatencyModel:
    return LatencyModel(core=core, memory=dram_spec(latency), has_l2=has_l2)


def iridium_model(core=CORTEX_A7, read=10 * US, has_l2=True) -> LatencyModel:
    return LatencyModel(core=core, memory=flash_spec(read_latency_s=read), has_l2=has_l2)


class TestMemorySpec:
    def test_dram_spec(self):
        spec = dram_spec(30 * NS)
        assert spec.kind == "dram"
        assert not spec.is_flash
        assert spec.write_latency_s == spec.read_latency_s

    def test_flash_spec_defaults(self):
        spec = flash_spec()
        assert spec.is_flash
        assert spec.read_latency_s == pytest.approx(10 * US)
        assert spec.write_latency_s == pytest.approx(200 * US)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorySpec(kind="sram", read_latency_s=1e-9)
        with pytest.raises(ConfigurationError):
            MemorySpec(kind="dram", read_latency_s=0)
        with pytest.raises(ConfigurationError):
            MemorySpec(kind="flash", read_latency_s=1e-6, write_latency_s=0)


class TestPaperAnchors:
    """The calibration anchor points of DESIGN.md §5 (15% tolerance)."""

    def test_a7_mercury_64b_get(self):
        tps = mercury_model().tps("GET", 64)
        assert tps == pytest.approx(11_000, rel=0.15)

    def test_a15_mercury_64b_get(self):
        tps = mercury_model(core=CORTEX_A15_1GHZ).tps("GET", 64)
        assert tps == pytest.approx(27_000, rel=0.15)

    def test_fig4_get_breakdown_at_64b(self):
        timing = mercury_model(core=CORTEX_A15_1GHZ).request_timing("GET", 64)
        fractions = timing.fractions()
        assert fractions["network"] == pytest.approx(0.87, abs=0.04)
        assert fractions["memcached"] == pytest.approx(0.10, abs=0.04)
        assert fractions["hash"] == pytest.approx(0.03, abs=0.02)

    def test_fig4_put_metadata_share_larger(self):
        model = mercury_model(core=CORTEX_A15_1GHZ)
        get_frac = model.request_timing("GET", 1024).fractions()["memcached"]
        put_frac = model.request_timing("PUT", 1024).fractions()["memcached"]
        assert put_frac > 1.5 * get_frac
        assert put_frac < 0.35

    def test_a15_vs_a7_with_l2_about_3x(self):
        a7 = mercury_model().tps("GET", 64)
        a15 = mercury_model(core=CORTEX_A15_1GHZ).tps("GET", 64)
        assert 2.0 < a15 / a7 < 3.2

    def test_a15_vs_a7_without_l2_only_1_to_2x(self):
        a7 = mercury_model(has_l2=False).tps("GET", 64)
        a15 = mercury_model(core=CORTEX_A15_1GHZ, has_l2=False).tps("GET", 64)
        assert 1.0 < a15 / a7 < 2.5

    def test_iridium_a7_64b_get(self):
        tps = iridium_model().tps("GET", 64)
        assert tps == pytest.approx(5_400, rel=0.15)

    def test_iridium_put_below_1ktps(self):
        assert iridium_model().tps("PUT", 64) < 1_000
        assert iridium_model(core=CORTEX_A15_1GHZ).tps("PUT", 64) < 1_100

    def test_iridium_without_l2_collapses(self):
        # §6.2: "removing the L2 cache yields average TPS below 100".
        assert iridium_model(has_l2=False).tps("GET", 64) < 100
        assert iridium_model(core=CORTEX_A15_1GHZ, has_l2=False).tps("GET", 64) < 200

    def test_iridium_a15_advantage_shrinks(self):
        # Flash-bound: §6.2 says ~25%; accept up to ~50%.
        a7 = iridium_model().tps("GET", 64)
        a15 = iridium_model(core=CORTEX_A15_1GHZ).tps("GET", 64)
        assert 1.1 < a15 / a7 < 1.6

    def test_a7_per_core_peak_bandwidth(self):
        bw = mercury_model().max_memory_bandwidth("GET", REQUEST_SIZE_SWEEP)
        assert bw == pytest.approx(0.2 * GB, rel=0.2)


class TestShape:
    def test_tps_decreases_with_request_size(self):
        model = mercury_model()
        tps = [model.tps("GET", size) for size in REQUEST_SIZE_SWEEP]
        assert tps == sorted(tps, reverse=True)

    def test_tps_decreases_with_dram_latency(self):
        tps = [
            mercury_model(latency=lat, has_l2=False).tps("GET", 64)
            for lat in (10 * NS, 30 * NS, 50 * NS, 100 * NS)
        ]
        assert tps == sorted(tps, reverse=True)

    def test_l2_matters_more_at_high_latency(self):
        # Fig. 5: at 10 ns the L2 barely helps; at 100 ns it is critical.
        def gain(latency):
            with_l2 = mercury_model(latency=latency).tps("GET", 64)
            without = mercury_model(latency=latency, has_l2=False).tps("GET", 64)
            return with_l2 / without

        assert gain(100 * NS) > gain(10 * NS)
        assert gain(10 * NS) < 1.4

    def test_put_slower_than_get_small_sizes(self):
        model = mercury_model()
        assert model.tps("PUT", 64) < model.tps("GET", 64)

    def test_iridium_flash_latency_sensitivity(self):
        fast = iridium_model(read=10 * US).tps("GET", 64)
        slow = iridium_model(read=20 * US).tps("GET", 64)
        assert fast > slow
        assert fast / slow < 2.0  # CPU time dilutes the 2x read gap

    def test_network_dominates_large_gets_everywhere(self):
        timing = mercury_model().request_timing("GET", 1 << 20)
        assert timing.fractions()["network"] > 0.95

    def test_breakdown_sums_to_total(self):
        for verb in ("GET", "PUT"):
            timing = mercury_model().request_timing(verb, 4096)
            assert sum(timing.fractions().values()) == pytest.approx(1.0)

    def test_memory_bandwidth_grows_with_size(self):
        model = mercury_model()
        assert model.memory_bandwidth("GET", 1 << 20) > model.memory_bandwidth(
            "GET", 64
        )

    @given(
        size=st.integers(min_value=0, max_value=1 << 20),
        verb=st.sampled_from(["GET", "PUT"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_components_always_positive(self, size, verb):
        timing = mercury_model().request_timing(verb, size)
        assert timing.hash_s > 0
        assert timing.memcached_s > 0
        assert timing.network_s > 0
        assert timing.tps > 0

    @given(size=st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=40, deadline=None)
    def test_iridium_never_faster_than_mercury(self, size):
        mercury = mercury_model().request_timing("GET", size).total_s
        iridium = iridium_model().request_timing("GET", size).total_s
        assert iridium > mercury


class TestValidation:
    def test_unknown_verb_rejected(self):
        with pytest.raises(ConfigurationError):
            mercury_model().request_timing("SCAN", 64)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            mercury_model().request_timing("GET", -1)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            mercury_model().max_memory_bandwidth("GET", ())


def timing_grid():
    """(verb, value_bytes, key_bytes, transport) over the memo's key space."""
    sizes = (0, 1, 64, 1448, 65536, 1 << 20)
    for verb, size, key_bytes in itertools.product(
        ("GET", "PUT", "get", "put"), sizes, (None, 1, 16, 250)
    ):
        for transport in ("tcp", "udp") if verb.upper() == "GET" else ("tcp",):
            yield verb, size, key_bytes, transport


def parent_tiered(model, verb, value_bytes, flash_service_s, key_bytes=None):
    """``request_timing_tiered`` as computed before it was memoised."""
    base = model.request_timing(verb, value_bytes, key_bytes=key_bytes)
    keylen = model.cal.default_key_bytes if key_bytes is None else key_bytes
    fixed_stall, value_stall = model._data_stall(verb, value_bytes, keylen)
    return RequestTiming(
        verb=base.verb,
        value_bytes=base.value_bytes,
        hash_s=base.hash_s,
        memcached_s=base.memcached_s - fixed_stall + flash_service_s,
        network_s=base.network_s - value_stall,
    )


def same_fields(a: RequestTiming, b: RequestTiming) -> bool:
    return dataclasses.astuple(a) == dataclasses.astuple(b)


class TestTimingMemo:
    """``request_timing`` answers repeat shapes from a per-model memo."""

    @pytest.mark.parametrize("make", [mercury_model, iridium_model])
    def test_memo_answers_equal_a_fresh_model(self, make):
        model = make()
        for verb, size, key_bytes, transport in timing_grid():
            fresh = make().request_timing(verb, size, key_bytes, transport)
            for _ in range(2):
                answer = model.request_timing(verb, size, key_bytes, transport)
                assert same_fields(answer, fresh), (verb, size, key_bytes, transport)

    def test_invalid_calls_raise_every_time_and_are_not_stored(self):
        model = mercury_model()
        model.request_timing("GET", 64)
        stored = len(model._timings)
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                model.request_timing("DEL", 64)
            with pytest.raises(ConfigurationError):
                model.request_timing("PUT", 64, transport="udp")
            with pytest.raises(ConfigurationError):
                model.request_timing("GET", -1)
        assert len(model._timings) == stored

    def test_tiered_equals_the_parent_expression(self):
        model = iridium_model()
        for verb, size, key_bytes in itertools.product(
            ("GET", "PUT"), (0, 64, 1448, 1 << 20), (None, 16, 250)
        ):
            for service in (0.0, 1e-9, 3.7e-6, 2e-4, 0.1):
                expected = parent_tiered(
                    iridium_model(), verb, size, service, key_bytes
                )
                for _ in range(2):
                    answer = model.request_timing_tiered(
                        verb, size, service, key_bytes=key_bytes
                    )
                    assert same_fields(answer, expected)

    def test_tiered_verb_is_case_insensitive(self):
        # The calibrated stalls subtracted are those of the upper-cased
        # verb, as in request_timing (a lower-case GET once subtracted
        # the PUT stalls and went negative).
        model = iridium_model()
        for verb in ("GET", "PUT"):
            upper = model.request_timing_tiered(verb, 64, 3e-6)
            lower = model.request_timing_tiered(verb.lower(), 64, 3e-6)
            assert same_fields(lower, upper)
            assert lower.memcached_s > 0 and lower.network_s > 0

    def test_tiered_invalid_calls_raise_every_time(self):
        model = iridium_model()
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                model.request_timing_tiered("GET", 64, -1e-6)
            with pytest.raises(ConfigurationError):
                model.request_timing_tiered("DEL", 64, 1e-6)
            with pytest.raises(ConfigurationError):
                mercury_model().request_timing_tiered("GET", 64, 1e-6)

    def test_memo_stops_growing_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(latency_model, "TIMING_MEMO_MAX", 3)
        model = iridium_model()
        sizes = range(0, 800, 100)
        for _ in range(2):
            for size in sizes:
                assert same_fields(
                    model.request_timing("GET", size),
                    iridium_model().request_timing("GET", size),
                )
                assert same_fields(
                    model.request_timing_tiered("PUT", size, 5e-6),
                    parent_tiered(iridium_model(), "PUT", size, 5e-6),
                )
        assert len(model._timings) == 3
        assert len(model._tiered_parts) == 3
