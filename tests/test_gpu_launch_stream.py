"""Kernel launch machinery, profiler, streams/events."""

import numpy as np
import pytest

from repro.exceptions import InvalidLaunchError
from repro.gpu.costmodel import KernelWork
from repro.gpu.device import Device, DeviceProperties, K40
from repro.gpu.kernel import Kernel, LaunchConfig, charge_transfer, launch
from repro.gpu.profiler import LaunchRecord, Profiler
from repro.gpu.stream import Event, Stream

DOUBLER = Kernel(
    "doubler",
    run=lambda x: x * 2,
    work=lambda x: KernelWork(flops=float(x.size), bytes_read=float(x.nbytes), threads=int(x.size)),
)


class TestLaunchConfig:
    def test_cover(self):
        cfg = LaunchConfig.cover(1000, block=256)
        assert cfg.grid == 4 and cfg.threads == 1024

    def test_cover_zero_threads(self):
        assert LaunchConfig.cover(0).grid == 1

    def test_validate_block_too_large(self):
        d = Device()
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(1, 2048).validate(d)

    def test_validate_zero_block(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(1, 0).validate(Device())


class TestLaunch:
    def test_launch_runs_semantics(self):
        d = Device()
        x = np.arange(4.0)
        out = launch(DOUBLER, LaunchConfig.cover(4), x, device=d)
        np.testing.assert_array_equal(out, x * 2)

    def test_launch_advances_clock_and_profiles(self):
        d = Device()
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        assert d.clock_us >= d.props.launch_overhead_us
        assert d.profiler.launch_count == 1
        rec = d.profiler.records[0]
        assert rec.name == "doubler" and rec.kind == "kernel"

    def test_launch_validates_config(self):
        d = Device()
        with pytest.raises(InvalidLaunchError):
            launch(DOUBLER, LaunchConfig(1, 9999), np.arange(4.0), device=d)

    def test_sequential_launches_accumulate(self):
        d = Device()
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        t1 = d.clock_us
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        assert d.clock_us > t1

    def test_charge_transfer(self):
        d = Device()
        dt = charge_transfer(1e6, "h2d", device=d)
        assert dt == pytest.approx(d.props.pcie_latency_us + 100.0, rel=1e-6)
        assert d.profiler.transfer_time_us == pytest.approx(dt)


class TestProfiler:
    def test_aggregates(self):
        p = Profiler()
        p.record(LaunchRecord("k1", "kernel", 0, 5.0, flops=10, bytes=100))
        p.record(LaunchRecord("k1", "kernel", 5, 7.0, flops=20, bytes=200))
        p.record(LaunchRecord("memcpy_h2d", "h2d", 12, 3.0, bytes=50))
        assert p.kernel_time_us == 12.0
        assert p.transfer_time_us == 3.0
        assert p.total_time_us == 15.0
        assert p.launch_count == 2
        agg = p.by_kernel()["k1"]
        assert agg["count"] == 2 and agg["flops"] == 30

    def test_running_totals_equal_record_sums(self):
        p = Profiler()

        def sums():
            recs = p.records
            return (
                sum(r.duration_us for r in recs),
                sum(r.duration_us for r in recs if r.kind == "kernel"),
                sum(r.duration_us for r in recs if r.kind in ("h2d", "d2h")),
                sum(1 for r in recs if r.kind == "kernel"),
                sum(r.bytes for r in recs if r.kind == "h2d"),
                sum(1 for r in recs if r.kind == "kernel" and r.name.startswith("graph_replay[")),
            )

        def totals():
            return (
                p.total_time_us, p.kernel_time_us, p.transfer_time_us,
                p.launch_count, p.h2d_bytes, p.replay_count,
            )

        def same_types():
            return [type(x) for x in totals()] == [type(x) for x in sums()]

        assert totals() == sums() == (0, 0, 0, 0, 0, 0) and same_types()
        rng = np.random.default_rng(3)
        kinds = ["kernel", "h2d", "d2h", "comm"]
        for step in range(2):
            for i in range(200):
                kind = kinds[int(rng.integers(len(kinds)))]
                name = "graph_replay[pr]" if kind == "kernel" and i % 7 == 0 else f"{kind}{i}"
                # Durations that do not add exactly: the order of addition shows.
                dur = float(rng.random() * 10.0 ** rng.integers(-3, 4))
                nbytes = int(rng.integers(0, 1 << 20)) if i % 2 else float(rng.random() * 1e6)
                p.record(LaunchRecord(name, kind, float(i), dur, bytes=nbytes))
                assert totals() == sums()
            assert same_types()
            p.reset()
            assert totals() == sums() == (0, 0, 0, 0, 0, 0) and same_types()
            assert p.records == []

    def test_summary_renders(self):
        p = Profiler()
        p.record(LaunchRecord("spmv", "kernel", 0, 5.0, bytes=1e9))
        s = p.summary()
        assert "spmv" in s and "transfers" in s

    def test_end_us(self):
        r = LaunchRecord("k", "kernel", 2.0, 3.0)
        assert r.end_us == 5.0


class TestStreams:
    def test_stream_timeline(self):
        d = Device()
        s = Stream(d)
        start = s.enqueue(10.0)
        assert start == 0.0 and s.timeline_us == 10.0
        assert d.clock_us == 10.0

    def test_two_streams_overlap(self):
        d = Device()
        s1, s2 = Stream(d), Stream(d)
        s1.enqueue(10.0)
        s2.enqueue(10.0)
        # Overlapping streams: device time is max, not sum.
        assert d.clock_us == 10.0

    def test_event_dependency_serialises(self):
        d = Device()
        s1, s2 = Stream(d), Stream(d)
        s1.enqueue(10.0)
        ev = s1.record_event()
        s2.wait_event(ev)
        s2.enqueue(5.0)
        assert s2.timeline_us == 15.0
        assert d.clock_us == 15.0

    def test_wait_unrecorded_event_raises(self):
        s = Stream(Device())
        with pytest.raises(ValueError):
            s.wait_event(Event())

    def test_synchronize_returns_timeline(self):
        d = Device()
        s = Stream(d)
        s.enqueue(3.0)
        assert s.synchronize() == s.timeline_us

    def test_launch_on_stream(self):
        d = Device()
        s = Stream(d)
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d, stream=s)
        assert s.timeline_us > 0
        assert d.profiler.launch_count == 1

    def test_new_stream_starts_at_device_now(self):
        d = Device()
        d.advance(42.0)
        s = Stream(d)
        assert s.timeline_us == 42.0
