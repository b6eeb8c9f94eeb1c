import random

import pytest

from radarfuse.fusion import MergeConfig, Merger, UnknownSource

MS = 1_000_000


def collect(merger, pushes, flush=True):
    out = []
    for src, ts in pushes:
        out.extend(merger.push(src, ts, f"frame-{src}-{ts}"))
    if flush:
        out.extend(merger.flush())
    return out


class TestMerger:
    def test_interleaved_sources_sorted(self):
        m = Merger(MergeConfig(), ["a", "b"])
        out = collect(m, [("a", 1), ("b", 2), ("a", 3), ("b", 4)])
        assert [ts for ts, _, _ in out] == [1, 2, 3, 4]

    def test_single_source_pass_through(self):
        m = Merger(MergeConfig(), ["a"])
        for ts in (10, 20, 30):
            released = m.push("a", ts, None)
            assert [r[0] for r in released] == [ts]

    def test_unknown_source(self):
        m = Merger(MergeConfig(), ["a"])
        with pytest.raises(UnknownSource):
            m.push("zz", 0, None)

    def test_late_frame_dropped_and_counted(self):
        m = Merger(MergeConfig(reorder_horizon_ms=50), ["a", "b"])
        m.push("a", 200 * MS, None)
        m.push("b", 210 * MS, None)   # watermark: 200 ms emitted
        assert m.late_dropped == 0
        m.push("b", 100 * MS, None)   # 100 ms behind watermark > 50 ms
        assert m.late_dropped == 1

    def test_horizon_forces_release_with_silent_source(self):
        m = Merger(MergeConfig(reorder_horizon_ms=100), ["a", "b"])
        out = m.push("a", 0, None)
        assert out == []   # b never spoke and horizon not exceeded
        out = m.push("a", 150 * MS, None)
        assert [r[0] for r in out] == [0]   # forced by the horizon

    def test_conservation_and_watermark_monotone(self):
        rng = random.Random(11)
        m = Merger(MergeConfig(reorder_horizon_ms=20), ["a", "b", "c"])
        clocks = {"a": 0, "b": 0, "c": 0}
        emitted = []
        for _ in range(500):
            src = rng.choice("abc")
            clocks[src] += rng.randrange(1, 30) * MS
            emitted.extend(m.push(src, clocks[src], None))
        emitted.extend(m.flush())
        assert m.emitted + m.late_dropped == m.received == 500
        assert len(emitted) == m.emitted
        ts_series = [ts for ts, _, _ in emitted]
        assert ts_series == sorted(ts_series)  # late frames dropped: monotone
