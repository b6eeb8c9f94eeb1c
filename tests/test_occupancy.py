import itertools

import numpy as np
import pytest

from _reference import reference_hysteresis
from radarfuse.occupancy import (CellState, GridConfig, OccupancyGrid, Zone,
                                 cell_tick)
from radarfuse.tracking import TargetTrack, TrackStatus

SEC = 1_000_000_000


def track(track_id, x, y, status=TrackStatus.CONFIRMED):
    return TargetTrack(track_id=track_id,
                       state=np.array([x, y, 1.0, 0, 0, 0]),
                       axis_cov=(1.0, 0.0, 1.0), status=status, hits=5,
                       last_update_ns=0)


class TestZone:
    def test_center(self):
        z = Zone("z1", center=(3, 3), len_x=2, len_y=2)
        assert z.contains(3, 3)

    def test_edge_closed(self):
        z = Zone("z1", center=(3, 3), len_x=2, len_y=2)
        assert z.contains(4, 3)
        assert not z.contains(4.01, 3)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            Zone("z", len_x=-1, len_y=2)


class TestCellTick:
    def run(self, seq, h_on=3, h_off=2):
        states = []
        c = CellState()
        for present in seq:
            c = cell_tick(c, present, h_on, h_off)
            states.append(c.occupied)
        return states

    def test_on_after_h_on(self):
        assert self.run([True, True, True]) == [False, False, True]

    def test_reset_on_absence(self):
        assert self.run([True, False, True, True, True]) == \
            [False, False, False, False, True]

    def test_off_after_h_off(self):
        seq = [True] * 3 + [False, False]
        assert self.run(seq)[-2:] == [True, False]

    @pytest.mark.parametrize("h_on,h_off", [(1, 1), (2, 3), (3, 5), (4, 2)])
    def test_exhaustive_vs_reference(self, h_on, h_off):
        for n in range(1, 13):
            for bits in itertools.product([False, True], repeat=n):
                got = self.run(bits, h_on, h_off)
                assert got == reference_hysteresis(bits, h_on, h_off), bits


class TestOccupancyGrid:
    def grid(self, h_on=3, h_off=2, zones=None):
        cfg = GridConfig(on_threshold=h_on, off_threshold=h_off,
                         status_period=1.0, bounds_x=(0, 12), bounds_y=(0, 6))
        zones = zones or [Zone("room", center=(6, 3), len_x=12, len_y=6)]
        return OccupancyGrid(cfg=cfg, zones=zones)

    def test_single_enter_after_h_on(self):
        g = self.grid(h_on=3)
        all_events = []
        for k in range(5):
            events, _ = g.step([track(0, 3.1, 3.1)], k * SEC)
            all_events += events
        enters = [e for e in all_events if e.kind == "enter"]
        assert len(enters) == 1
        assert enters[0].ts_ns == 2 * SEC   # third tick

    def test_tentative_tracks_ignored(self):
        g = self.grid(h_on=1)
        events, _ = g.step([track(0, 3, 3, status=TrackStatus.TENTATIVE)], 0)
        assert events == []

    def test_overlapping_zones_two_enters(self):
        zones = [Zone("a", center=(3, 3), len_x=4, len_y=4),
                 Zone("b", center=(4, 3), len_x=4, len_y=4)]
        g = self.grid(h_on=1, zones=zones)
        events, _ = g.step([track(0, 3.6, 3.1)], 0)
        assert sorted(e.zone_id for e in events) == ["a", "b"]
        assert all(e.kind == "enter" for e in events)

    def test_exit_on_track_disappearance(self):
        g = self.grid(h_on=1)
        g.step([track(0, 3, 3)], 0)
        events, _ = g.step([], SEC)
        assert [e.kind for e in events] == ["exit"]

    def test_out_of_bounds_ignored_and_counted(self):
        g = self.grid(h_on=1)
        events, _ = g.step([track(0, 50.0, 3.0)], 0)
        assert events == []
        assert g.out_of_bounds_count == 1

    def test_far_edge_is_last_cell(self):
        g = self.grid(h_on=1)
        events, statuses = g.step([track(0, 12.0, 3.0), track(1, 6.0, 6.0)],
                                  0)
        assert [(e.kind, e.track_id) for e in events] == \
            [("enter", 0), ("enter", 1)]
        assert statuses[0].count == 2
        assert g.out_of_bounds_count == 0

    @pytest.mark.parametrize("h_on,h_off,xs,expected,out_of_bounds", [
        # crossing the zone's x = 5 edge every window is debounced away
        pytest.param(1, 5, [4.9, 5.1] * 10, [("enter", 0)], 0,
                     id="edge-crossing"),
        # a pair, not a cell, is debounced: a track in a new 0.5 m cell
        # every window still enters after H_on windows
        pytest.param(3, 5, [1.25 + 0.5 * k for k in range(6)],
                     [("enter", 2)], 0, id="new-cell-every-window"),
        # a deleted track (None: not in the snapshot) leaves at once
        pytest.param(1, 5, [3.0, None], [("enter", 0), ("exit", 1)], 0,
                     id="deleted-track"),
        # a confirmed track outside the bounds is outside every zone
        pytest.param(1, 5, [3.0] + [50.0] * 6,
                     [("enter", 0), ("exit", 5)], 6, id="leaves-bounds"),
    ])
    def test_pair_debounce(self, h_on, h_off, xs, expected, out_of_bounds):
        g = self.grid(h_on=h_on, h_off=h_off,
                      zones=[Zone("a", center=(3, 3), len_x=4, len_y=4)])
        got = []
        for k, x in enumerate(xs):
            events, _ = g.step([] if x is None else [track(0, x, 3.0)],
                               k * SEC)
            got += [(e.kind, e.ts_ns // SEC) for e in events]
        assert got == expected
        assert g.out_of_bounds_count == out_of_bounds

    def test_enter_exit_strict_alternation(self):
        rng = np.random.default_rng(4)
        g = self.grid(h_on=2, h_off=2)
        log = []
        pos = np.array([3.0, 3.0])
        for k in range(200):
            pos += rng.normal(0, 0.8, 2)
            pos = np.clip(pos, 0.2, 5.8)
            tracks = [track(0, pos[0], pos[1])] if rng.random() < 0.8 else []
            events, _ = g.step(tracks, k * SEC)
            log += events
        per_pair = {}
        for e in log:
            seq = per_pair.setdefault((e.track_id, e.zone_id), [])
            seq.append(e.kind)
        for seq in per_pair.values():
            assert seq[0] == "enter"
            for a, b in zip(seq, seq[1:]):
                assert a != b

    def test_dwell_monotone_and_status_count(self):
        g = self.grid(h_on=1)
        dwells = []
        for k in range(6):
            _, statuses = g.step([track(0, 3, 3)], k * SEC)
            for st in statuses:
                assert st.count == len(st.occupants)
                if st.occupants:
                    dwells.append(st.occupants[0][1])
        assert dwells == sorted(dwells)
        assert dwells[-1] > 0

    def test_status_period(self):
        g = self.grid(h_on=1)
        n_status = 0
        for k in range(11):
            _, statuses = g.step([track(0, 3, 3)], int(k * 0.5 * SEC))
            n_status += len(statuses)
        # snapshots at 0, 0.5 .. 5.0 s, period 1 s -> batches at 0..5 s
        assert n_status == 6
