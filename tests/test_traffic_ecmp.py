"""ECMP/LAG hashing: determinism and load spreading."""

import numpy as np
import pytest

from repro.traffic import EcmpSelector, FiveTuple, FlowGenerator, hash_to_choice
from repro.traffic import ecmp


class TestHashToChoice:
    def test_deterministic(self):
        flow = FiveTuple(1, 2, 3, 4)
        assert hash_to_choice(flow, 16) == hash_to_choice(flow, 16)

    def test_in_range(self):
        gen = FlowGenerator(flows_per_pair=256)
        for flow in gen.all_flows(0, 1):
            assert 0 <= hash_to_choice(flow, 7) < 7

    def test_salts_decorrelate(self):
        gen = FlowGenerator(flows_per_pair=128)
        flows = list(gen.all_flows(0, 1))
        a = [hash_to_choice(f, 16, salt=1) for f in flows]
        b = [hash_to_choice(f, 16, salt=2) for f in flows]
        assert a != b

    def test_rejects_zero_choices(self):
        with pytest.raises(ValueError):
            hash_to_choice(FiveTuple(1, 2, 3, 4), 0)

    def test_spreads_evenly(self):
        # With many flows, per-lane counts should be near uniform.
        gen = FlowGenerator(flows_per_pair=4096)
        counts = np.zeros(16)
        for flow in gen.all_flows(0, 1):
            counts[hash_to_choice(flow, 16)] += 1
        assert counts.max() / counts.mean() < 1.4


class TestEcmpSelector:
    def test_lane_shape(self):
        selector = EcmpSelector(n_fibers=4, n_wavelengths=16)
        assert selector.n_lanes == 64
        fiber, wavelength = selector.select(FiveTuple(9, 9, 9, 9))
        assert 0 <= fiber < 4
        assert 0 <= wavelength < 16

    def test_flow_pinned_to_one_lane(self):
        selector = EcmpSelector(4, 16)
        flow = FiveTuple(5, 6, 7, 8)
        assert selector.select(flow) == selector.select(flow)

    def test_validation(self):
        with pytest.raises(ValueError):
            EcmpSelector(0, 16)

    def test_memoised_lanes_match_the_hash(self, monkeypatch):
        # A memo bounded to 3 flows starts over while 10 flows cycle
        # through it twice; every answer is still the hash's.
        monkeypatch.setattr(ecmp, "MEMO_FLOWS", 3)
        selector = EcmpSelector(4, 16)
        flows = [FiveTuple(i, 2 * i, 1000 + i, 443) for i in range(10)]
        for flow in flows + flows:
            lane = hash_to_choice(flow, 64, salt=0x5B5)
            assert selector.select(flow) == (lane // 16, lane % 16)
        assert len(selector._lanes) <= 3

    def test_lane_loads_even_out(self):
        # SS 4: hashing across fibers leads to even loads (E10's mechanism).
        selector = EcmpSelector(4, 16)
        gen = FlowGenerator(flows_per_pair=2048)
        loads = selector.lane_loads((f, 1000) for f in gen.all_flows(0, 1))
        values = np.array(list(loads.values()), dtype=float)
        assert len(loads) == 64
        assert values.max() / values.mean() < 1.6

    def test_lane_loads_aggregate_bytes(self):
        selector = EcmpSelector(2, 2)
        flow = FiveTuple(1, 1, 1, 1)
        loads = selector.lane_loads([(flow, 100), (flow, 50)])
        assert sum(loads.values()) == 150
        assert len(loads) == 1
