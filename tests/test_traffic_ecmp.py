"""ECMP/LAG hashing: determinism and load spreading."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import sps
from repro.traffic import EcmpSelector, FiveTuple, FlowGenerator, hash_to_choice
from repro.traffic import ecmp
from tests.test_traffic_basics import make_packet


def _fields(flow):
    return (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, flow.protocol)


class TestFiveTupleHash:
    """The hash is computed once, at construction, and keeps the value
    the generated dataclass hash had."""

    FLOWS = [
        FiveTuple(0, 0, 0, 0, 0),
        FiveTuple(0x0A000001, 0xC0000001, 1234, 443),
        FiveTuple(2**32 - 1, 2**32 - 1, 2**16 - 1, 2**16 - 1, 255),
        FiveTuple(7, 8, 9, 10, 17),
    ]

    @pytest.mark.parametrize("flow", FLOWS)
    def test_hash_is_the_field_tuple_hash(self, flow):
        assert hash(flow) == hash(_fields(flow))

    def test_equality_unchanged(self):
        a = FiveTuple(1, 2, 3, 4)
        assert a == FiveTuple(1, 2, 3, 4)
        assert a == FiveTuple(1, 2, 3, 4, 6)
        assert a != FiveTuple(1, 2, 3, 4, 17)
        assert a != FiveTuple(1, 2, 3, 5)
        assert a != _fields(a)
        assert len({a, FiveTuple(1, 2, 3, 4), FiveTuple(1, 2, 3, 5)}) == 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FiveTuple(1, 2, 3, 4).src_port = 9

    def test_equal_distinct_flow_hits_the_ecmp_memo_entry(self, monkeypatch):
        calls = []

        def counting(flow, n_choices, salt=0):
            calls.append(flow)
            return hash_to_choice(flow, n_choices, salt)

        monkeypatch.setattr(ecmp, "hash_to_choice", counting)
        selector = EcmpSelector(4, 16)
        first, twin = FiveTuple(5, 6, 7, 8), FiveTuple(5, 6, 7, 8)
        assert first is not twin
        lane = selector.select(first)
        assert selector.select(twin) is lane
        assert calls == [first]
        assert len(selector._lanes) == 1

    def test_equal_distinct_flow_hits_the_fiber_memo_entry(self, monkeypatch):
        calls = []

        def counting(flow, n_choices, salt=0):
            calls.append(flow)
            return hash_to_choice(flow, n_choices, salt)

        monkeypatch.setattr(sps, "hash_to_choice", counting)
        first, twin = FiveTuple(5, 6, 7, 8), FiveTuple(5, 6, 7, 8)
        packets = [make_packet(pid=0), make_packet(pid=1)]
        packets[0].flow, packets[1].flow = first, twin
        fibers = sps.assign_fibers(packets, 8)
        assert fibers[0] == fibers[1] == hash_to_choice(first, 8, 0xECA)
        assert calls == [first]

    @pytest.mark.parametrize("flow", FLOWS)
    def test_pickle_round_trip(self, flow):
        copy = pickle.loads(pickle.dumps(flow))
        assert copy == flow and copy is not flow
        assert hash(copy) == hash(flow) == hash(_fields(copy))
        assert len({flow, copy}) == 1

    @pytest.mark.parametrize("flow", FLOWS)
    def test_replace_round_trip(self, flow):
        moved = dataclasses.replace(flow, src_port=(flow.src_port + 1) % 2**16)
        assert moved != flow
        assert hash(moved) == hash(_fields(moved))
        back = dataclasses.replace(moved, src_port=flow.src_port)
        assert back == flow and hash(back) == hash(flow)
        assert dataclasses.astuple(back) == _fields(flow)


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
