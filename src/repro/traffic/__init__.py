"""Traffic substrate: packets, flows, size distributions, matrices,
arrival processes, ECMP/LAG hashing and admissibility checks.

The paper reasons about *admissible* traffic (no input or output
oversubscribed), about per-fiber load skew at the SPS splitter, and about
ECMP/LAG hashing evening out traffic matrices (SS 4, *Traffic matrix at
HBM switches*).  This package generates all of those synthetically.
"""

from .admissibility import assert_admissible, is_admissible, max_line_load
from .ecmp import EcmpSelector, hash_to_choice
from .flows import FiveTuple, FlowGenerator
from .generators import ArrivalProcess, TrafficGenerator
from .matrices import (
    diagonal_matrix,
    hotspot_matrix,
    permutation_matrix,
    random_admissible_matrix,
    uniform_matrix,
)
from .packet import Packet
from .replay import (
    TraceSource,
    load_trace,
    replay,
    save_trace,
    stream_trace,
    trace_to_string,
)
from .sizes import (
    FixedSize,
    ImixSize,
    PacketSizeDistribution,
    TrimodalSize,
    UniformSize,
)
from .stream import (
    DEFAULT_BLOCK_NS,
    WORKLOAD_KINDS,
    ArrivalBlock,
    DiurnalProfile,
    FlashCrowdProfile,
    HeavyTailSource,
    LoadProfile,
    TrafficSource,
    block_edges,
    workload_source,
)

__all__ = [
    "Packet",
    "FiveTuple",
    "FlowGenerator",
    "PacketSizeDistribution",
    "FixedSize",
    "ImixSize",
    "TrimodalSize",
    "UniformSize",
    "uniform_matrix",
    "permutation_matrix",
    "diagonal_matrix",
    "hotspot_matrix",
    "random_admissible_matrix",
    "is_admissible",
    "assert_admissible",
    "max_line_load",
    "hash_to_choice",
    "EcmpSelector",
    "TrafficGenerator",
    "ArrivalProcess",
    "save_trace",
    "load_trace",
    "replay",
    "trace_to_string",
    "TrafficSource",
    "ArrivalBlock",
    "block_edges",
    "DEFAULT_BLOCK_NS",
    "HeavyTailSource",
    "LoadProfile",
    "DiurnalProfile",
    "FlashCrowdProfile",
    "workload_source",
    "WORKLOAD_KINDS",
    "stream_trace",
    "TraceSource",
]
