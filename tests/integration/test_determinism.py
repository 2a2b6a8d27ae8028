"""Golden determinism regression suite.

The perf layer and the hot-path kernel rewrite promise **bit-identical**
simulation: same seed, same scenario -> byte-for-byte the same metrics,
event counts, channel counters and fault traces as the pre-optimization
code.  The fingerprints below were captured from the unoptimized tree;
any drift here means an "optimization" changed simulation semantics
(RNG consumption order, float arithmetic, or event ordering) and must be
rejected, however small the numeric difference looks.

Scenarios cover every scheme family the paper sweeps: blind flooding on
the dense single-unit map (also with 500 hosts), the counter and location adaptive schemes,
the fixed-threshold location scheme on the dense map,
neighbor-coverage with dynamic HELLO intervals (also under crash and
churn, so two-hop tables are wiped and relearned), and flooding under a
fault plan (crash + churn + loss) including the executed fault trace.
Adaptive counter also runs with a capture model under churn and bursty
loss, and two hand-built networks pin a static topology and a mobility
model the library does not ship.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_broadcast_simulation
from repro.experiments.topologies import build_static_network, grid_positions
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.mobility.map import RectMap
from repro.mobility.models import MobilityModel, StaticMobility, make_mobility
from repro.net.host import HelloConfig
from repro.net.network import Network
from repro.perf import KernelPerf
from repro.phy.capture import CaptureModel
from repro.phy.params import PhyParams
from repro.schemes import make_scheme
from repro.sim.engine import Scheduler
from repro.sim.randomness import RandomStreams

# Captured from the pre-optimization tree (seed 7, 12 broadcasts each).
GOLDEN_JSON = r"""
{
    "adaptive-counter": {
        "aborted_frames": 0,
        "backoffs_started": 1793,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 2031,
        "deaf_misses": 20,
        "deliveries": 15769,
        "end_time": 17.00467235320274,
        "events_processed": 7736,
        "fault_trace": [],
        "frames_received": 15769,
        "hello_updates": 13810,
        "hellos": 1021,
        "injected_drops": 0,
        "latency": 0.02496432457323124,
        "neighbor_expirations": 78,
        "re": 0.8714689265536725,
        "srb": 0.5550165561061751,
        "total_rx_airtime": 14.455359999999992,
        "total_tx_airtime": 1.1084479999999997,
        "transmissions": 1329
    },
    "adaptive-counter-capture": {
        "aborted_frames": 1,
        "backoffs_started": 1635,
        "broadcasts": 10,
        "broadcasts_skipped": 2,
        "collisions": 1436,
        "deaf_misses": 12,
        "deliveries": 13062,
        "end_time": 17.00467235320274,
        "events_processed": 7154,
        "fault_trace": [
            [
                0.49508422136494135,
                "crash",
                46
            ],
            [
                0.6621410589998556,
                "crash",
                26
            ],
            [
                2.43178814212366,
                "crash",
                44
            ],
            [
                4.129706617312361,
                "crash",
                20
            ],
            [
                4.4302098155336695,
                "crash",
                7
            ],
            [
                4.495084221364941,
                "recover",
                46
            ],
            [
                4.629901186862023,
                "crash",
                55
            ],
            [
                4.662141058999856,
                "recover",
                26
            ],
            [
                5.188671066193747,
                "crash",
                9
            ],
            [
                6.163152235257578,
                "crash",
                49
            ],
            [
                6.166216472431183,
                "crash",
                34
            ],
            [
                6.43178814212366,
                "recover",
                44
            ],
            [
                6.909963827656773,
                "crash",
                42
            ],
            [
                8.129706617312362,
                "recover",
                20
            ],
            [
                8.430209815533669,
                "recover",
                7
            ],
            [
                8.629901186862023,
                "recover",
                55
            ],
            [
                8.6445,
                "crash",
                6
            ],
            [
                9.188671066193747,
                "recover",
                9
            ],
            [
                9.806026868618703,
                "crash",
                37
            ],
            [
                10.163152235257577,
                "recover",
                49
            ],
            [
                10.166216472431184,
                "recover",
                34
            ],
            [
                10.66416415777567,
                "crash",
                30
            ],
            [
                10.909963827656773,
                "recover",
                42
            ],
            [
                11.0,
                "recover",
                6
            ],
            [
                11.293428500838203,
                "crash",
                31
            ],
            [
                12.534677328958576,
                "crash",
                57
            ],
            [
                13.105539660747507,
                "crash",
                9
            ],
            [
                13.285571866398163,
                "crash",
                36
            ],
            [
                13.806026868618703,
                "recover",
                37
            ],
            [
                14.153783627164696,
                "crash",
                20
            ],
            [
                14.66416415777567,
                "recover",
                30
            ],
            [
                15.293428500838203,
                "recover",
                31
            ],
            [
                16.534677328958576,
                "recover",
                57
            ],
            [
                16.572436343849642,
                "crash",
                31
            ]
        ],
        "frames_received": 13062,
        "hello_updates": 10237,
        "hellos": 954,
        "injected_drops": 924,
        "latency": 0.026623589487876888,
        "neighbor_expirations": 352,
        "re": 0.9618506493506492,
        "srb": 0.4742617984127418,
        "total_rx_airtime": 12.110587225144348,
        "total_tx_airtime": 1.0275197612572189,
        "transmissions": 1239
    },
    "adaptive-location": {
        "aborted_frames": 0,
        "backoffs_started": 1936,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 3027,
        "deaf_misses": 20,
        "deliveries": 16171,
        "end_time": 17.00467235320274,
        "events_processed": 8317,
        "fault_trace": [],
        "frames_received": 16171,
        "hello_updates": 13794,
        "hellos": 1021,
        "injected_drops": 0,
        "latency": 0.028160824573231696,
        "neighbor_expirations": 78,
        "re": 0.9929378531073446,
        "srb": 0.4363763184993459,
        "total_rx_airtime": 17.855296000000028,
        "total_tx_airtime": 1.351648,
        "transmissions": 1429
    },
    "flooding-dense": {
        "aborted_frames": 0,
        "backoffs_started": 2190,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 97331,
        "deaf_misses": 1722,
        "deliveries": 6269,
        "end_time": 15.274227671085695,
        "events_processed": 7320,
        "fault_trace": [],
        "frames_received": 6269,
        "hello_updates": 0,
        "hellos": 0,
        "injected_drops": 0,
        "latency": 0.08537800000000197,
        "neighbor_expirations": 0,
        "re": 0.9166666666666666,
        "srb": 0.0,
        "total_rx_airtime": 256.14310400000426,
        "total_tx_airtime": 2.6776320000000067,
        "transmissions": 1101
    },
    "flooding-dense-500": {
        "aborted_frames": 0,
        "backoffs_started": 5973,
        "broadcasts": 6,
        "broadcasts_skipped": 0,
        "collisions": 1430766,
        "deaf_misses": 22972,
        "deliveries": 2985,
        "end_time": 8.627479889719082,
        "events_processed": 18393,
        "fault_trace": [],
        "frames_received": 2985,
        "hello_updates": 0,
        "hellos": 0,
        "injected_drops": 0,
        "latency": 0.08677903276041336,
        "neighbor_expirations": 0,
        "re": 0.9969939879759518,
        "srb": 0.0,
        "total_rx_airtime": 3542.7503359999496,
        "total_tx_airtime": 7.274112000000074,
        "transmissions": 2991
    },
    "flooding-faults": {
        "aborted_frames": 0,
        "backoffs_started": 725,
        "broadcasts": 11,
        "broadcasts_skipped": 1,
        "collisions": 1396,
        "deaf_misses": 37,
        "deliveries": 1424,
        "end_time": 16.994797034857413,
        "events_processed": 2570,
        "fault_trace": [
            [
                0.6621410589998556,
                "crash",
                26
            ],
            [
                4.129706617312361,
                "crash",
                20
            ],
            [
                4.4302098155336695,
                "crash",
                7
            ],
            [
                4.662141058999856,
                "recover",
                26
            ],
            [
                5.188671066193747,
                "crash",
                9
            ],
            [
                6.0,
                "crash",
                3
            ],
            [
                6.166216472431183,
                "crash",
                34
            ],
            [
                8.129706617312362,
                "recover",
                20
            ],
            [
                8.430209815533669,
                "recover",
                7
            ],
            [
                9.188671066193747,
                "recover",
                9
            ],
            [
                9.806026868618703,
                "crash",
                37
            ],
            [
                10.166216472431184,
                "recover",
                34
            ],
            [
                10.66416415777567,
                "crash",
                30
            ],
            [
                11.293428500838203,
                "crash",
                31
            ],
            [
                13.105539660747507,
                "crash",
                9
            ],
            [
                13.285571866398163,
                "crash",
                36
            ],
            [
                13.806026868618703,
                "recover",
                37
            ],
            [
                14.0,
                "recover",
                3
            ],
            [
                14.153783627164696,
                "crash",
                20
            ],
            [
                14.66416415777567,
                "recover",
                30
            ],
            [
                15.293428500838203,
                "recover",
                31
            ],
            [
                16.572436343849642,
                "crash",
                31
            ]
        ],
        "frames_received": 1424,
        "hello_updates": 0,
        "hellos": 0,
        "injected_drops": 136,
        "latency": 0.03179620000000105,
        "neighbor_expirations": 0,
        "re": 0.8989785068732438,
        "srb": 0.0,
        "total_rx_airtime": 7.2789759999999895,
        "total_tx_airtime": 0.8949760000000003,
        "transmissions": 368
    },
    "location": {
        "aborted_frames": 0,
        "backoffs_started": 2009,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 79759,
        "deaf_misses": 1363,
        "deliveries": 9038,
        "end_time": 15.274227671085695,
        "events_processed": 6709,
        "fault_trace": [],
        "frames_received": 9038,
        "hello_updates": 0,
        "hellos": 0,
        "injected_drops": 0,
        "latency": 0.08135832457323254,
        "neighbor_expirations": 0,
        "re": 1.0,
        "srb": 0.2138047138047138,
        "total_rx_airtime": 219.26912000000107,
        "total_tx_airtime": 2.3006719999999987,
        "transmissions": 946
    },
    "nc-dhi": {
        "aborted_frames": 0,
        "backoffs_started": 1956,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 2786,
        "deaf_misses": 26,
        "deliveries": 17510,
        "end_time": 35.00467235320274,
        "events_processed": 8479,
        "fault_trace": [],
        "frames_received": 17510,
        "hello_updates": 14787,
        "hellos": 1090,
        "injected_drops": 0,
        "latency": 0.029972157906562973,
        "neighbor_expirations": 132,
        "re": 0.9872881355932205,
        "srb": 0.46055689340241307,
        "total_rx_airtime": 25.381471999999953,
        "total_tx_airtime": 1.7997119999999993,
        "transmissions": 1479
    },
    "nc-dhi-churn": {
        "aborted_frames": 0,
        "backoffs_started": 2548,
        "broadcasts": 12,
        "broadcasts_skipped": 0,
        "collisions": 2830,
        "deaf_misses": 34,
        "deliveries": 23973,
        "end_time": 35.00467235320274,
        "events_processed": 11709,
        "fault_trace": [
            [
                0.49508422136494135,
                "crash",
                38
            ],
            [
                0.8378684152889581,
                "crash",
                59
            ],
            [
                1.7131828968230125,
                "crash",
                49
            ],
            [
                2.43178814212366,
                "crash",
                36
            ],
            [
                4.129706617312361,
                "crash",
                17
            ],
            [
                4.495084221364941,
                "recover",
                38
            ],
            [
                4.629901186862023,
                "crash",
                45
            ],
            [
                4.837868415288958,
                "recover",
                59
            ],
            [
                5.188671066193747,
                "crash",
                7
            ],
            [
                5.713182896823012,
                "recover",
                49
            ],
            [
                6.163152235257578,
                "crash",
                40
            ],
            [
                6.43178814212366,
                "recover",
                36
            ],
            [
                6.909963827656773,
                "crash",
                35
            ],
            [
                8.129706617312362,
                "recover",
                17
            ],
            [
                8.629901186862023,
                "recover",
                45
            ],
            [
                9.0,
                "crash",
                12
            ],
            [
                9.188671066193747,
                "recover",
                7
            ],
            [
                9.328275051707847,
                "crash",
                58
            ],
            [
                10.163152235257577,
                "recover",
                40
            ],
            [
                10.66416415777567,
                "crash",
                25
            ],
            [
                10.909963827656773,
                "recover",
                35
            ],
            [
                11.293428500838203,
                "crash",
                26
            ],
            [
                12.534677328958576,
                "crash",
                46
            ],
            [
                13.105539660747507,
                "crash",
                7
            ],
            [
                13.285571866398163,
                "crash",
                30
            ],
            [
                13.328275051707847,
                "recover",
                58
            ],
            [
                13.601459060842396,
                "crash",
                51
            ],
            [
                14.153783627164696,
                "crash",
                17
            ],
            [
                14.66416415777567,
                "recover",
                25
            ],
            [
                15.293428500838203,
                "recover",
                26
            ],
            [
                16.0,
                "recover",
                12
            ],
            [
                16.534677328958576,
                "recover",
                46
            ],
            [
                16.572436343849642,
                "crash",
                26
            ],
            [
                17.045539804062884,
                "crash",
                59
            ],
            [
                17.105539660747507,
                "recover",
                7
            ],
            [
                17.285571866398165,
                "recover",
                30
            ],
            [
                17.601459060842394,
                "recover",
                51
            ],
            [
                17.75410681276004,
                "crash",
                11
            ],
            [
                18.153783627164696,
                "recover",
                17
            ],
            [
                19.73042424099271,
                "crash",
                45
            ],
            [
                19.968695127814023,
                "crash",
                3
            ],
            [
                20.09530227233143,
                "crash",
                24
            ],
            [
                20.572436343849642,
                "recover",
                26
            ],
            [
                20.743262719723106,
                "crash",
                22
            ],
            [
                20.76345952390679,
                "crash",
                35
            ],
            [
                20.91925607573444,
                "crash",
                30
            ],
            [
                20.95097390428951,
                "crash",
                28
            ],
            [
                21.045539804062884,
                "recover",
                59
            ],
            [
                21.65290837015939,
                "crash",
                52
            ],
            [
                21.75410681276004,
                "recover",
                11
            ],
            [
                23.488600796786386,
                "crash",
                48
            ],
            [
                23.73042424099271,
                "recover",
                45
            ],
            [
                23.968695127814023,
                "recover",
                3
            ],
            [
                24.09530227233143,
                "recover",
                24
            ],
            [
                24.743262719723106,
                "recover",
                22
            ],
            [
                24.76345952390679,
                "recover",
                35
            ],
            [
                24.91925607573444,
                "recover",
                30
            ],
            [
                24.95097390428951,
                "recover",
                28
            ],
            [
                24.959826467167122,
                "crash",
                38
            ],
            [
                25.40540377872296,
                "crash",
                22
            ],
            [
                25.60774704653353,
                "crash",
                42
            ],
            [
                25.65290837015939,
                "recover",
                52
            ],
            [
                27.488600796786386,
                "recover",
                48
            ],
            [
                28.959826467167122,
                "recover",
                38
            ],
            [
                29.40540377872296,
                "recover",
                22
            ],
            [
                29.60774704653353,
                "recover",
                42
            ],
            [
                29.935808820372873,
                "crash",
                55
            ],
            [
                30.536958530279133,
                "crash",
                57
            ],
            [
                30.837994242938905,
                "crash",
                4
            ],
            [
                31.117190376720693,
                "crash",
                28
            ],
            [
                33.61970032599446,
                "crash",
                2
            ],
            [
                33.93580882037287,
                "recover",
                55
            ],
            [
                34.536958530279136,
                "recover",
                57
            ],
            [
                34.72528294435315,
                "crash",
                30
            ],
            [
                34.837994242938905,
                "recover",
                4
            ]
        ],
        "frames_received": 23973,
        "hello_updates": 16118,
        "hellos": 1737,
        "injected_drops": 0,
        "latency": 0.031137796289833375,
        "neighbor_expirations": 357,
        "re": 0.9922677404295052,
        "srb": 0.40452743225857946,
        "total_rx_airtime": 28.921343999999962,
        "total_tx_airtime": 2.2593919999999987,
        "transmissions": 2128
    }
}
"""

GOLDENS = json.loads(GOLDEN_JSON)

SCENARIOS = {
    "flooding-dense": ScenarioConfig(
        scheme="flooding", map_units=1, num_hosts=100, num_broadcasts=12,
        seed=7,
    ),
    # Five times the paper's host count on the same dense map (seed 1,
    # 6 broadcasts): the only golden above 100 hosts.
    "flooding-dense-500": ScenarioConfig(
        scheme="flooding", map_units=1, num_hosts=500, num_broadcasts=6,
        seed=1,
    ),
    "adaptive-counter": ScenarioConfig(
        scheme="adaptive-counter", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
    ),
    "adaptive-location": ScenarioConfig(
        scheme="adaptive-location", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
    ),
    # Fixed-threshold location on the dense map: the most heard copies
    # per packet, and each decision reads the lattice's uncovered
    # fraction directly against A, with no A(n) in between.
    "location": ScenarioConfig(
        scheme="location", map_units=1, num_hosts=100, num_broadcasts=12,
        seed=7, scheme_params={"threshold": 0.0134},
    ),
    "nc-dhi": ScenarioConfig(
        scheme="neighbor-coverage", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
        hello=HelloConfig(dynamic=True),
    ),
    # NC-DHI under churn and one fixed crash: crashed hosts come back with
    # cold one- and two-hop tables while their neighbors still list them,
    # and the DHI intervals they announce restart from an empty table.
    "nc-dhi-churn": ScenarioConfig(
        scheme="neighbor-coverage", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
        hello=HelloConfig(dynamic=True),
        faults=FaultPlan.parse(
            "crash:host=12,at=9,recover=16;churn:rate=0.02,downtime=4"
        ),
    ),
    "flooding-faults": ScenarioConfig(
        scheme="flooding", map_units=3, num_hosts=40, num_broadcasts=12,
        seed=7,
        faults=FaultPlan.parse(
            "crash:host=3,at=6,recover=14;churn:rate=0.02,downtime=4;"
            "loss:p=0.05"
        ),
    ),
    # Capture under churn and bursty loss: crashes detach receivers
    # while the SIR inbox is live, and host 6 crashes in the middle of
    # its own rebroadcast, aborting the frame at every receiver.
    "adaptive-counter-capture": ScenarioConfig(
        scheme="adaptive-counter", map_units=3, num_hosts=60,
        num_broadcasts=12, seed=7,
        capture=CaptureModel(),
        faults=FaultPlan.parse(
            "crash:host=6,at=8.6445,recover=11;churn:rate=0.02,downtime=4;"
            "ge:p=0.03,r=0.4,bad=0.9"
        ),
    ),
}


def fingerprint(result) -> dict:
    """Everything observable that must not drift, JSON-normalized."""
    ch = result.channel_stats
    return json.loads(json.dumps({
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "re": result.re,
        "srb": result.srb,
        "latency": result.latency,
        "hellos": result.hellos,
        "broadcasts": result.stats.broadcasts,
        "backoffs_started": result.backoffs_started,
        "transmissions": ch.transmissions,
        "deliveries": ch.deliveries,
        "collisions": ch.collisions,
        "deaf_misses": ch.deaf_misses,
        "injected_drops": ch.injected_drops,
        "aborted_frames": ch.aborted_frames,
        "total_tx_airtime": ch.total_tx_airtime,
        "total_rx_airtime": ch.total_rx_airtime,
        "broadcasts_skipped": result.broadcasts_skipped,
        "fault_trace": [
            (ev.time, ev.kind, ev.host_id) for ev in result.fault_trace
        ],
        "hello_updates": result.perf.hello_updates,
        "neighbor_expirations": result.perf.neighbor_expirations,
        "frames_received": result.perf.frames_received,
    }))


class PerHostMobility(MobilityModel):
    """A built-in model behind a wrapper the position store does not know.

    The store then asks the wrapped model for its position one host at a
    time at each epoch, instead of evaluating its motion segment in the
    batched arrays.
    """

    def __init__(self, inner):
        self._inner = inner

    def position(self, time):
        return self._inner.position(time)


def _per_host_make_mobility(*args, **kwargs):
    return PerHostMobility(make_mobility(*args, **kwargs))


#: Where host positions come from.  ``vector``: the built-in models'
#: motion segments evaluated in the store's batched numpy arrays.
#: ``scalar``: every model wrapped, so each position is asked of the
#: model itself, one host at a time, as in the goldens' reference run.
POSITION_PATHS = ("scalar", "vector")


@pytest.mark.parametrize("path", POSITION_PATHS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name, path, monkeypatch):
    if path == "scalar":
        monkeypatch.setattr(
            "repro.net.network.make_mobility", _per_host_make_mobility
        )
    networks = []
    result = run_broadcast_simulation(
        SCENARIOS[name], network_hook=networks.append
    )
    # The store rolls motion segments only for the models it batches.
    rolls = networks[0].position_store.segment_rolls
    assert (rolls == 0) == (path == "scalar"), rolls
    observed = fingerprint(result)
    expected = GOLDENS[name]
    # Field-by-field so a drift names the counter that moved.
    for field_name in expected:
        assert observed[field_name] == expected[field_name], (
            f"{name}: {field_name} drifted: "
            f"{observed[field_name]!r} != golden {expected[field_name]!r}"
        )
    assert observed == expected


def test_run_twice_is_bit_identical():
    """The same config object run twice gives identical fingerprints
    (no hidden state leaks between runs)."""
    config = SCENARIOS["flooding-faults"]
    first = fingerprint(run_broadcast_simulation(config))
    second = fingerprint(run_broadcast_simulation(config))
    assert first == second
    assert first["fault_trace"] == second["fault_trace"]


# ------------------------------------------- networks built by hand
#
# Worlds built outside run_broadcast_simulation: a static topology from
# build_static_network, and hosts whose mobility model is not one of the
# built-ins.  Like the goldens above, these were captured from the
# per-host reference kernel, which queried each model directly.

NETWORK_GOLDEN_JSON = r"""
{
    "custom-mobility": {
        "aborted_frames": 1,
        "backoffs_started": 661,
        "broadcasts": 9,
        "collisions": 823,
        "deaf_misses": 8,
        "deliveries": 2911,
        "events_processed": 2881,
        "frames_corrupted": 829,
        "frames_received": 2911,
        "hello_updates": 2144,
        "hellos": 278,
        "injected_drops": 0,
        "latency": 0.0251615555555552,
        "neighbor_expirations": 68,
        "re": 0.9729064039408867,
        "srb": 0.17317906302580632,
        "total_rx_airtime": 4.576570526095915,
        "total_tx_airtime": 0.6192408420319746,
        "transmissions": 493,
        "truncated_receptions": 3
    },
    "static-topology": {
        "aborted_frames": 1,
        "backoffs_started": 723,
        "broadcasts": 10,
        "collisions": 1245,
        "deaf_misses": 8,
        "deliveries": 7092,
        "events_processed": 2853,
        "frames_corrupted": 1662,
        "frames_received": 7092,
        "hello_updates": 5848,
        "hellos": 316,
        "injected_drops": 430,
        "latency": 0.018628781041108634,
        "neighbor_expirations": 48,
        "re": 1.0,
        "srb": 0.6517647058823529,
        "total_rx_airtime": 8.231750186337997,
        "total_tx_airtime": 0.4233687395446002,
        "transmissions": 445,
        "truncated_receptions": 30
    }
}
"""

NETWORK_GOLDENS = json.loads(NETWORK_GOLDEN_JSON)


class OrbitMobility(MobilityModel):
    """Circular motion around a fixed center; not a built-in model.

    The phase is drawn once from the host's own RNG, so a position
    depends only on ``time`` and this model's state.
    """

    def __init__(self, center, radius, period, rng):
        self._center = center
        self._radius = radius
        self._omega = 2.0 * math.pi / period
        self._phase = rng.uniform(0.0, 2.0 * math.pi)

    def position(self, time):
        angle = self._phase + self._omega * time
        return (
            self._center[0] + self._radius * math.cos(angle),
            self._center[1] + self._radius * math.sin(angle),
        )


def _drive(scheduler, network, metrics, num_broadcasts, seed, crash=None):
    """Start ``network``, originate broadcasts from random alive hosts
    (optionally crashing and recovering one host), run to the end and
    return the fingerprint."""
    rng = random.Random(seed)
    network.start()

    def initiate(source_id):
        if network.hosts[source_id].alive:
            network.initiate_broadcast(source_id)

    t = 2.0
    for _ in range(num_broadcasts):
        t += rng.uniform(0.0, 1.0)
        scheduler.schedule_at(t, initiate, rng.randrange(len(network.hosts)))
    if crash is not None:
        host_id, down, up = crash
        scheduler.schedule_at(down, network.crash_host, host_id)
        scheduler.schedule_at(up, network.recover_host, host_id)
    end_time = t + 2.0
    scheduler.run(until=end_time)
    perf = KernelPerf.collect(scheduler, network)
    ch = network.channel.stats
    stats = metrics.summarize(end_time)
    return json.loads(json.dumps({
        "events_processed": scheduler.events_processed,
        "re": stats.reachability.mean,
        "srb": stats.saved_rebroadcast.mean,
        "latency": stats.latency.mean,
        "hellos": stats.hello_packets_sent,
        "broadcasts": stats.broadcasts,
        "backoffs_started": perf.backoffs_started,
        "frames_corrupted": perf.frames_corrupted,
        "hello_updates": perf.hello_updates,
        "neighbor_expirations": perf.neighbor_expirations,
        "frames_received": perf.frames_received,
        "transmissions": ch.transmissions,
        "deliveries": ch.deliveries,
        "collisions": ch.collisions,
        "deaf_misses": ch.deaf_misses,
        "injected_drops": ch.injected_drops,
        "aborted_frames": ch.aborted_frames,
        "truncated_receptions": ch.truncated_receptions,
        "total_tx_airtime": ch.total_tx_airtime,
        "total_rx_airtime": ch.total_rx_airtime,
    }))


def run_static_topology():
    """Adaptive counter on a 6x6 static grid with HELLOs, a stateful
    loss predicate and one host crashing and recovering."""
    scheduler = Scheduler()
    loss_rng = random.Random(11)
    network, metrics = build_static_network(
        scheduler,
        grid_positions(6, 6, 150.0),
        lambda: make_scheme("adaptive-counter"),
        hello_config=HelloConfig(interval=1.0),
        seed=3,
        drop_predicate=lambda sender, receiver: loss_rng.random() < 0.05,
    )
    # Host 14 crashes in the middle of its own rebroadcast.
    return _drive(
        scheduler, network, metrics, 10, seed=5, crash=(14, 3.424, 7.0)
    )


def run_custom_mobility():
    """Adaptive location over hosts on circular orbits (a model the
    library does not ship), every fifth host parked."""
    world = RectMap(1500.0, 1500.0)
    models = []
    for host_id in range(30):
        rng = random.Random(1000 + host_id)
        center = (rng.uniform(0.0, 1500.0), rng.uniform(0.0, 1500.0))
        if host_id % 5 == 0:
            models.append(StaticMobility(center))
        else:
            models.append(OrbitMobility(
                center, rng.uniform(100.0, 300.0), rng.uniform(20.0, 60.0),
                rng,
            ))
    scheduler = Scheduler()
    metrics = MetricsCollector()
    network = Network(
        scheduler=scheduler,
        params=PhyParams(),
        world=world,
        streams=RandomStreams(9),
        num_hosts=len(models),
        scheme_factory=lambda: make_scheme("adaptive-location"),
        metrics=metrics,
        max_speed_kmh=0.0,
        hello_config=HelloConfig(interval=1.0),
        mobility_factory=models.__getitem__,
    )
    # Host 8 crashes in the middle of its own rebroadcast.
    return _drive(
        scheduler, network, metrics, 10, seed=6, crash=(8, 3.1395, 6.0)
    )


NETWORK_RUNS = {
    "custom-mobility": run_custom_mobility,
    "static-topology": run_static_topology,
}


@pytest.mark.parametrize("name", sorted(NETWORK_RUNS))
def test_network_fingerprint_matches_golden(name):
    observed = NETWORK_RUNS[name]()
    expected = NETWORK_GOLDENS[name]
    for field_name in expected:
        assert observed[field_name] == expected[field_name], (
            f"{name}: {field_name} drifted: "
            f"{observed[field_name]!r} != golden {expected[field_name]!r}"
        )
    assert observed == expected
