"""Measured per-source pricing: CostCalibrator, NetworkProber, model hookup."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, TrappError
from repro.extensions.batching import BatchedCostModel
from repro.replication import PerSourceCostModel
from repro.replication.calibration import CostCalibrator, NetworkProber
from repro.simulation.clock import Clock
from repro.simulation.events import EventQueue
from repro.simulation.network import LatencyNetwork


# ----------------------------------------------------------------------
# The estimator itself
# ----------------------------------------------------------------------
def test_recovers_exact_linear_costs():
    calibrator = CostCalibrator(alpha=0.5)
    for k in (1, 4, 16):
        calibrator.observe("s", k, 3.0 + 0.5 * k)
    setup, marginal = calibrator.estimate_for("s")
    assert setup == pytest.approx(3.0)
    assert marginal == pytest.approx(0.5)
    assert calibrator.estimates() == {"s": (setup, marginal)}


def test_single_batch_size_gives_no_marginal():
    """Probes all the same size cannot separate setup from marginal."""
    calibrator = CostCalibrator()
    for _ in range(5):
        calibrator.observe("s", 4, 7.0)
    assert calibrator.estimate_for("s") is None
    assert calibrator.setup_for("s") is None
    assert calibrator.marginal_for("s") is None


def test_min_observations_gate():
    calibrator = CostCalibrator(alpha=0.5, min_observations=3)
    calibrator.observe("s", 1, 2.0)
    calibrator.observe("s", 8, 9.0)
    assert calibrator.estimate_for("s") is None  # only 2 observations
    calibrator.observe("s", 4, 5.0)
    setup, marginal = calibrator.estimate_for("s")
    assert marginal == pytest.approx(1.0)
    assert setup == pytest.approx(1.0)


def test_ewma_tracks_drifting_costs():
    """After conditions change, estimates converge to the new regime."""
    calibrator = CostCalibrator(alpha=0.5)
    for _ in range(4):
        for k in (1, 8):
            calibrator.observe("s", k, 10.0 + 2.0 * k)
    # The link got faster: setup 10 → 1, marginal 2 → 0.25.
    for _ in range(12):
        for k in (1, 8):
            calibrator.observe("s", k, 1.0 + 0.25 * k)
    setup, marginal = calibrator.estimate_for("s")
    assert setup == pytest.approx(1.0, abs=0.05)
    assert marginal == pytest.approx(0.25, abs=0.01)


def test_estimates_clamped_non_negative():
    calibrator = CostCalibrator(alpha=0.5)
    # Anomalous measurements: bigger batches *faster* — slope clamps to 0.
    calibrator.observe("s", 1, 10.0)
    calibrator.observe("s", 10, 1.0)
    setup, marginal = calibrator.estimate_for("s")
    assert marginal == 0.0
    assert setup >= 0.0


def test_observation_validation():
    calibrator = CostCalibrator()
    with pytest.raises(TrappError):
        calibrator.observe("s", 0, 1.0)
    with pytest.raises(TrappError):
        calibrator.observe("s", 1, -1.0)
    with pytest.raises(TrappError):
        CostCalibrator(alpha=0.0)
    with pytest.raises(TrappError):
        CostCalibrator(min_observations=1)


# ----------------------------------------------------------------------
# Feeding BatchedCostModel
# ----------------------------------------------------------------------
def test_calibrated_estimates_replace_manual_maps():
    calibrator = CostCalibrator(alpha=0.5)
    for k in (1, 4):
        calibrator.observe("near", k, 1.0 + 0.5 * k)
    model = BatchedCostModel(
        setup=9.0,
        marginal=3.0,
        setup_by_source={"near": 99.0},  # manual map, superseded by measurement
        calibrator=calibrator,
    )
    assert model.setup_for("near") == pytest.approx(1.0)
    assert model.marginal_for("near") == pytest.approx(0.5)
    # Unmeasured sources keep the configured priors.
    assert model.setup_for("far") == 9.0
    assert model.marginal_for("far") == 3.0
    assert model.batch_cost("near", 10) == pytest.approx(6.0)


def test_upper_bound_model_prices_calibrated_sources():
    calibrator = CostCalibrator(alpha=0.5)
    for k in (1, 4):
        calibrator.observe("s/0", k, 2.0 + 1.0 * k)
    model = BatchedCostModel(setup=5.0, marginal=1.0, calibrator=calibrator)
    upper = model.upper_bound_model(source_column="src")
    assert isinstance(upper, PerSourceCostModel)
    assert upper.source_column == "src"
    assert upper.costs_by_source["s/0"] == pytest.approx(3.0)  # setup + marginal
    assert upper.default_cost == 6.0


# ----------------------------------------------------------------------
# Measuring over the simulated network
# ----------------------------------------------------------------------
def build_network():
    clock = Clock()
    events = EventQueue(clock)
    network = LatencyNetwork(events)
    return clock, events, network


def test_network_per_item_transfer_delay():
    clock, events, network = build_network()
    network.set_latency("a", "b", 2.0)
    network.set_per_item_cost("a", "b", 0.25)
    assert network.transfer_delay("a", "b", 8) == pytest.approx(4.0)
    assert network.transfer_delay("a", "b", 0) == pytest.approx(2.0)
    received = []
    network.attach("b", lambda sender, message: received.append(clock.now()))
    network.send("a", "b", "payload", items=8)
    while events.step():
        pass
    assert received == [pytest.approx(4.0)]
    with pytest.raises(SimulationError):
        network.set_per_item_cost("a", "b", -1.0)
    with pytest.raises(SimulationError):
        LatencyNetwork(events, default_per_item=-0.5)


def test_prober_measures_round_trips():
    clock, events, network = build_network()
    for source_id, latency, per_item in (("s/0", 2.0, 0.25), ("s/1", 0.5, 1.5)):
        network.set_latency("cost-prober", source_id, latency)
        network.set_latency(source_id, "cost-prober", latency)
        network.set_per_item_cost("cost-prober", source_id, per_item)
        network.set_per_item_cost(source_id, "cost-prober", per_item)
    prober = NetworkProber(network, events, clock)
    prober.attach_echo("s/0")
    prober.attach_echo("s/1")
    calibrator = prober.probe(
        CostCalibrator(alpha=0.5), ["s/0", "s/1"], batch_sizes=(1, 4, 16)
    )
    estimates = calibrator.estimates()
    # Round trip = 2·latency + 2·per_item·k → setup 2·latency, marginal
    # 2·per_item.
    assert estimates["s/0"][0] == pytest.approx(4.0)
    assert estimates["s/0"][1] == pytest.approx(0.5)
    assert estimates["s/1"][0] == pytest.approx(1.0)
    assert estimates["s/1"][1] == pytest.approx(3.0)
    with pytest.raises(SimulationError):
        prober.probe(calibrator, ["s/0"], rounds=0)
    # Re-attaching (e.g. before a re-probe) is a no-op, as documented.
    prober.attach_echo("s/0")
    prober.probe(CostCalibrator(alpha=0.5), ["s/0"], batch_sizes=(1, 2))


def test_probe_leaves_unrelated_future_events_alone():
    """Probing must not drain the shared event queue past its own echoes
    or fast-forward the containing simulation's clock."""
    clock, events, network = build_network()
    network.set_latency("cost-prober", "s", 1.0)
    network.set_latency("s", "cost-prober", 1.0)
    fired = []
    events.schedule(1000.0, lambda: fired.append(clock.now()))
    prober = NetworkProber(network, events, clock)
    prober.attach_echo("s")
    prober.probe(CostCalibrator(alpha=0.5), ["s"], batch_sizes=(1, 4))
    assert fired == []  # the unrelated event is still pending
    assert clock.now() < 1000.0
    assert len(events) == 1


def test_probed_model_prices_like_the_network():
    """End to end: measure the substrate, hand the calibrator to the model,
    and the §8.2 batch price equals the physical round-trip time."""
    clock, events, network = build_network()
    network.set_latency("cost-prober", "shard", 3.0)
    network.set_latency("shard", "cost-prober", 3.0)
    network.set_per_item_cost("cost-prober", "shard", 0.5)
    network.set_per_item_cost("shard", "cost-prober", 0.5)
    prober = NetworkProber(network, events, clock)
    prober.attach_echo("shard")
    calibrator = prober.probe(CostCalibrator(alpha=0.5), ["shard"])
    model = BatchedCostModel(setup=1e9, marginal=1e9, calibrator=calibrator)
    assert model.batch_cost("shard", 12) == pytest.approx(
        network.transfer_delay("cost-prober", "shard", 12)
        + network.transfer_delay("shard", "cost-prober", 12)
    )
