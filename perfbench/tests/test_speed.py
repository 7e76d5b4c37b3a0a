"""Scaling of timed units by the host speed probes."""

import pytest

from speed import REFERENCE_S, Meter, probe


def _meter(probe_values):
    values = iter(probe_values)
    return Meter(probe_fn=lambda: next(values))


def test_each_unit_is_scaled_by_the_probes_around_it():
    meter = _meter([0.002, 0.004, 0.008])
    meter.mark()
    meter.add("a", 1.0)
    assert meter.factor() == pytest.approx(REFERENCE_S / 0.006)
    assert meter.raw == {"a": [1.0]}
    assert meter.scaled["a"] == pytest.approx([REFERENCE_S / 0.003])
    assert meter.probes == [0.002, 0.004, 0.008]


def test_a_slow_host_cancels_and_slower_code_shows():
    fast, slow = REFERENCE_S, 2 * REFERENCE_S
    meter = _meter([fast, fast, slow, slow, slow, slow])
    meter.mark()
    meter.add("epoch", 1.0)  # host at reference speed
    meter.mark()
    meter.add("epoch", 2.0)  # same code, host twice as slow
    meter.add("epoch", 2.4)  # code 20% slower on the slow host
    assert meter.scaled["epoch"] == pytest.approx([1.0, 1.0, 1.2])


def test_time_runs_the_function_and_returns_its_result():
    meter = _meter([REFERENCE_S, REFERENCE_S])
    meter.mark()
    assert meter.time("unit", lambda x, y=0: x + y, 2, y=3) == 5
    assert len(meter.raw["unit"]) == len(meter.scaled["unit"]) == 1
    assert meter.scaled["unit"][0] == pytest.approx(meter.raw["unit"][0])


def test_probe_is_positive_and_short():
    assert 0 < probe(repeats=1) < 1.0


def test_short_operations_wait_for_a_shared_probe():
    meter = _meter([0.004, 0.006, 0.010])
    meter.mark()
    total = {"fwd": 0.0, "bwd": 0.0}
    meter.accumulate(total, "fwd", 0.01)  # ended right after a probe: waits
    meter.accumulate(total, "bwd", 0.02)
    assert total == {"fwd": 0.0, "bwd": 0.0}
    meter.settle()
    assert total["fwd"] == pytest.approx(0.01 * REFERENCE_S / 0.005)
    assert total["bwd"] == pytest.approx(0.02 * REFERENCE_S / 0.005)
    meter._last_at -= 1.0  # the next operation ends long after the last probe
    meter.accumulate(total, "fwd", 1.0)
    assert total["fwd"] == pytest.approx((0.01 + 1.0 * 0.005 / 0.008) * REFERENCE_S / 0.005)
    assert meter.probes == [0.004, 0.006, 0.010]
