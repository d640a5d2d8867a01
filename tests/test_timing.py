"""Tests for phase timing (repro.timing)."""

import time

import pytest

from repro.timing import PhaseTimer, stopwatch


class TestPhaseTimer:
    def test_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        assert timer.get("a") >= 0.0
        assert list(timer.totals) == ["a"]

    def test_order_is_first_entry(self):
        timer = PhaseTimer()
        with timer.phase("tree"):
            pass
        with timer.phase("mst"):
            pass
        with timer.phase("tree"):
            pass
        assert list(timer.totals) == ["tree", "mst"]

    def test_measures_time(self):
        timer = PhaseTimer()
        with timer.phase("sleep"):
            time.sleep(0.01)
        assert timer.get("sleep") >= 0.009

    def test_total(self):
        timer = PhaseTimer()
        timer.add("a", 1.0)
        timer.add("b", 2.0)
        assert timer.total == 3.0

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("a", -1.0)

    def test_get_missing_is_zero(self):
        assert PhaseTimer().get("nope") == 0.0

    def test_as_dict_is_copy(self):
        timer = PhaseTimer({"x": 1.0})
        d = timer.as_dict()
        d["x"] = 99.0
        assert timer.get("x") == 1.0

    def test_exception_still_records(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("boom"):
                raise RuntimeError
        assert "boom" in timer.totals


class TestStopwatch:
    def test_measures(self):
        with stopwatch() as sw:
            time.sleep(0.01)
        assert sw.seconds >= 0.009

    def test_zero_block(self):
        with stopwatch() as sw:
            pass
        assert sw.seconds >= 0.0
