"""Integration tests for the PDRServer façade (every method, end to end)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PDRServer, SystemConfig
from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect
from repro.core.query import IntervalPDRQuery
from repro.methods.interval import evaluate_interval
from tests.conftest import populate_clustered, small_system_config


class TestConfigValidation:
    def test_defaults_consistent(self):
        cfg = SystemConfig()
        assert cfg.horizon == 120
        assert cfg.histogram_cell_edge <= cfg.l / 2

    def test_filter_precondition_enforced(self):
        with pytest.raises(InvalidParameterError):
            SystemConfig(l=5.0, histogram_cells=100)  # cell edge 10 > l/2

    def test_invalid_windows(self):
        with pytest.raises(InvalidParameterError):
            SystemConfig(max_update_interval=0)
        with pytest.raises(InvalidParameterError):
            SystemConfig(prediction_window=-1)


class TestQueryConstruction:
    def test_requires_exactly_one_threshold(self, small_server):
        with pytest.raises(InvalidParameterError):
            small_server.make_query(qt=0)
        with pytest.raises(InvalidParameterError):
            small_server.make_query(qt=0, rho=0.1, varrho=2.0)

    def test_varrho_uses_live_count(self, small_server):
        populate_clustered(small_server, 100)
        q = small_server.make_query(qt=0, varrho=2.0)
        expected = 2.0 * 100 / small_server.config.domain.area
        assert q.rho == pytest.approx(expected)

    def test_l_defaults_to_config(self, small_server):
        q = small_server.make_query(qt=0, rho=0.1)
        assert q.l == small_server.config.l

    def test_unknown_method_rejected(self, populated_server):
        with pytest.raises(InvalidParameterError):
            populated_server.query("nonsense", qt=0, rho=0.1)


class TestEndToEndMethods:
    def test_fr_equals_bruteforce(self, populated_server):
        for qt in (0, 3, 6):
            exact = populated_server.query("fr", qt=qt, varrho=3.0)
            oracle = populated_server.query("bruteforce", qt=qt, varrho=3.0)
            assert exact.regions.symmetric_difference_area(
                oracle.regions
            ) == pytest.approx(0.0, abs=1e-6)

    def test_pa_close_to_exact(self, populated_server):
        exact = populated_server.query("fr", qt=0, varrho=3.0)
        approx = populated_server.query("pa", qt=0, varrho=3.0)
        inter = exact.regions.intersection_area(approx.regions)
        union = exact.area() + approx.area() - inter
        assert inter / union > 0.5  # generous: tiny world, spiky surface

    def test_dh_optimistic_superset(self, populated_server):
        """Optimistic DH has no false negatives (Section 7.2)."""
        exact = populated_server.query("fr", qt=0, varrho=3.0)
        opt = populated_server.query("dh-optimistic", qt=0, varrho=3.0)
        missed = exact.regions.difference_area(opt.regions)
        assert missed == pytest.approx(0.0, abs=1e-6)

    def test_dh_pessimistic_subset(self, populated_server):
        """Pessimistic DH has no false positives (Section 7.2)."""
        exact = populated_server.query("fr", qt=0, varrho=3.0)
        pess = populated_server.query("dh-pessimistic", qt=0, varrho=3.0)
        spurious = pess.regions.difference_area(exact.regions)
        assert spurious == pytest.approx(0.0, abs=1e-6)

    def test_dense_cell_and_edq_run(self, populated_server):
        for method in ("dense-cell", "edq"):
            result = populated_server.query(method, qt=0, varrho=3.0)
            assert result.stats.method in ("dense-cell", "edq")

    def test_interval_query_is_union_of_snapshots(self, populated_server):
        combined = populated_server.query_interval("fr", qt1=0, qt2=2, varrho=3.0)
        for qt in (0, 1, 2):
            snap = populated_server.query("fr", qt=qt, varrho=3.0)
            missed = snap.regions.difference_area(combined.regions)
            assert missed == pytest.approx(0.0, abs=1e-6)

    def test_optimized_interval_fr_matches_union(self, populated_server):
        server = populated_server
        base = server.make_query(qt=0, varrho=3.0)
        interval = IntervalPDRQuery(rho=base.rho, l=base.l, qt1=0, qt2=3)
        naive = evaluate_interval(lambda s: server.evaluate("fr", s), interval)
        fast = server.query_interval("fr", qt1=0, qt2=3, varrho=3.0)
        assert fast.regions.symmetric_difference_area(
            naive.regions
        ) == pytest.approx(0.0, abs=1e-6)
        assert fast.stats.method == "fr-interval"

    def test_interval_stats_merged(self, populated_server):
        combined = populated_server.query_interval("pa", qt1=0, qt2=2, varrho=3.0)
        assert combined.stats.method == "pa-interval"
        single = populated_server.query("pa", qt=0, varrho=3.0)
        assert combined.stats.bnb_nodes >= single.stats.bnb_nodes


class TestUpdateFlow:
    def test_report_reaches_all_structures(self, small_server):
        small_server.report(0, 50.0, 50.0, 0.0, 0.0)
        assert small_server.object_count() == 1
        assert small_server.histogram.total_at(0) == 1
        assert len(small_server.tree) == 1
        assert small_server.pa.surface_at(0).density_at(50.0, 50.0) > 0

    def test_advance_moves_all_windows(self, small_server):
        small_server.report(0, 50.0, 50.0, 0.0, 0.0)
        small_server.advance_to(4)
        assert small_server.histogram.window[0] == 4
        assert small_server.pa.window[0] == 4
        assert small_server.tnow == 4

    def test_update_timers_accumulate(self, small_server):
        # the server's listeners are untimed; the experiments world times
        # the histogram and PA the same way for Figure 9(b)
        from repro.experiments.datasets import time_updates

        table = small_server.table
        table.remove_listener(small_server.histogram)
        table.remove_listener(small_server.pa)
        dh_timer = time_updates(table, small_server.histogram)
        pa_timer = time_updates(table, small_server.pa)
        populate_clustered(small_server, 40)
        assert dh_timer.updates == 40
        assert pa_timer.updates == 40
        assert pa_timer.total_seconds > 0
        assert small_server.audit() == []

    def test_rereport_after_advance_consistent(self, small_server):
        small_server.report(0, 10.0, 10.0, 1.0, 0.0)
        small_server.advance_to(3)
        small_server.report(0, 13.0, 10.0, 1.0, 0.0)
        # All structures agree the object exists exactly once at qt=5.
        assert small_server.histogram.total_at(5) == 1
        hits = small_server.tree.range_query(Rect(0, 0, 100, 100), 5)
        assert len(hits) == 1

    def test_memory_report_keys(self, small_server):
        report = small_server.memory_report()
        assert set(report) == {"density_histogram", "polynomials", "buffer_pages"}
        assert report["density_histogram"] > 0


class TestQueryWindowErrors:
    def test_query_beyond_horizon_fails(self, populated_server):
        from repro.core.errors import HorizonError

        horizon = populated_server.config.horizon
        with pytest.raises(HorizonError):
            populated_server.query("pa", qt=horizon + 1, varrho=2.0)

    def test_fr_query_beyond_horizon_fails(self, populated_server):
        from repro.core.errors import HorizonError

        horizon = populated_server.config.horizon
        with pytest.raises(HorizonError):
            populated_server.query("fr", qt=horizon + 1, varrho=2.0)
