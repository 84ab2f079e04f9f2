"""Tests for interval-level filtering and the optimised interval FR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.query import IntervalPDRQuery
from repro.histogram.interval_filter import filter_query_interval
from repro.methods.interval import evaluate_interval, evaluate_interval_fr
from tests.conftest import populate_clustered
from repro.core.system import PDRServer


@pytest.fixture
def server(small_config):
    srv = PDRServer(small_config, expected_objects=150)
    populate_clustered(srv, 150, seed=4)
    return srv


def make_interval(server, varrho, qt1, qt2):
    base = server.make_query(qt=qt1, varrho=varrho)
    return IntervalPDRQuery(rho=base.rho, l=base.l, qt1=qt1, qt2=qt2)


class TestIntervalFilter:
    def test_window_validation(self, server):
        horizon = server.config.horizon
        query = make_interval(server, 2.0, 0, horizon + 1)
        with pytest.raises(InvalidParameterError):
            filter_query_interval(server.histogram, query)

    def test_masks_partition_cells(self, server):
        query = make_interval(server, 3.0, 0, 4)
        result = filter_query_interval(server.histogram, query)
        m = server.histogram.m
        total = result.accepted_count + result.rejected_count + result.candidate_count
        assert total == m * m
        assert not (result.accepted & result.rejected).any()
        assert not (result.accepted & result.candidate).any()

    def test_single_timestamp_matches_snapshot_filter(self, server):
        from repro.histogram.filter import filter_query

        query = make_interval(server, 3.0, 2, 2)
        interval = filter_query_interval(server.histogram, query)
        snapshot = filter_query(server.histogram, server.make_query(qt=2, varrho=3.0))
        assert (interval.accepted == snapshot.accepted).all()
        assert (interval.rejected == snapshot.rejected).all()
        assert (interval.candidate == snapshot.candidate).all()

    def test_accepted_grows_with_interval_length(self, server):
        short = filter_query_interval(
            server.histogram, make_interval(server, 3.0, 0, 0)
        )
        long = filter_query_interval(
            server.histogram, make_interval(server, 3.0, 0, 6)
        )
        # Union semantics: accepted cells accumulate, rejected cells shrink.
        assert (short.accepted & ~long.accepted).sum() == 0
        assert (long.rejected & ~short.rejected).sum() == 0

    def test_pending_covers_candidates(self, server):
        query = make_interval(server, 3.0, 0, 4)
        result = filter_query_interval(server.histogram, query)
        assert sorted(result.pending) == [s.qt for s in query.snapshots()]
        ever_pending = np.logical_or.reduce(list(result.pending.values()))
        # Pending cells are union candidates, never union-accepted ones ...
        assert not (ever_pending & ~result.candidate).any()
        assert not (ever_pending & result.accepted).any()
        # ... and every union-candidate cell is pending at >= 1 timestamp.
        assert np.array_equal(ever_pending, result.candidate)

    def test_refinement_snapshots_counted(self, server):
        query = make_interval(server, 3.0, 0, 3)
        result = filter_query_interval(server.histogram, query)
        assert result.refinement_snapshots() == sum(
            int(mask.sum()) for mask in result.pending.values()
        )
        assert result.refinement_snapshots() >= result.candidate_count


class TestOptimizedIntervalFR:
    def test_matches_naive_union(self, server):
        from repro.methods.fr import FRMethod

        fr = FRMethod(server.histogram, server.tree)
        query = make_interval(server, 3.0, 0, 4)
        naive = evaluate_interval(lambda s: fr.query(s), query)
        optimized = evaluate_interval_fr(fr, query)
        assert optimized.regions.symmetric_difference_area(
            naive.regions
        ) == pytest.approx(0.0, abs=1e-6)

    def test_saves_refinement_work(self, server):
        from repro.methods.fr import FRMethod

        fr = FRMethod(server.histogram, server.tree)
        query = make_interval(server, 3.0, 0, 6)
        naive = evaluate_interval(lambda s: fr.query(s), query)
        optimized = evaluate_interval_fr(fr, query)
        # The optimised evaluator inspects at most as many objects (it skips
        # refinement at timestamps covered by union-accepted cells).
        assert optimized.stats.objects_examined <= naive.stats.objects_examined
        assert optimized.stats.method == "fr-interval"

    def test_stats_fields(self, server):
        from repro.methods.fr import FRMethod

        fr = FRMethod(server.histogram, server.tree)
        query = make_interval(server, 3.0, 1, 3)
        result = evaluate_interval_fr(fr, query)
        m2 = server.histogram.m ** 2
        assert (
            result.stats.accepted_cells
            + result.stats.rejected_cells
            + result.stats.candidate_cells
            == m2
        )
        assert "refinement_snapshots" in result.stats.extra
