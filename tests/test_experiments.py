"""Tests for the experiment harness (smoke profile) and its helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.geometry import Rect
from repro.core.regions import RegionSet
from repro.experiments.config import PROFILES, ScaleProfile, active_profile
from repro.experiments.datasets import (
    WorldSpec,
    build_world,
    clear_world_cache,
    get_world,
    medium_world_spec,
    plain_world_spec,
)
from repro.experiments.report import format_table, format_value
from repro.experiments.table1 import run_table1
from repro.experiments.viz import render_points, render_region, side_by_side

TINY = ScaleProfile(
    name="tiny",
    small=80,
    medium=150,
    large=300,
    n_queries=1,
    warmup=4,
    network_grid=10,
    raster_resolution=256,
)


@pytest.fixture(scope="module")
def tiny_world():
    spec = WorldSpec(
        n_objects=150,
        warmup=4,
        network_grid=10,
        extra_pa=((8, 3, 30.0), (10, 5, 60.0)),
        extra_histograms=(100,),
    )
    return build_world(spec, raster_resolution=256)


class TestProfiles:
    def test_profiles_exist(self):
        assert {"smoke", "default", "paper"} <= set(PROFILES)

    def test_paper_sizes(self):
        p = PROFILES["paper"]
        assert p.sizes == (10_000, 100_000, 500_000)
        assert p.n_queries == 20

    def test_dataset_names(self):
        p = PROFILES["paper"]
        assert p.dataset_name(100_000) == "CH100K"
        assert p.dataset_name(2500) == "CH2500"

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_profile().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(InvalidParameterError):
            active_profile()

    def test_active_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_profile().name == "default"


class TestWorldBuilding:
    def test_world_is_warm(self, tiny_world):
        assert tiny_world.server.tnow == 4
        assert tiny_world.server.object_count() == 150
        assert tiny_world.simulator.reports_issued >= 150

    def test_variant_structures_maintained(self, tiny_world):
        qt = tiny_world.server.tnow
        pa60 = tiny_world.pa_for(60.0, g=10, k=5)
        assert pa60.l == 60.0
        # The variant saw the same updates as the primary.
        assert tiny_world.extra_pa_timers[(10, 5, 60.0)].updates > 0
        assert tiny_world.histogram_for(100).total_at(qt) > 0

    def test_pa_for_primary(self, tiny_world):
        primary = tiny_world.pa_for(30.0)
        assert primary is tiny_world.server.pa

    def test_pa_for_unknown_raises(self, tiny_world):
        with pytest.raises(InvalidParameterError):
            tiny_world.pa_for(45.0)

    def test_histogram_for_unknown_raises(self, tiny_world):
        with pytest.raises(InvalidParameterError):
            tiny_world.histogram_for(123)

    def test_query_times_within_window(self, tiny_world):
        w = tiny_world.server.config.prediction_window
        times = tiny_world.query_times(10)
        tnow = tiny_world.server.tnow
        assert all(tnow <= qt <= tnow + w for qt in times)

    def test_exact_answer_cached(self, tiny_world):
        q = tiny_world.server.make_query(qt=tiny_world.server.tnow, varrho=2.0)
        a = tiny_world.exact_answer(q)
        b = tiny_world.exact_answer(q)
        assert a is b

    def test_get_world_memoises(self):
        clear_world_cache()
        spec = WorldSpec(n_objects=30, warmup=2, network_grid=6)
        w1 = get_world(spec, raster_resolution=128)
        w2 = get_world(spec, raster_resolution=128)
        assert w1 is w2
        clear_world_cache()

    def test_spec_helpers(self):
        spec = medium_world_spec(TINY)
        assert spec.n_objects == TINY.medium
        assert (20, 5, 60.0) in spec.extra_pa
        plain = plain_world_spec(TINY, 80)
        assert plain.extra_pa == ()


class TestFigureRunners:
    def test_fig7(self, tiny_world):
        from repro.experiments.fig7_example import run_fig7

        result = run_fig7(TINY, world=tiny_world)
        assert result.fr_rects > 0
        assert result.pa_rects > 0
        assert 0.0 <= result.jaccard <= 1.0
        combined = result.combined()
        assert "(a) objects" in combined
        assert "(b) dense regions (FR)" in combined

    def test_fig8ab_shapes(self, tiny_world):
        from repro.experiments.fig8_accuracy import run_fig8ab

        rows = run_fig8ab(TINY, world=tiny_world)
        # (l in {30, 60}) x (varrho in 1..5) rows.
        assert len(rows) == 10
        for row in rows:
            assert row["r_fn_pa_pct"] >= 0.0
            assert row["r_fp_dh_optimistic_pct"] >= 0.0

    def test_fig8cd_memory_sweep(self, tiny_world):
        from repro.experiments.fig8_accuracy import run_fig8cd

        rows = run_fig8cd(TINY, world=tiny_world)
        pa_rows = [r for r in rows if r["method"] == "PA"]
        dh_rows = [r for r in rows if r["method"] == "DH"]
        assert len(pa_rows) >= 2  # primary + at-l variants
        assert len(dh_rows) == 2  # primary + m=100
        mems = [r["memory_mb"] for r in pa_rows]
        assert mems == sorted(mems)

    def test_fig9(self, tiny_world):
        from repro.experiments.fig9_cpu import run_fig9a, run_fig9b

        rows_a = run_fig9a(TINY, world=tiny_world)
        assert len(rows_a) == 10
        assert all(r["pa_cpu_s"] >= 0 for r in rows_a)
        rows_b = run_fig9b(TINY, world=tiny_world)
        structures = {r["structure"] for r in rows_b}
        assert structures == {"DH", "PA"}
        assert all(r["updates"] > 0 for r in rows_b)

    def test_fig9a_times_every_filter_call_cold(self, tiny_world, monkeypatch):
        """The sweep reuses its ``qts`` under every threshold: a timed call
        that found the block sums memoised would time two dict lookups."""
        from repro.experiments import fig9_cpu
        from repro.histogram.filter import filter_query

        grown = []

        def counted(histogram, query):
            before = histogram.cache_misses, histogram.cache_hits
            result = filter_query(histogram, query)
            grown.append(
                (histogram.cache_misses - before[0], histogram.cache_hits - before[1])
            )
            return result

        monkeypatch.setattr(fig9_cpu, "filter_query", counted)
        fig9_cpu.run_fig9a(TINY, world=tiny_world)
        # cold: the prefix sums and both block sums miss; the one hit is the
        # second block sum finding the prefix the first one built
        assert grown == [(3, 1)] * 10

    def test_fig10a(self, tiny_world):
        from repro.experiments.fig10_cost import run_fig10a

        rows = run_fig10a(TINY, world=tiny_world)
        assert len(rows) == 10
        for row in rows:
            assert row["fr_total_s"] >= row["fr_io_s"]
            assert row["speedup"] > 0

    def test_table1(self):
        rows = run_table1(TINY)
        params = {r["parameter"] for r in rows}
        assert "Time horizon (H = U + W)" in params
        assert "Degree of polynomial (k)" in params


class TestVizAndReport:
    def test_render_points(self):
        art = render_points([(10.0, 10.0), (90.0, 90.0)], Rect(0, 0, 100, 100),
                            width=10, height=5)
        lines = art.splitlines()
        assert len(lines) == 5
        assert all(len(line) == 10 for line in lines)
        assert any(ch != " " for ch in art)

    def test_render_region(self):
        region = RegionSet([Rect(0, 0, 50, 50)])
        art = render_region(region, Rect(0, 0, 100, 100), width=10, height=10)
        lines = art.splitlines()
        # Bottom-left quadrant filled (rendering flips y).
        assert lines[-1][0] == "#"
        assert lines[0][-1] == "."

    def test_render_validation(self):
        with pytest.raises(InvalidParameterError):
            render_points([], Rect(0, 0, 1, 1), width=0)
        with pytest.raises(InvalidParameterError):
            render_region(RegionSet(), Rect(0, 0, 1, 1), height=0)

    def test_side_by_side(self):
        merged = side_by_side([("A", "xx\nyy"), ("B", "zz")])
        lines = merged.splitlines()
        assert "A" in lines[0] and "B" in lines[0]
        assert len(lines) == 3

    def test_format_value(self):
        assert format_value(0) == "0"
        assert format_value(0.123456) == "0.1235"
        assert format_value(12345.0) == "12,345"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value("abc") == "abc"

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], title="T")
        assert text.startswith("T")
        assert "a" in text and "2.5" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])
