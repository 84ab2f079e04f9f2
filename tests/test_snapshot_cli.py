"""Tests for server snapshot persistence and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.errors import QueryError, StorageError
from repro.storage.snapshot import load_server, save_server
from tests.conftest import populate_clustered, small_system_config
from repro.core.system import PDRServer


@pytest.fixture(autouse=True)
def _small_simulate(monkeypatch):
    """`simulate` at test size: a short warm-up on a small road grid."""
    monkeypatch.setattr(cli, "SIMULATE_WARMUP", 2)
    monkeypatch.setattr(cli, "NETWORK_GRID", 8)


@pytest.fixture
def warm_server():
    server = PDRServer(small_system_config(), expected_objects=120)
    populate_clustered(server, 120, seed=5)
    server.advance_to(2)
    # A few re-reports after the advance so ring buffers are non-trivial.
    gen = np.random.default_rng(9)
    for oid in range(0, 20):
        x, y = gen.uniform(10, 90, size=2)
        server.report(oid, float(x), float(y), 0.1, -0.1)
    return server


class TestSnapshotRoundTrip:
    def test_motions_preserved(self, warm_server, tmp_path):
        path = tmp_path / "snap.npz"
        save_server(warm_server, path)
        restored = load_server(path)
        assert restored.tnow == warm_server.tnow
        assert restored.object_count() == warm_server.object_count()
        for motion in warm_server.table.motions():
            twin = restored.table.motion_of(motion.oid)
            assert twin is not None
            assert (twin.x, twin.y, twin.vx, twin.vy, twin.t_ref) == (
                motion.x, motion.y, motion.vx, motion.vy, motion.t_ref,
            )

    def test_queries_identical_after_restore(self, warm_server, tmp_path):
        path = tmp_path / "snap.npz"
        save_server(warm_server, path)
        restored = load_server(path)
        qt = warm_server.tnow + 3
        for method in ("fr", "pa", "dh-optimistic"):
            a = warm_server.query(method, qt=qt, varrho=3.0)
            b = restored.query(method, qt=qt, varrho=3.0)
            assert a.regions.symmetric_difference_area(b.regions) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_restored_server_accepts_updates(self, warm_server, tmp_path):
        path = tmp_path / "snap.npz"
        save_server(warm_server, path)
        restored = load_server(path)
        restored.report(9999, 50.0, 50.0, 0.0, 0.0)
        restored.advance_to(restored.tnow + 1)
        assert restored.object_count() == warm_server.object_count() + 1
        # Structures stay mutually consistent after restore + new updates.
        exact = restored.query("fr", qt=restored.tnow, varrho=3.0)
        oracle = restored.query("bruteforce", qt=restored.tnow, varrho=3.0)
        assert exact.regions.symmetric_difference_area(
            oracle.regions
        ) == pytest.approx(0.0, abs=1e-6)

    def test_oid_beyond_float_precision_survives_and_rereports_in_place(
        self, warm_server, tmp_path
    ):
        """Formats 2 and 3 store oids as int64.  Squeezed through float64
        (format 1) this id checkpointed as 2**53, and a re-report after the
        restore created a ghost beside it."""
        big = 2**53 + 1
        assert warm_server.report(big, 40.0, 40.0, 0.0, 0.0) is not None
        path = tmp_path / "snap.npz"
        save_server(warm_server, path)
        with np.load(path, allow_pickle=False) as data:
            assert data["motion_oid"].dtype == data["motion_t_ref"].dtype == np.int64
            assert data["motion_x"].dtype == np.float64
        restored = load_server(path)
        assert restored.table.motion_of(big) == warm_server.table.motion_of(big)
        assert restored.table.motion_of(2**53) is None
        for server in (warm_server, restored):
            assert server.report(big, 41.0, 41.0, 0.0, 0.0) is not None
        assert restored.object_count() == warm_server.object_count() == 121
        qt = restored.tnow
        assert restored.histogram.total_at(qt) == warm_server.histogram.total_at(qt)
        assert restored.audit() == []

    def test_bad_version_rejected(self, warm_server, tmp_path):
        path = tmp_path / "snap.npz"
        save_server(warm_server, path)
        data = dict(np.load(path, allow_pickle=False))
        # the float64-oid format, the zlib-compressed dense format, the
        # H + 1 slot rings, the future
        for version in (1, 2, 3, 999):
            data["format_version"] = np.int64(version)
            np.savez(path, **data)
            with pytest.raises(StorageError, match="not supported"):
                load_server(path)

    def test_restore_requires_empty_table(self, warm_server):
        with pytest.raises(QueryError):
            warm_server.table.restore([], 0)

    def test_shape_mismatch_rejected(self, warm_server):
        from repro.core.errors import InvalidParameterError

        bad = {"counts": np.zeros((2, 3, 3), dtype=np.int32),
               "slot_time": np.zeros(2, dtype=np.int64), "tnow": 0}
        with pytest.raises(InvalidParameterError):
            warm_server.histogram.load_state_arrays(bad)
        bad_pa = {"coeffs": np.zeros((2, 1, 1, 2, 2)),
                  "slot_time": np.zeros(2, dtype=np.int64), "tnow": 0}
        with pytest.raises(InvalidParameterError):
            warm_server.pa.load_state_arrays(bad_pa)

    def test_state_arrays_are_copies(self, warm_server):
        state = warm_server.histogram.state_arrays()
        state["counts"][:] = -99
        assert int(warm_server.histogram.counts_at(warm_server.tnow).min()) >= 0


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--objects", "10", "--out", "x.npz"])
        assert args.command == "simulate"
        args = parser.parse_args(
            ["query", "--snapshot", "x.npz", "--varrho", "2"]
        )
        assert args.command == "query"
        assert args.method == "pa"

    def test_query_requires_threshold(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["query", "--snapshot", "x.npz"])

    def test_simulate_then_query(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SIMULATE_WARMUP", 4)
        monkeypatch.setattr(cli, "MAX_RECTS", 2)
        snap = tmp_path / "world.npz"
        rc = main(["simulate", "--objects", "150", "--out", str(snap)])
        assert rc == 0
        assert snap.exists()
        rc = main(
            [
                "query", "--snapshot", str(snap), "--method", "pa",
                "--varrho", "3", "--offset", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dense rectangles" in out

    def test_peaks_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PEAKS_K", 2)
        monkeypatch.setattr(cli, "PEAKS_SEPARATION", 10.0)
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "120", "--out", str(snap)])
        capsys.readouterr()
        rc = main(["peaks", "--snapshot", str(snap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "density peaks" in out
        assert out.count("density 0") >= 1

    def test_query_geojson(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setattr(cli, "MAX_RECTS", 0)
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "120", "--out", str(snap)])
        capsys.readouterr()
        main(["query", "--snapshot", str(snap), "--method", "pa",
              "--varrho", "4", "--geojson"])
        out = capsys.readouterr().out
        geo_line = out.strip().splitlines()[-1]
        geo = json.loads(geo_line)
        assert geo["type"] == "MultiPolygon"

    def test_query_render(self, tmp_path, capsys):
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "100", "--out", str(snap)])
        capsys.readouterr()
        main(["query", "--snapshot", str(snap), "--method", "dh-optimistic",
              "--varrho", "2", "--render"])
        out = capsys.readouterr().out
        assert "\n" in out
        # The render block is 30 lines of 60 chars.
        lines = out.strip().splitlines()
        assert any(len(line) == 60 for line in lines)

    def test_query_with_deadline_reports_actual_method(self, tmp_path, capsys):
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "100", "--out", str(snap)])
        capsys.readouterr()
        rc = main(["query", "--snapshot", str(snap), "--method", "fr",
                   "--varrho", "2", "--deadline", "60"])
        assert rc == 0
        captured = capsys.readouterr()
        # a generous budget: FR answers itself, nothing degrades
        assert captured.out.startswith("fr @")
        assert "degraded" not in captured.err


class TestCLIErrorMapping:
    """Every ReproError family maps to one stderr line + a distinct code."""

    def test_missing_snapshot_is_a_storage_error(self, tmp_path, capsys):
        rc = main(["query", "--snapshot", str(tmp_path / "absent.npz"),
                   "--varrho", "2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: StorageError")

    def test_invalid_parameter_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "80", "--out", str(snap)])
        capsys.readouterr()
        rc = main(["query", "--snapshot", str(snap), "--varrho", "2",
                   "--deadline", "-5"])
        assert rc == 2
        assert "error: InvalidParameterError" in capsys.readouterr().err

    def test_horizon_violation_exits_4(self, tmp_path, capsys):
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "80", "--out", str(snap)])
        capsys.readouterr()
        rc = main(["query", "--snapshot", str(snap), "--varrho", "2",
                   "--offset", "10000"])
        assert rc == 4
        assert "error: HorizonError" in capsys.readouterr().err

    def test_exit_codes_are_distinct_and_nonzero(self):
        from repro.cli import EXIT_CODES

        codes = [code for _cls, code in EXIT_CODES]
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)


class TestServingCLI:
    """The reliability surface: --reliability-report and `repro reliability`
    (a replicated group is served by `repro serve --replicas`)."""

    def _snapshot(self, tmp_path):
        snap = tmp_path / "world.npz"
        main(["simulate", "--objects", "120", "--out", str(snap)])
        return snap

    def test_reliability_report_flag_emits_json(self, tmp_path, capsys):
        import json

        snap = self._snapshot(tmp_path)
        capsys.readouterr()
        rc = main(["query", "--snapshot", str(snap), "--method", "pa",
                   "--varrho", "2", "--reliability-report"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.err.strip().splitlines()[-1])
        assert report["role"] == "primary"
        assert report["queries_served"] == 1
        assert "dead_letter_total" in report

    def test_reliability_subcommand_reads_a_state_dir(self, tmp_path, capsys):
        import json

        from repro.reliability.validation import ReliabilityConfig

        state_dir = str(tmp_path / "state")
        server = PDRServer(
            small_system_config(),
            expected_objects=60,
            reliability=ReliabilityConfig(state_dir=state_dir, fsync=False),
        )
        populate_clustered(server, 60, seed=3)
        server.report(0, float("nan"), 1.0, 0.0, 0.0)  # one dead-lettered report
        assert server.reliability_report()["dead_letter_total"] == 1
        server.advance_to(2)
        server.close()
        rc = main(["reliability", "--state-dir", state_dir])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["wal_lsn"] == server.wal_lsn
        # dead letters are deliberately not durable: a rejected report never
        # reached the WAL, so the recovered process starts a fresh ledger
        assert report["dead_letter_total"] == 0
        assert "dead_letter_counts" in report
        assert report["role"] == "primary"

    def test_replication_errors_exit_7(self):
        from repro.cli import EXIT_CODES
        from repro.core.errors import NotPrimaryError, StalenessExceededError

        def code_for(exc):
            for cls, code in EXIT_CODES:
                if isinstance(exc, cls):
                    return code
            raise AssertionError("unmapped")

        assert code_for(NotPrimaryError("x")) == 7
        # a staleness violation is a serving problem, not a bad query
        assert code_for(StalenessExceededError("x")) == 7
