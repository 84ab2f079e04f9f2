"""The chaos scheduler's process plane: one real run, plus its contract.

The sweep over every crashpoint × seed is ``repro chaos --process
--seed N`` in CI; here one representative run goes for real —
crash-before-manifest-rename, the classic window — to keep the plane
honest, and the pure parts (site refusal, seed-derived arming, the rerun
line) are checked exhaustively.
"""

from __future__ import annotations

import os
import shlex

import pytest

from repro import cli
from repro.core.errors import InvalidParameterError
from repro.reliability.chaos import (
    ChaosConfig,
    ChaosFailure,
    ChaosResult,
    ChaosScheduler,
)
from repro.reliability.faults import CRASH_SITES
from repro.telemetry import read_journal


def test_unknown_site_is_rejected_up_front(capsys):
    with pytest.raises(InvalidParameterError, match="not on the process plane"):
        ChaosConfig(crashpoint="wal.appendix")
    # a valid arm() site that no serve workload reaches is refused too,
    # with exit 2 and before any process is spawned
    with pytest.raises(InvalidParameterError):
        ChaosConfig(crashpoint="wal.reopen")
    assert cli.main(["chaos", "--process", "--crashpoint", "wal.reopen"]) == 2
    # the process plane runs alone, and --crashpoint belongs to it
    with pytest.raises(InvalidParameterError):
        ChaosConfig(crashpoint="wal.append", resources=True)
    assert cli.main(["chaos", "--process", "--network"]) == 2
    assert cli.main(["chaos", "--crashpoint", "wal.append"]) == 2
    capsys.readouterr()


def test_seed_derived_arming_varies_and_stays_reachable():
    afters = {ChaosConfig(crashpoint="wal.append", seed=s).arm_after
              for s in range(20)}
    assert len(afters) > 1  # different seeds die at different depths
    assert all(a >= 3 for a in afters)  # but never before real traffic
    for seed in range(20):
        config = ChaosConfig(crashpoint="checkpoint.manifest", seed=seed)
        assert config.arm_after <= 1  # once-per-checkpoint sites stay low
        assert config.arm_torn is None  # torn is wal_write-only
        torn = ChaosConfig(crashpoint="wal_write", seed=seed).arm_torn
        assert 0.0 < torn < 1.0


def test_reproducer_carries_the_rerun_command():
    config = ChaosConfig(crashpoint="wal_fsync", seed=9)
    result = ChaosResult(
        ok=False, seed=9, events_run=3, rerun=cli.chaos_rerun(config),
        failure=ChaosFailure(2, ("advance",), "no-acked-write-loss", "..."),
    )
    as_dict = result.to_dict()
    assert as_dict["rerun"] == (
        "repro chaos --process --crashpoint wal_fsync --seed 9"
    )
    assert "wal_fsync" in result.format_reproducer()
    assert "rerun:" in result.format_reproducer()
    # every plane's rerun line names exactly the non-default flags
    assert cli.chaos_rerun(ChaosConfig(seed=4, events=120, resources=True,
                                       shrink=False)) == (
        "repro chaos --events 120 --no-shrink --resources --seed 4"
    )


@pytest.mark.parametrize("config", [
    ChaosConfig(),
    ChaosConfig(seed=4, events=120, resources=True, shrink=False),
    ChaosConfig(seed=7, network=True, resources=True),
    ChaosConfig(seed=9, events=60, crashpoint="wal_fsync", shrink=False),
])
def test_rerun_line_parses_back_to_its_config(config):
    argv = shlex.split(cli.chaos_rerun(config))
    assert argv[:2] == ["repro", "chaos"]
    args = cli.build_parser().parse_args(argv[1:])
    assert cli.chaos_configs(args) == [config]


def test_process_plane_never_shrinks(tmp_path, monkeypatch):
    # a failing process run is not replayable event for event: its
    # reproducer is the rerun line, never a shrunk schedule
    failing = ChaosFailure(0, ("advance",), "process-liveness", "...")
    monkeypatch.setattr(ChaosScheduler, "execute",
                        lambda self, events: (failing, {}, str(tmp_path)))
    monkeypatch.setattr(ChaosScheduler, "shrink", lambda self, events: 1 / 0)
    result = ChaosScheduler(ChaosConfig(crashpoint="wal_fsync"),
                            str(tmp_path)).run()
    assert not result.ok and result.reproducer is None
    assert "minimal reproducer" not in result.format_reproducer()


def test_one_cell_end_to_end_crash_before_manifest_rename(tmp_path):
    config = ChaosConfig(crashpoint="checkpoint.manifest", seed=2, events=60)
    assert config.crashpoint in CRASH_SITES
    result = ChaosScheduler(config, str(tmp_path)).run()
    assert result.ok, result.format_reproducer()
    # the crash actually happened, once, and the client saw the recovery
    assert result.stats["restarts"] == 1
    wire = result.stats["wire"]
    assert wire["generation"] >= 1
    assert result.stats["acked_after_restart"] >= 8
    # the durability verdicts the plane exists for
    assert wire["max_acked_lsn"] > 0
    assert result.stats["recovered_lsn"] >= wire["max_acked_lsn"]
    # the supervisor's journal is the evidence: the armed child died by
    # SIGKILL (at this seed, in its boot checkpoint), then one backoff and
    # a ready restart at a bumped recovery generation
    journal = os.path.join(result.final_state_dir, "journal")
    exits = read_journal(journal, event="supervise.exit")
    assert exits[0]["code"] == 137
    assert len(read_journal(journal, event="supervise.backoff")) == 1
    assert read_journal(journal, event="supervise.ready")[-1]["generation"] >= 1
