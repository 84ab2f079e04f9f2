"""Every setting of the program, pinned.

A config field, builder parameter or CLI flag stays only when it is a
deployment setting (a path, address or port), gates a capability, or has
two callers outside the tests that set it to different values; everything
else is a module constant read where it is used.  These sets make a new
knob a visible diff: every dataclass named ``*Config`` under ``repro`` and
every subcommand's flags are listed here, and every flag that forwards a
field (or a builder's parameter) must default to that field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import cli
from repro.core.config import SystemConfig
from repro.reliability import replication
from repro.reliability.admission import AdmissionConfig
from repro.reliability.chaos import ChaosConfig
from repro.reliability.validation import ReliabilityConfig, ResourceConfig
from repro.serving.client import ClientConfig
from repro.serving.loadtest import LoadTestConfig, build_serving_group, seeded_primary
from repro.serving.server import ServingConfig
from repro.serving.supervisor import SupervisorConfig
from repro.telemetry import Telemetry

FIELDS = {
    # the paper's Table 1; the page model is storage/pages.py's constants
    SystemConfig: {
        "domain", "max_update_interval", "prediction_window", "l",
        "histogram_cells", "polynomial_grid", "polynomial_degree",
        "evaluation_grid",
    },
    ReliabilityConfig: {
        "state_dir", "checkpoint_interval", "fsync", "faults", "resources",
    },
    ResourceConfig: {"soft_limit_bytes", "hard_limit_bytes"},
    ChaosConfig: {
        "seed", "events", "shrink", "network", "resources", "crashpoint",
    },
    SupervisorConfig: {
        "serve_args", "host", "port", "seed",
        "arm_crashpoint", "arm_after", "arm_torn",
    },
    ServingConfig: {
        "host", "port", "read_timeout", "write_timeout", "drain_deadline",
        "primary_address",
    },
    ClientConfig: {
        "connect_timeout", "request_timeout", "max_attempts", "backoff_base",
        "backoff_cap", "retry_after_cap", "seed", "breaker_threshold",
        "breaker_probation_seconds", "trace_sample", "trace_buffer",
    },
    LoadTestConfig: {
        "mix", "mode", "duration", "rate", "concurrency", "seed", "objects",
        "report_slo_p99_ms", "query_slo_p99_ms", "max_failure_ratio",
        "kill_primary_at", "trace_sample",
    },
    AdmissionConfig: {"rate", "burst"},
}

# flag -> (the dataclass or builder it forwards to, the field or parameter)
FORWARDED = {
    "serve": {
        "--host": (ServingConfig, "host"),
        "--port": (ServingConfig, "port"),
        "--objects": (seeded_primary, "objects"),
        "--seed": (seeded_primary, "seed"),
        "--fsync": (seeded_primary, "fsync"),
        "--checkpoint-interval": (seeded_primary, "checkpoint_interval"),
        "--replicas": (build_serving_group, "replicas"),
        "--staleness": (build_serving_group, "staleness"),
        "--admission-rate": (build_serving_group, "admission_rate"),
    },
    "supervise": {
        "--host": (SupervisorConfig, "host"),
        "--port": (SupervisorConfig, "port"),
    },
    "loadtest": {
        "--mix": (LoadTestConfig, "mix"),
        "--mode": (LoadTestConfig, "mode"),
        "--duration": (LoadTestConfig, "duration"),
        "--rate": (LoadTestConfig, "rate"),
        "--concurrency": (LoadTestConfig, "concurrency"),
        "--seed": (LoadTestConfig, "seed"),
        "--objects": (LoadTestConfig, "objects"),
        "--kill-primary-at": (LoadTestConfig, "kill_primary_at"),
        "--report-slo-ms": (LoadTestConfig, "report_slo_p99_ms"),
        "--query-slo-ms": (LoadTestConfig, "query_slo_p99_ms"),
        "--max-failure-ratio": (LoadTestConfig, "max_failure_ratio"),
        "--trace-sample": (LoadTestConfig, "trace_sample"),
        "--replicas": (build_serving_group, "replicas"),
        "--admission-rate": (build_serving_group, "admission_rate"),
    },
    "chaos": {
        "--seed": (ChaosConfig, "seed"),
        "--events": (ChaosConfig, "events"),
        "--crashpoint": (ChaosConfig, "crashpoint"),
    },
}

# The flags that forward no field, each for the rule's reason: a path, an
# address or port, a switch that gates a capability, or the question the
# command answers (a query's method, threshold and time; a journal filter),
# which two callers outside the tests set to different values.
UNFORWARDED = {
    "simulate": {"--objects", "--out", "--metrics-out"},
    "query": {
        "--snapshot", "--method", "--varrho", "--offset", "--deadline",
        "--render", "--geojson", "--reliability-report", "--metrics-out",
    },
    "peaks": {"--snapshot"},
    "report": set(),
    "reliability": {"--state-dir"},
    "verify": {"--state-dir", "--json", "--scrub"},
    "chaos": {"--no-shrink", "--network", "--resources", "--process", "--repro-out"},
    "serve": {"--snapshot", "--state-dir", "--metrics-port", "--force-recover"},
    "supervise": set(),
    "loadtest": {"--host", "--port", "--journal-dir", "--json-out"},
    "journal": {"--dir", "--state-dir", "--event", "--tail", "--format"},
    "trace": {"--dir", "--state-dir", "--from"},
    "top": {"--host", "--port", "--once"},
    "metrics": {"--from", "--format", "--out", "--serve"},
}


def _subparsers() -> dict:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(command: str) -> dict:
    return {
        option: action
        for action in _subparsers()[command]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _default(owner, name):
    if dataclasses.is_dataclass(owner):
        (found,) = [f for f in dataclasses.fields(owner) if f.name == name]
        return found.default
    return inspect.signature(owner).parameters[name].default


def _configs_under_repro() -> set:
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # running it is the CLI
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                inspect.isclass(value) and dataclasses.is_dataclass(value)
                and name.endswith("Config") and value.__module__ == module.__name__
            ):
                found.add(value)
    return found


def test_every_config_dataclass_is_pinned():
    assert _configs_under_repro() == set(FIELDS)


@pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert {f.name for f in dataclasses.fields(config)} == FIELDS[config]


def test_replication_has_no_config_object():
    configs = [
        name for name, value in vars(replication).items()
        if dataclasses.is_dataclass(value) and name.endswith("Config")
        and value.__module__ == replication.__name__
    ]
    assert configs == []
    assert "staleness_bound" in inspect.signature(replication.ReplicationGroup).parameters


def test_the_knob_counts():
    """59 config fields (38 of the serving stack, 21 of the paper, the
    reliability layer and chaos), the telemetry hub's on/off switch, and 73
    flags on 14 subcommands."""
    assert sum(len(fields) for fields in FIELDS.values()) == 59
    assert set(inspect.signature(Telemetry).parameters) == {"enabled"}
    assert set(_subparsers()) == set(UNFORWARDED)
    assert sum(len(_flags(command)) for command in UNFORWARDED) == 73


def _assert_flags_pinned(command: str) -> None:
    assert set(_flags(command)) == set(FORWARDED.get(command, {})) | UNFORWARDED[command]


@pytest.mark.parametrize("command", ["serve", "supervise", "loadtest"])
def test_serving_flags_are_pinned(command):
    _assert_flags_pinned(command)


@pytest.mark.parametrize(
    "command", [c for c in UNFORWARDED if c not in ("serve", "supervise", "loadtest")]
)
def test_command_flags_are_pinned(command):
    _assert_flags_pinned(command)


@pytest.mark.parametrize("command", list(FORWARDED))
def test_each_forwarding_flag_defaults_to_its_field(command):
    flags = _flags(command)
    for flag, (owner, name) in FORWARDED[command].items():
        assert flags[flag].default == _default(owner, name), (command, flag)
