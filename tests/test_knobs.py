"""Every setting of the serving stack, pinned.

A field stays on a config only when it is a deployment setting, gates a
capability, or has two callers outside the tests that set it to
different values; everything else is a module constant.  These sets make
a new knob a visible diff, and every flag that forwards a field (or a
builder's parameter) must default to that field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro import cli
from repro.reliability import replication
from repro.reliability.admission import AdmissionConfig
from repro.reliability.chaos import ChaosConfig
from repro.serving.client import ClientConfig
from repro.serving.loadtest import LoadTestConfig, build_serving_group, seeded_primary
from repro.serving.server import ServingConfig
from repro.serving.supervisor import SupervisorConfig

FIELDS = {
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
        **{flag: (ChaosConfig, name) for flag, name in cli.CHAOS_VALUE_FLAGS},
    },
}

# the flags that forward nothing: a path, a target, or a switch of the CLI
UNFORWARDED = {
    "serve": {"--snapshot", "--state-dir", "--metrics-port", "--force-recover"},
    "supervise": set(),
    "loadtest": {"--host", "--port", "--journal-dir", "--json-out"},
}


def _flags(command: str) -> dict:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        option: action
        for action in sub.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _default(owner, name):
    if dataclasses.is_dataclass(owner):
        (found,) = [f for f in dataclasses.fields(owner) if f.name == name]
        return found.default
    return inspect.signature(owner).parameters[name].default


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
    assert sum(len(fields) for fields in FIELDS.values()) == 38


@pytest.mark.parametrize("command", list(UNFORWARDED))
def test_serving_flags_are_pinned(command):
    assert set(_flags(command)) == set(FORWARDED[command]) | UNFORWARDED[command]


@pytest.mark.parametrize("command", list(FORWARDED))
def test_each_forwarding_flag_defaults_to_its_field(command):
    flags = _flags(command)
    for flag, (owner, name) in FORWARDED[command].items():
        assert flags[flag].default == _default(owner, name), (command, flag)
