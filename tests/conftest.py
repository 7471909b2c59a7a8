"""Shared fixtures: small configs, banks, and traces for fast tests."""

from __future__ import annotations

import pytest

from repro.config import (
    SystemConfig,
    baseline_nvm,
    fgnvm,
    fgnvm_multi_issue,
    many_banks,
)
from repro.config.params import TimingParams
from repro.memsys.address import AddressMapper
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import StatsCollector
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord


def small_org(config: SystemConfig) -> SystemConfig:
    """Shrink a preset for unit tests (fewer rows, same semantics)."""
    config.org.rows_per_bank = 256
    config.sim.max_cycles = 5_000_000
    return config


@pytest.fixture
def baseline_config() -> SystemConfig:
    return small_org(baseline_nvm())


@pytest.fixture
def fgnvm_config() -> SystemConfig:
    return small_org(fgnvm(4, 4))


@pytest.fixture
def fgnvm82_config() -> SystemConfig:
    return small_org(fgnvm(8, 2))


@pytest.fixture
def many_banks_config() -> SystemConfig:
    return small_org(many_banks(4, 4))


@pytest.fixture
def multi_issue_config() -> SystemConfig:
    return small_org(fgnvm_multi_issue(4, 4))


@pytest.fixture
def timing_cycles():
    return TimingParams().cycles()


@pytest.fixture
def stats() -> StatsCollector:
    return StatsCollector()


def make_read(mapper: AddressMapper, bank=0, row=0, col=0) -> MemRequest:
    """A decoded read request at explicit coordinates."""
    address = mapper.encode(bank=bank, row=row, col=col)
    req = MemRequest(OpType.READ, address)
    req.decoded = mapper.decode(address)
    return req


def make_write(mapper: AddressMapper, bank=0, row=0, col=0) -> MemRequest:
    """A decoded write request at explicit coordinates."""
    address = mapper.encode(bank=bank, row=row, col=col)
    req = MemRequest(OpType.WRITE, address)
    req.decoded = mapper.decode(address)
    return req


def flat_trace(count: int, gap: int = 10, stride: int = 64,
               op: OpType = OpType.READ):
    """A simple sequential trace of ``count`` records."""
    return PackedTrace.from_records(
        TraceRecord(gap, op, i * stride) for i in range(count)
    )
