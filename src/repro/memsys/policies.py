"""The (scheduler, bank-organisation) policy registry.

The paper's FgNVM design is one point in the design space the related
work maps out; this module turns PR 5's ``REPRO_SCHEDULER`` switch into
a real registry of named policies, each declaring:

* a **fast implementation** — the incremental min-scan policy the
  controller runs by default,
* a **brute-force reference oracle** — an independently-coded
  filter+sort policy the differential/property suites (and
  ``REPRO_SCHEDULER=reference``) pin the fast one against,
* **capability flags** — what the ranking assumes of the bank
  organisation (today: reads proceeding under an in-flight write) and,
  optionally, a pinned :class:`~repro.config.params.BankArchitecture`.

Registered built-ins:

========================  ============================================
``fcfs``                  Relaxed FCFS (oldest issuable first).
``frfcfs-incremental``    Table 2's FRFCFS [Rixner et al., ISCA'00];
                          the repo-wide default.
``palp``                  PALP-style read/write partition overlap
                          [Song, Das, Mutlu et al.]; requires an
                          organisation that allows reads under writes.
``salp``                  SALP-style organisation [Kim et al.,
                          ISCA'12]: FRFCFS ranking over a bank exposing
                          subarray-level parallelism only (pinned
                          ``BankArchitecture.SALP``).
``rbla``                  Row-buffer-locality-aware ranking
                          [Meza et al., CAL'12].
========================  ============================================

The controller resolves its scheduler through
:func:`resolve_scheduler`; configs opt into a policy via
``ControllerParams.policy`` or :func:`apply_policy`; the environment
variable ``REPRO_SCHEDULER`` can force the oracle (``reference``) or a
different registered policy's fast implementation for differential CI
runs.  Every resolution error lists the registered names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config.params import (
    BankArchitecture,
    ControllerParams,
    SchedulerKind,
    SystemConfig,
)
from ..errors import ConfigError, SchedulerError
from .scheduler import (
    SCHEDULER_ENV,
    FcfsScheduler,
    FrfcfsScheduler,
    IncrementalFcfs,
    IncrementalFrfcfs,
    IncrementalPalp,
    IncrementalRbla,
    PalpReference,
    RblaReference,
    SchedulingPolicy,
)


@dataclass(frozen=True)
class OrganisationCaps:
    """What a bank organisation physically permits.

    ``reads_under_write`` — a read can be serviced somewhere in a bank
    while a write is in flight to the same bank (FgNVM's Backgrounded
    Writes, SALP's per-subarray occupancy).  ``multiple_open_rows`` —
    more than one row buffered per bank.  ``partial_activation`` —
    an activation senses less than the full row.
    """

    reads_under_write: bool
    multiple_open_rows: bool
    partial_activation: bool


#: Capability table per architecture.  BASELINE's single (SAG, CD) means
#: a write parks the whole bank; MANY_BANKS units are 1x1 baseline banks
#: (the parallelism is *between* units, which to a scheduler keyed on
#: one bank's in-flight writes is invisible), so both forbid
#: reads-under-write.
ORGANISATION_CAPS: Dict[BankArchitecture, OrganisationCaps] = {
    BankArchitecture.BASELINE: OrganisationCaps(
        reads_under_write=False, multiple_open_rows=False,
        partial_activation=False,
    ),
    BankArchitecture.FGNVM: OrganisationCaps(
        reads_under_write=True, multiple_open_rows=True,
        partial_activation=True,
    ),
    BankArchitecture.MANY_BANKS: OrganisationCaps(
        reads_under_write=False, multiple_open_rows=False,
        partial_activation=True,
    ),
    BankArchitecture.SALP: OrganisationCaps(
        reads_under_write=True, multiple_open_rows=True,
        partial_activation=False,
    ),
}


@dataclass(frozen=True)
class PolicySpec:
    """One registry entry: a named (scheduler pair, organisation) policy."""

    name: str
    description: str
    citation: str
    #: Factory for the fast (incremental) implementation.
    fast: Callable[[], SchedulingPolicy]
    #: Factory for the brute-force reference oracle.
    oracle: Callable[[], SchedulingPolicy]
    #: Organisation the policy pins (``apply_policy`` re-architects the
    #: config); ``None`` leaves the config's architecture alone.
    organisation: Optional[BankArchitecture] = None
    #: The ranking assumes reads can proceed under in-flight writes;
    #: pairing with an organisation whose caps forbid that is an error.
    requires_reads_under_write: bool = False


_REGISTRY: Dict[str, PolicySpec] = {}

#: Env values forcing the *selected* policy's oracle implementation.
_ORACLE_ALIASES = ("reference", "oracle")


def policy_names() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_policies() -> Dict[str, PolicySpec]:
    """A snapshot of the registry (mutating it changes nothing)."""
    return dict(_REGISTRY)


def _known() -> str:
    return ", ".join(policy_names()) or "<none>"


def get_policy(name: str) -> PolicySpec:
    """Look up a registered policy; unknown names list what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown policy {name!r}; registered policies: {_known()}"
        ) from None


def check_policy_pairing(spec: PolicySpec,
                         architecture: BankArchitecture) -> None:
    """Reject (policy, organisation) pairs the capability table forbids."""
    caps = ORGANISATION_CAPS.get(architecture)
    if caps is None:
        raise ConfigError(
            f"no capability entry for architecture {architecture!r}"
        )
    if spec.requires_reads_under_write and not caps.reads_under_write:
        raise ConfigError(
            f"policy {spec.name!r} assumes reads proceed under in-flight "
            f"writes, which the {architecture.value!r} organisation "
            f"forbids"
        )


def register_policy(spec: PolicySpec, replace: bool = False) -> PolicySpec:
    """Add ``spec`` to the registry (returned for chaining).

    Rejects empty, padded or non-lowercase names (``REPRO_SCHEDULER``
    is lowercased before lookup, so any other name could never be
    forced), duplicates (unless ``replace``), and capability-inconsistent
    specs — a pinned organisation must satisfy the scheduler's own
    capability requirements.
    """
    if not spec.name or spec.name != spec.name.strip().lower():
        raise ConfigError(
            f"policy name must be non-empty and lowercase with no "
            f"surrounding whitespace, got {spec.name!r}"
        )
    if spec.name in _ORACLE_ALIASES:
        raise ConfigError(
            f"policy name {spec.name!r} collides with a reserved "
            f"{SCHEDULER_ENV} alias"
        )
    if not replace and spec.name in _REGISTRY:
        raise ConfigError(
            f"policy {spec.name!r} is already registered "
            f"(registered policies: {_known()})"
        )
    if spec.organisation is not None:
        check_policy_pairing(spec, spec.organisation)
    _REGISTRY[spec.name] = spec
    return spec


def unregister_policy(name: str) -> PolicySpec:
    """Remove and return a registered policy (tests, plug-in teardown)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise SchedulerError(
            f"unknown policy {name!r}; registered policies: {_known()}"
        ) from None


def default_policy_name(kind: SchedulerKind) -> str:
    """The registry entry a bare scheduler kind maps onto."""
    if kind is SchedulerKind.FCFS:
        return "fcfs"
    if kind in (SchedulerKind.FRFCFS, SchedulerKind.FRFCFS_MULTI_ISSUE):
        return "frfcfs-incremental"
    raise SchedulerError(f"unknown scheduler kind: {kind}")


def resolve_scheduler_for(kind: SchedulerKind,
                          policy: Optional[str] = None) -> SchedulingPolicy:
    """Build the scheduler for a (kind, policy name) pair.

    Resolution order: the config picks the policy (``policy`` falling
    back to the kind's default), then ``REPRO_SCHEDULER`` may override
    the *implementation* — ``reference``/``oracle`` swap in the selected
    policy's oracle, a registered name swaps in that policy's fast
    implementation (the bank organisation still comes from the config).
    Anything else raises listing the registered names.
    """
    spec = get_policy(policy if policy is not None
                      else default_policy_name(kind))
    forced = os.environ.get(SCHEDULER_ENV, "").strip().lower()
    if not forced:
        return spec.fast()
    if forced in _ORACLE_ALIASES:
        return spec.oracle()
    if forced in _REGISTRY:
        return _REGISTRY[forced].fast()
    raise SchedulerError(
        f"unknown {SCHEDULER_ENV} value {forced!r}; registered policies: "
        f"{_known()} (or 'reference' to force the selected policy's "
        f"oracle)"
    )


def resolve_scheduler(controller: ControllerParams) -> SchedulingPolicy:
    """Controller-facing entry point: resolve from the config params."""
    return resolve_scheduler_for(controller.scheduler, controller.policy)


def policy_validation_problems(config: SystemConfig) -> List[str]:
    """Policy-related problems with ``config`` (for config validation).

    Checks the name is registered, the (policy, organisation) pairing is
    capability-consistent, and a pinned organisation matches.
    """
    name = config.controller.policy
    if name is None:
        return []
    spec = _REGISTRY.get(name)
    if spec is None:
        return [
            f"controller.policy {name!r} is not registered "
            f"(registered policies: {_known()})"
        ]
    problems: List[str] = []
    if spec.organisation is not None \
            and spec.organisation is not config.org.architecture:
        problems.append(
            f"policy {name!r} pins the {spec.organisation.value!r} "
            f"organisation but org.architecture is "
            f"{config.org.architecture.value!r} (use apply_policy)"
        )
    try:
        check_policy_pairing(spec, config.org.architecture)
    except ConfigError as exc:
        problems.append(str(exc))
    return problems


def apply_policy(config: SystemConfig, name: str) -> SystemConfig:
    """A copy of ``config`` running the named policy.

    Sets ``controller.policy``, re-architects the organisation when the
    policy pins one (SALP collapses the column axis to one full-row
    division), renames the config — the experiment cache keys on the
    name, so policy variants must not collide — and validates the
    result.
    """
    from ..config.validate import validate_config

    spec = get_policy(name)
    dup = config.copy()
    dup.controller.policy = name
    if spec.organisation is not None:
        dup.org.architecture = spec.organisation
        if spec.organisation is BankArchitecture.SALP:
            dup.org.column_divisions = 1
    dup.name = f"{config.name}+{name}"
    return validate_config(dup)


def _register_builtins() -> None:
    register_policy(PolicySpec(
        name="fcfs",
        description="Relaxed first-come-first-served: oldest issuable "
                    "request first.",
        citation="conventional memory-controller baseline",
        fast=IncrementalFcfs,
        oracle=FcfsScheduler,
    ))
    register_policy(PolicySpec(
        name="frfcfs-incremental",
        description="First-ready FCFS (Table 2's scheduler) as an "
                    "incremental min-scan; the repo-wide default.",
        citation="Rixner et al., ISCA'00",
        fast=IncrementalFrfcfs,
        oracle=FrfcfsScheduler,
    ))
    register_policy(PolicySpec(
        name="palp",
        description="FRFCFS plus partition-level read/write overlap: "
                    "reads targeting a bank with an in-flight "
                    "background write rank first within their class.",
        citation="Song, Das, Mutlu et al. (PALP; see PAPERS.md)",
        fast=IncrementalPalp,
        oracle=PalpReference,
        requires_reads_under_write=True,
    ))
    register_policy(PolicySpec(
        name="salp",
        description="Subarray-level parallelism: FRFCFS ranking over "
                    "banks with N open rows but full-row sensing — the "
                    "organisational midpoint between baseline and "
                    "FgNVM.",
        citation="Kim et al., ISCA'12 (SALP)",
        fast=IncrementalFrfcfs,
        oracle=FrfcfsScheduler,
        organisation=BankArchitecture.SALP,
    ))
    register_policy(PolicySpec(
        name="rbla",
        description="Row-buffer-locality-aware FRFCFS: a per-bank "
                    "saturating hit-streak score breaks ties toward "
                    "banks with hot row buffers.",
        citation="Meza et al., CAL'12",
        fast=IncrementalRbla,
        oracle=RblaReference,
    ))


_register_builtins()
