"""Memory-access scheduling policies.

Every policy is one *ranking* — a mixin defining
``scan_key(req, bank, hit, now)``, smaller keys first — composed with
one of two bases:

* :class:`MinScanPolicy` — the fast implementation: one O(n) pass
  (:meth:`~MinScanPolicy.pick_with_horizon`) over a queue's per-bank
  groups, applying the write cap per bank and reading each request's
  (kind, constraint) from its bank's memo inline
  (:meth:`~repro.core.fgnvm_bank.FgNvmBank.kind_and_constraint` only
  on a miss), keeping the key-minimal issuable candidate and the
  earliest constraint among blocked ones.  The controller runs this by
  default.
* :class:`KeyedReference` — the brute-force oracle: filter the issuable
  candidates through the uncached ``earliest_start`` / ``is_row_hit``
  protocol pair and sort them all by the same key.  The property suites
  and ``REPRO_SCHEDULER=reference`` pin each fast policy against it.

Sharing the key means the two implementations can only disagree on
classification (memo vs protocol), which is exactly what the
differential tests check.  The rankings:

* :class:`FcfsRanking` — oldest issuable request first
  (:class:`IncrementalFcfs` / :class:`FcfsScheduler`).
* :class:`FrfcfsRanking` — first-ready FCFS [Rixner et al., ISCA'00]:
  requests that would hit buffered data go first, oldest first within
  each class.  This is Table 2's scheduler
  (:class:`IncrementalFrfcfs` / :class:`FrfcfsScheduler`).  The paper's
  **Multi-Issue** augmentation is the same ranking applied to several
  command slots per cycle, expressed through
  ``ControllerParams.issue_width`` rather than a separate class.
* :class:`PalpRanking` — PALP-style partition-level read/write overlap
  [Song, Das, Mutlu et al.]: among equally-ready candidates, reads
  targeting a bank with an in-flight background write go first
  (:class:`IncrementalPalp` / :class:`PalpReference`).
* :class:`RblaState` — Meza-style row-buffer-locality-aware ranking
  [Meza et al., CAL'12]: a per-bank saturating locality score (fed back
  from issued service kinds) breaks ties toward banks with hot row
  buffers (:class:`IncrementalRbla` / :class:`RblaReference`).

The registry (:mod:`repro.memsys.policies`) names each (fast, oracle)
pair.  A policy ranks *issuable* candidates; the controller determines
issuability (bank resources, bus slots) and enforces read/write phase
policy.  Ranking never changes *which* candidates are issuable
(``earliest_start <= now`` is policy-independent), which is what keeps
the controller's quiet-cycle memo and event horizon valid for every
policy in the zoo.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from ..config.params import SchedulerKind
from .request import SERVICE_ROW_HIT, SERVICE_WRITE, MemRequest


class BankLike(Protocol):
    """What a scheduler needs to know about a bank.

    ``sched_memo`` is ``kind_and_constraint``'s memo, keyed by
    ``MemRequest.sched_key`` (and by an int cap for
    ``write_cap_free_at``); the fast scan reads it inline.
    """

    sched_memo: dict

    def write_cap_free_at(self, cap: int) -> int: ...
    def is_row_hit(self, req: MemRequest) -> bool: ...
    def earliest_start(self, req: MemRequest, now: int) -> int: ...
    def kind_and_constraint(self, req: MemRequest) -> Tuple[str, int]: ...
    def active_writes(self, now: int) -> int: ...


#: A schedulable candidate: the request plus its target bank model.
Candidate = Tuple[MemRequest, BankLike]


class SchedulingPolicy:
    """Base class: rank issuable candidates, best first."""

    name = "base"

    #: Controllers key their fast paths off this flag.
    incremental = False

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        raise NotImplementedError

    def pick(self, candidates: Sequence[Candidate], now: int
             ) -> Optional[Candidate]:
        """Best candidate, or None when nothing is issuable."""
        ranked = self.rank(candidates, now)
        return ranked[0] if ranked else None

    def note_issued(self, req: MemRequest, bank: BankLike,
                    kind: str) -> None:
        """Feedback hook: the controller reports every issued command.

        A no-op here; stateful rankings (:class:`RblaState`) override it.
        """


class MinScanPolicy(SchedulingPolicy):
    """Fast base: the key-minimal issuable candidate in one pass.

    Combine with a ranking mixin that defines ``scan_key``.
    """

    incremental = True

    def pick(self, candidates: Sequence[Candidate], now: int
             ) -> Optional[Candidate]:
        """The candidate-list form (oracle comparisons): the caller's
        own winning tuple."""
        best = self.pick_with_horizon(*candidate_groups(candidates), now)[0]
        if best is None:
            return None
        return next(cand for cand in candidates if cand[0] is best[0])

    def pick_with_horizon(self, by_bank: "Mapping[int, Sequence[MemRequest]]",
                          banks: "Sequence[BankLike]", now: int,
                          cap: Optional[int] = None
                          ) -> "Tuple[Optional[Candidate], Optional[int]]":
        """(best candidate, earliest constraint among blocked ones).

        Walks a queue's per-bank groups directly: ``by_bank`` maps a
        bank index to its arrival-ordered requests and ``banks`` holds
        the bank models by index.  Under a write ``cap`` a bank whose
        in-flight writes hold the cap is blocked, like any candidate,
        until its ``write_cap_free_at(cap)``.  Each request's (kind,
        constraint) is read from its bank's ``sched_memo`` by its
        ``sched_key``; ``kind_and_constraint`` runs only on a miss.

        The second element is the soonest cycle any *currently blocked*
        candidate could become issuable — ``None`` when nothing is
        blocked — which the controller uses to memoize provably quiet
        cycles.
        """
        scan_key = self.scan_key
        best_req: Optional[MemRequest] = None
        best_bank: Optional[BankLike] = None
        best_key: Optional[tuple] = None
        blocked_min: Optional[int] = None
        for index, reqs in by_bank.items():
            bank = banks[index]
            memo = bank.sched_memo
            if cap is not None:
                free_at = memo.get(cap)
                if free_at is None:
                    free_at = bank.write_cap_free_at(cap)
                if free_at > now:
                    if blocked_min is None or free_at < blocked_min:
                        blocked_min = free_at
                    continue
            for req in reqs:
                entry = memo.get(req.sched_key)
                if entry is None:
                    entry = bank.kind_and_constraint(req)
                kind, constraint = entry
                if constraint > now:
                    if blocked_min is None or constraint < blocked_min:
                        blocked_min = constraint
                    continue
                hit = kind == SERVICE_ROW_HIT or kind == SERVICE_WRITE
                key = scan_key(req, bank, hit, now)
                if best_key is None or key < best_key:
                    best_req = req
                    best_bank = bank
                    best_key = key
        if best_req is None:
            return None, blocked_min
        return (best_req, best_bank), blocked_min


def candidate_groups(candidates: Sequence[Candidate]
                     ) -> "Tuple[Dict[int, List[MemRequest]], List[BankLike]]":
    """A candidate list as :meth:`MinScanPolicy.pick_with_horizon`'s
    (``by_bank``, ``banks``) pair: one group per candidate."""
    return ({index: [req] for index, (req, _) in enumerate(candidates)},
            [bank for _, bank in candidates])


class KeyedReference(SchedulingPolicy):
    """Brute-force oracle base: filter issuable, sort everything.

    Combine with a ranking mixin that defines ``scan_key``.
    Classification deliberately goes through the protocol pair
    (``is_row_hit`` / ``earliest_start``), not the banks' memo, so the
    oracle is an independent second opinion on the fast policy's
    memoized scan.
    """

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        issuable = [
            cand for cand in candidates
            if cand[1].earliest_start(cand[0], now) <= now
        ]
        issuable.sort(key=lambda cand: self.scan_key(
            cand[0], cand[1], cand[1].is_row_hit(cand[0]), now
        ))
        return issuable


class FcfsRanking:
    """Arrival order, req_id tie-break — the FCFS key.

    (Strict FCFS that refuses to reorder around a blocked head request
    would deadlock against long PCM writes; like NVMain we use the
    conventional relaxed form — oldest *issuable* first.)
    """

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (req.arrival_cycle, req.req_id)


class FrfcfsRanking:
    """First-ready (row-hit) requests first, then oldest-first."""

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (not hit, req.arrival_cycle, req.req_id)


class FcfsScheduler(FcfsRanking, KeyedReference):
    """Sort-based FCFS oracle."""

    name = "fcfs"


class IncrementalFcfs(FcfsRanking, MinScanPolicy):
    """Single-pass FCFS; oracle: :class:`FcfsScheduler`."""

    name = "fcfs-incremental"


class FrfcfsScheduler(FrfcfsRanking, KeyedReference):
    """Sort-based FRFCFS oracle."""

    name = "frfcfs"


class IncrementalFrfcfs(FrfcfsRanking, MinScanPolicy):
    """Single-pass FRFCFS, the repo-wide default; oracle:
    :class:`FrfcfsScheduler`."""

    name = "frfcfs-incremental"


class PalpRanking:
    """PALP key: row hits, then reads overlapping an in-flight write.

    The overlap bonus models PALP's partition-level parallelism [Song,
    Das, Mutlu et al.]: a read that can proceed in a different partition
    (SAG/CD tile) of a bank already serving a background write turns
    otherwise-serialised write latency into overlapped work, so among
    equally-ready candidates those reads issue first.  Every bank model
    answers ``active_writes`` and ``write_cap_free_at`` — baseline banks
    included, since ``BaselineNvmBank`` subclasses ``FgNvmBank`` — and
    the registry's capability check keeps PALP off organisations that
    forbid reads under writes.  Fast and oracle share this one key; the
    oracle counts the bank's in-flight writes through ``active_writes``,
    so the differential suites check the memoized read against it.
    """

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        overlap = False
        if req.is_read:
            if self.incremental:
                # The fast scan reads the bank's memoized write release:
                # ``active_writes(now) > 0`` exactly when
                # ``now < write_cap_free_at(1)``, a function of bank
                # state alone, so one CD count per bank between issues.
                free_at = bank.sched_memo.get(1)
                if free_at is None:
                    free_at = bank.write_cap_free_at(1)
                overlap = now < free_at
            else:
                overlap = bank.active_writes(now) > 0
        return (not hit, not overlap, req.arrival_cycle, req.req_id)


class PalpReference(PalpRanking, KeyedReference):
    """Sort-based PALP oracle: counts the bank's in-flight writes."""

    name = "palp-reference"


class IncrementalPalp(PalpRanking, MinScanPolicy):
    """Single-pass PALP, reading the memoized write release; oracle:
    :class:`PalpReference`."""

    name = "palp"


#: Saturation ceiling for the per-bank locality score.
_RBLA_MAX_SCORE = 7

#: Service kinds that count as row-buffer hits for the locality score.
_HIT_KINDS = (SERVICE_ROW_HIT, SERVICE_WRITE)


class RblaState:
    """Per-bank saturating row-buffer-locality score [Meza et al.].

    The controller feeds issued service kinds back through
    :meth:`note_issued`; a hit bumps the target bank's score (saturating
    at ``_RBLA_MAX_SCORE``), a miss halves it.  Both the fast policy and
    its oracle carry this state, and the controller notifies whichever
    is installed, so a forced-oracle run sees the identical score
    evolution — a precondition for end-to-end differential identity.
    """

    def __init__(self):
        #: bank identity -> saturating locality score.
        self._locality: dict = {}

    def locality(self, bank: BankLike) -> int:
        return self._locality.get(id(bank), 0)

    def note_issued(self, req: MemRequest, bank: BankLike,
                    kind: str) -> None:
        key = id(bank)
        score = self._locality.get(key, 0)
        if kind in _HIT_KINDS:
            score = min(score + 1, _RBLA_MAX_SCORE)
        else:
            score //= 2
        self._locality[key] = score

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (not hit, -self.locality(bank), req.arrival_cycle,
                req.req_id)


class RblaReference(RblaState, KeyedReference):
    """Sort-based RBLA oracle (stateful: see :class:`RblaState`)."""

    name = "rbla-reference"


class IncrementalRbla(RblaState, MinScanPolicy):
    """Single-pass RBLA; oracle: :class:`RblaReference`."""

    name = "rbla"


#: Environment override for the scheduler implementation (differential
#: CI runs): ``reference`` / ``oracle`` force the selected policy's
#: brute-force oracle, and a registered policy name forces that
#: policy's fast implementation.  Resolution lives in
#: :func:`repro.memsys.policies.resolve_scheduler`.
SCHEDULER_ENV = "REPRO_SCHEDULER"


def make_scheduler(kind: SchedulerKind,
                   policy: Optional[str] = None) -> SchedulingPolicy:
    """Instantiate the scheduler for a configuration.

    ``policy`` names a registry entry (:mod:`repro.memsys.policies`);
    ``None`` selects the ``kind``'s default pair.  The
    ``REPRO_SCHEDULER`` environment variable can force the oracle or a
    different registered policy — unknown values raise
    :class:`~repro.errors.SchedulerError` listing the registered names.
    """
    from .policies import resolve_scheduler_for

    return resolve_scheduler_for(kind, policy)
