"""Device-level reliability: verify-retry, wear, and tile retirement.

The bank model is perfect-cell by default; this module adds what real
PCM/RRAM devices impose, governed by
:class:`~repro.config.params.ReliabilityParams`:

* **write-verify-retry** — each write pulse fails verify with a seeded
  probability and re-pulses within a bounded retry budget, extending
  the tile occupancy (and the write energy) by the extra pulses,
* **per-tile wear** — every pulse absorbed by a (SAG, CD) tile
  increments its wear counter; a start-gap-style rotation periodically
  issues a background row-migration command that competes with demand
  traffic on the bank (the refresh-access-parallelism idiom),
* **graceful retirement** — a tile crossing its endurance threshold
  (or killed by a scripted :class:`DeviceFaultPlan`) first consumes a
  spare tile in place; once spares run dry it is remapped onto the
  next surviving tile, shrinking the effective SAG x CD parallelism
  instead of crashing the simulation.

Determinism contract: there is **no hidden RNG state**.  Every verify
draw is a counter-mode hash of (seed, bank, SAG, CD, per-tile wear
index, attempt), and retirement/rotation decisions are pure functions
of the write stream — which is exactly what makes seeded runs
identical across the serial, pooled and cached engine paths, and lets
the disk cache key on the config alone.

:class:`DeviceFaultPlan` mirrors the engine-level
:class:`repro.resilience.faults.FaultPlan`: a seed plus a tuple of
frozen specs, JSON-serializable and picklable, so ``repro chaos
--device-faults`` reproduces bit-identically everywhere.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ExperimentError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PROB_BITS = 53


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit lane."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def _draw53(seed: int, *values: int) -> int:
    """Counter-mode hash of the arguments to a uniform 53-bit integer."""
    h = _mix64((seed + _GOLDEN) & _MASK64)
    for value in values:
        h = _mix64((h + value * _GOLDEN + 0xD1B54A32D192ED03) & _MASK64)
    return h >> (64 - _PROB_BITS)


def scale_probability(probability: float) -> int:
    """A [0, 1] probability as a 53-bit comparison threshold."""
    return int(round(probability * (1 << _PROB_BITS)))


@dataclass(frozen=True)
class DeviceFaultSpec:
    """One scripted tile kill: retire (bank, SAG, CD) once the tile has
    absorbed ``after_writes`` write pulses."""

    bank: int
    sag: int
    cd: int
    after_writes: int = 1

    def __post_init__(self):
        if self.bank < 0:
            raise ExperimentError(
                f"device fault bank must be >= 0, got {self.bank}"
            )
        if self.sag < 0 or self.cd < 0:
            raise ExperimentError(
                f"device fault tile coordinates must be >= 0, got "
                f"SAG{self.sag}/CD{self.cd}"
            )
        if self.after_writes < 1:
            raise ExperimentError(
                f"device fault after_writes must be >= 1, got "
                f"{self.after_writes}"
            )


@dataclass(frozen=True)
class DeviceFaultPlan:
    """A seeded, serializable schedule of tile kills for one config."""

    seed: int = 0
    kills: Tuple[DeviceFaultSpec, ...] = ()

    @classmethod
    def seeded(
        cls,
        seed: int,
        kills: int,
        banks: int,
        subarray_groups: int,
        column_divisions: int,
        after_writes: int = 64,
    ) -> "DeviceFaultPlan":
        """Kill ``kills`` distinct tiles, deterministically.

        The same (seed, count, geometry) always yields the identical
        plan; distinct tiles keep each kill independently diagnosable.
        Each kill fires after a seeded number of pulses in
        ``[1, after_writes]`` so retirements interleave with traffic
        rather than landing all at once.
        """
        tiles = banks * subarray_groups * column_divisions
        if kills > tiles:
            raise ExperimentError(
                f"cannot kill {kills} tiles in a {banks}-bank "
                f"{subarray_groups}x{column_divisions} geometry "
                f"({tiles} tiles total)"
            )
        if after_writes < 1:
            raise ExperimentError(
                f"after_writes must be >= 1, got {after_writes}"
            )
        rng = random.Random(seed)
        coords = [
            (bank, sag, cd)
            for bank in range(banks)
            for sag in range(subarray_groups)
            for cd in range(column_divisions)
        ]
        chosen = rng.sample(coords, kills)
        specs = [
            DeviceFaultSpec(
                bank=bank, sag=sag, cd=cd,
                after_writes=rng.randint(1, after_writes),
            )
            for bank, sag, cd in chosen
        ]
        specs.sort(key=lambda spec: (spec.bank, spec.sag, spec.cd))
        return cls(seed=seed, kills=tuple(specs))

    def kills_for_bank(self, bank_id: int) -> Dict[Tuple[int, int], int]:
        """Kill triggers for one bank: (SAG, CD) -> pulse threshold."""
        return {
            (spec.sag, spec.cd): spec.after_writes
            for spec in self.kills
            if spec.bank == bank_id
        }

    def describe(self) -> str:
        if not self.kills:
            return f"device fault plan (seed {self.seed}): no kills"
        lines = [f"device fault plan (seed {self.seed}), "
                 f"{len(self.kills)} kill(s):"]
        for spec in self.kills:
            lines.append(
                f"  bank {spec.bank:3d} SAG{spec.sag}/CD{spec.cd}: "
                f"after {spec.after_writes} write(s)"
            )
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed,
             "kills": [asdict(spec) for spec in self.kills]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DeviceFaultPlan":
        try:
            data = json.loads(text)
            return cls(
                seed=int(data.get("seed", 0)),
                kills=tuple(DeviceFaultSpec(**spec)
                            for spec in data.get("kills", ())),
            )
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ExperimentError(
                f"malformed device fault plan: {exc}"
            ) from exc


# -- validation --------------------------------------------------------------


def reliability_validation_problems(config) -> List[str]:
    """Problems with ``config.reliability`` (lazy-called by validate).

    A disabled block is inert by contract, so only enabled configs are
    checked — mirroring how issue_width is only gated when the
    multi-issue scheduler is selected.
    """
    rel = getattr(config, "reliability", None)
    if rel is None or not rel.enabled:
        return []
    problems: List[str] = []
    if not 0.0 <= rel.write_fail_prob <= 1.0:
        problems.append(
            "reliability.write_fail_prob must be within [0, 1], got "
            f"{rel.write_fail_prob}"
        )
    if rel.max_write_retries < 1:
        problems.append(
            "reliability.max_write_retries must be >= 1, got "
            f"{rel.max_write_retries}"
        )
    if rel.endurance_writes is not None and rel.endurance_writes < 1:
        problems.append(
            "reliability.endurance_writes must be >= 1 (or None for "
            f"unlimited endurance), got {rel.endurance_writes}"
        )
    if rel.spare_tiles < 1:
        problems.append(
            f"reliability.spare_tiles must be >= 1, got {rel.spare_tiles}"
        )
    if rel.wear_rotate_every is not None and rel.wear_rotate_every < 1:
        problems.append(
            "reliability.wear_rotate_every must be >= 1 (or None to "
            f"disable rotation), got {rel.wear_rotate_every}"
        )
    if rel.seed < 0:
        problems.append(f"reliability.seed must be >= 0, got {rel.seed}")
    if (rel.fault_plan is not None
            and not isinstance(rel.fault_plan, DeviceFaultPlan)):
        problems.append(
            "reliability.fault_plan must be a DeviceFaultPlan, got "
            f"{type(rel.fault_plan).__name__}"
        )
    return problems


# -- per-bank device state ---------------------------------------------------


class BankReliability:
    """Mutable device state for one bank: wear, remaps, spares, rotation.

    Owned by the bank and mutated **only inside** ``FgNvmBank.issue()``
    — the same contract as every other piece of bank state, which is
    what keeps the controller's scheduling memos sound.
    """

    __slots__ = (
        "params", "bank_id", "subarray_groups", "column_divisions",
        "wear", "retired", "remap", "spares_left", "demand_writes",
        "rotate_ptr", "_kills", "_p53", "_tiles",
    )

    def __init__(self, params, bank_id: int, subarray_groups: int,
                 column_divisions: int):
        self.params = params
        self.bank_id = bank_id
        self.subarray_groups = subarray_groups
        self.column_divisions = column_divisions
        self._tiles = subarray_groups * column_divisions
        #: Write pulses absorbed per (SAG, CD) tile.
        self.wear: Dict[Tuple[int, int], int] = {}
        self.retired: Set[Tuple[int, int]] = set()
        #: Dead tile -> surviving tile (chains kept collapsed).
        self.remap: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.spares_left = params.spare_tiles
        self.demand_writes = 0
        self.rotate_ptr = 0
        plan = params.fault_plan
        kills = plan.kills_for_bank(bank_id) if plan is not None else {}
        #: In-range scripted kills only; out-of-range coordinates (a
        #: plan seeded for a finer geometry) are inert by design.
        self._kills = {
            tile: threshold for tile, threshold in kills.items()
            if tile[0] < subarray_groups and tile[1] < column_divisions
        }
        self._p53 = scale_probability(params.write_fail_prob)

    # -- address remapping --------------------------------------------------

    def resolve(self, sag: int, cd: int) -> Tuple[int, int]:
        """The surviving tile serving accesses aimed at (sag, cd)."""
        return self.remap.get((sag, cd), (sag, cd))

    def live_tiles(self) -> int:
        return self._tiles - len(self.retired)

    # -- verify-retry draws -------------------------------------------------

    def draw_retries(self, sag: int, cd: int) -> Tuple[int, bool]:
        """Extra pulses this write needs, and whether the budget ran out.

        Pulse ``attempt`` fails verify when its seeded draw lands below
        the scaled probability; the per-tile wear index makes every
        write's draw sequence unique without any shared RNG state.
        """
        if self._p53 == 0:
            return 0, False
        wear_index = self.wear.get((sag, cd), 0)
        budget = self.params.max_write_retries
        for attempt in range(budget + 1):
            draw = _draw53(
                self.params.seed, self.bank_id, sag, cd, wear_index, attempt
            )
            if draw >= self._p53:
                return attempt, False
        return budget, True

    # -- wear and retirement ------------------------------------------------

    def record_write(self, sag: int, cds: Tuple[int, ...],
                     retries: int) -> List[Tuple[int, int, bool]]:
        """Account one demand write (1 + retries pulses per touched CD).

        Returns the retirement events it triggered as
        ``(sag, cd, spare_used)`` tuples.
        """
        self.demand_writes += 1
        events: List[Tuple[int, int, bool]] = []
        pulses = 1 + retries
        for cd in cds:
            tile = (sag, cd)
            self.wear[tile] = self.wear.get(tile, 0) + pulses
            event = self._check_retire(tile)
            if event is not None:
                events.append(event)
        return events

    def record_maintenance(self, sag: int,
                           cd: int) -> Optional[Tuple[int, int, bool]]:
        """Account one background migration pulse on its target tile."""
        tile = (sag, cd)
        self.wear[tile] = self.wear.get(tile, 0) + 1
        return self._check_retire(tile)

    def _check_retire(self, tile) -> Optional[Tuple[int, int, bool]]:
        if tile in self.retired or len(self.retired) >= self._tiles - 1:
            return None
        worn = self.wear.get(tile, 0)
        threshold = self._kills.get(tile)
        due = threshold is not None and worn >= threshold
        endurance = self.params.endurance_writes
        if not due and endurance is not None and worn >= endurance:
            due = True
        if not due:
            return None
        if self.spares_left > 0:
            # Spare swapped in at the same coordinates: wear restarts,
            # and the scripted kill (a property of the dead physical
            # tile) leaves with it.
            self.spares_left -= 1
            self.wear[tile] = 0
            self._kills.pop(tile, None)
            return (tile[0], tile[1], True)
        target = self._next_live_after(tile)
        if target is None:
            return None  # never retire the last surviving tile
        self.retired.add(tile)
        self.remap[tile] = target
        for source, dest in list(self.remap.items()):
            if dest == tile:
                self.remap[source] = target
        return (tile[0], tile[1], False)

    def _next_live_after(self, tile) -> Optional[Tuple[int, int]]:
        """Deterministic remap target: next surviving tile in row-major
        scan order after ``tile`` (same SAG's next CD first)."""
        cds = self.column_divisions
        start = tile[0] * cds + tile[1]
        for step in range(1, self._tiles):
            index = (start + step) % self._tiles
            candidate = (index // cds, index % cds)
            if candidate not in self.retired and candidate != tile:
                return candidate
        return None

    # -- wear-leveling rotation ---------------------------------------------

    def maintenance_due(self) -> bool:
        every = self.params.wear_rotate_every
        return (every is not None
                and self.demand_writes > 0
                and self.demand_writes % every == 0)

    def next_rotation_tile(self) -> Optional[Tuple[int, int]]:
        """The start-gap pointer's next surviving tile (and advance it)."""
        cds = self.column_divisions
        for step in range(self._tiles):
            index = (self.rotate_ptr + step) % self._tiles
            tile = (index // cds, index % cds)
            if tile not in self.retired:
                self.rotate_ptr = (index + 1) % self._tiles
                return tile
        return None


def make_bank_reliability(params, bank_id: int, subarray_groups: int,
                          column_divisions: int) -> Optional[BankReliability]:
    """Per-bank device state, or None when the model is disabled.

    None (not a disabled object) is deliberate: banks guard the hot
    path with ``if self.reliability is not None`` exactly like the
    probe's ``tracer is not None`` guard, so reliability-off runs execute
    the identical instruction stream as before this module existed.
    """
    if params is None or not params.enabled:
        return None
    return BankReliability(params, bank_id, subarray_groups,
                           column_divisions)
