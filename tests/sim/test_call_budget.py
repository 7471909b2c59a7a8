"""Python calls per simulated request, and the layer boundaries.

The replay's wall clock follows the Python-level calls on the
per-request path, so a fixed replay's call count is a deterministic
stand-in for its speed.  Two 2 000-request replays are counted with
``sys.setprofile`` ``call`` events:

* the calls per request stay within a small margin of the budget.  No
  comprehension runs per request, so CPython 3.10, 3.11 and 3.12 count
  alike to one call per replay: 3.12 inlines the one comprehension
  ``Simulator.run`` runs, once, when the core finishes;
* every method the phase profiler (``repro.obs.perf.profiler``) or the
  end-to-end benchmark's span table wraps is still entered exactly as
  often, so those tools keep seeing every layer.  A change that skips a
  boundary (say, by bypassing the ``MemorySystem`` facade) fails here;
* the bank's CD census (``TileGrid.overlap_counts``) runs once per
  issue, for the overlap statistics, and never per scheduling
  candidate; the request bookkeeping (``MemRequest``'s lifecycle
  fields) and the per-issue statistics are field writes, not calls.
"""

import sys
from collections import Counter

import pytest

from repro.cli import CONFIG_BUILDERS
from repro.core.fgnvm_bank import FgNvmBank
from repro.core.tile import TileGrid
from repro.cpu.trace_cpu import TraceCpu
from repro.memsys.controller import MemoryController
from repro.memsys.policies import apply_policy
from repro.memsys.scheduler import MinScanPolicy
from repro.sim.simulator import Simulator
from repro.sim.system import MemorySystem
from repro.workloads import generate_packed_trace, get_profile

REQUESTS = 2000

#: The wrapped boundaries, by the name the pins below use.
BOUNDARIES = {
    "Simulator.run": Simulator.run,
    "Simulator._next_cycle": Simulator._next_cycle,
    "TraceCpu.tick": TraceCpu.tick,
    "MemorySystem.tick": MemorySystem.tick,
    "MemorySystem.can_accept": MemorySystem.can_accept,
    "MemorySystem.enqueue": MemorySystem.enqueue,
    "MemorySystem.next_event_after": MemorySystem.next_event_after,
    "MemoryController._issue_phase": MemoryController._issue_phase,
    "MemoryController.can_accept": MemoryController.can_accept,
    "MemoryController.enqueue": MemoryController.enqueue,
    "FgNvmBank.issue": FgNvmBank.issue,
    "FgNvmBank._issue": FgNvmBank._issue,
    "FgNvmBank.kind_and_constraint": FgNvmBank.kind_and_constraint,
    "MinScanPolicy.pick_with_horizon": MinScanPolicy.pick_with_horizon,
}

#: (profile, policy) -> (calls per request, measured on CPython 3.10.13,
#: 3.11.7 and 3.12.1; exact boundary calls).  The boundary counts are
#: those of the code before the per-request calls were cut (80.65 and
#: 93.53 calls per request then).
REPLAYS = {
    ("mcf", None): (44.427, {
        "Simulator.run": 1,
        "Simulator._next_cycle": 3244,
        "TraceCpu.tick": 2008,
        "MemorySystem.tick": 3245,
        "MemorySystem.can_accept": 2000,
        "MemorySystem.enqueue": 2000,
        "MemorySystem.next_event_after": 1926,
        "MemoryController._issue_phase": 2607,
        "MemoryController.can_accept": 2000,
        "MemoryController.enqueue": 2000,
        "FgNvmBank.issue": 2000,
        "FgNvmBank._issue": 2000,
        "FgNvmBank.kind_and_constraint": 3470,
        "MinScanPolicy.pick_with_horizon": 3323,
    }),
    ("lbm", "palp"): (50.4005, {
        "Simulator.run": 1,
        "Simulator._next_cycle": 3391,
        "TraceCpu.tick": 2186,
        "MemorySystem.tick": 3392,
        "MemorySystem.can_accept": 2000,
        "MemorySystem.enqueue": 2000,
        "MemorySystem.next_event_after": 1973,
        "MemoryController._issue_phase": 2801,
        "MemoryController.can_accept": 2000,
        "MemoryController.enqueue": 2000,
        "FgNvmBank.issue": 2000,
        "FgNvmBank._issue": 2000,
        "FgNvmBank.kind_and_constraint": 6109,
        "MinScanPolicy.pick_with_horizon": 3995,
    }),
}

#: Calls per request allowed above the budget before the test fails:
#: two calls per replay, twice the spread between CPython versions.
MARGIN = 0.001


def counted_replay(profile, policy):
    """Calls by code object over one ``Simulator.run`` of the replay."""
    config = CONFIG_BUILDERS["fgnvm-8x2"]()
    if policy is not None:
        config = apply_policy(config, policy)
    sim = Simulator(config, generate_packed_trace(get_profile(profile),
                                                  REQUESTS))
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.fixture(scope="module", params=sorted(REPLAYS, key=str),
                ids=lambda key: "-".join(filter(None, key)))
def replay(request):
    # The pins are the default (incremental) scheduler's.
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SCHEDULER", raising=False)
        return request.param, counted_replay(*request.param)


def test_calls_per_request_stay_within_budget(replay):
    key, counts = replay
    budget, _ = REPLAYS[key]
    per_request = sum(counts.values()) / REQUESTS
    assert per_request <= budget + MARGIN, (
        f"{per_request:.2f} Python calls per request, budget {budget}"
    )


def test_every_boundary_is_called_as_often_as_pinned(replay):
    key, counts = replay
    _, pins = REPLAYS[key]
    seen = {name: counts[fn.__code__] for name, fn in BOUNDARIES.items()}
    assert seen == pins


def test_cd_census_runs_once_per_issue(replay):
    """PALP reads its overlap term from the bank's memoized write
    release, so the lbm/PALP replay counts CDs 2 000 times, not once
    more per PALP candidate (3 501 times)."""
    _, counts = replay
    assert counts[TileGrid.overlap_counts.__code__] == REQUESTS
    assert counts[FgNvmBank._issue.__code__] == REQUESTS
