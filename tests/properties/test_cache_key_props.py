"""Property tests: the content-addressed cache key is exactly as
discriminating as the job description.

* stable — re-constructing an identical config (and job) from scratch
  always reproduces the identical key,
* sensitive — changing any single field of the config, or any trace
  parameter, or the code-version tag, always changes the key,
* unchanged — the canonical form is byte-identical to the plain
  recursive reduction the keys were first defined by, so existing
  caches stay valid.
"""

import dataclasses
import enum
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import all_presets, fgnvm, with_reliability
from repro.config.params import override_nested
from repro.memsys.reliability import DeviceFaultPlan
from repro.sim.parallel import ExperimentJob, canonical_config, job_key
from repro.sim.sweeps import swept_configs

#: Valid (subarray_groups, column_divisions) draw space.
GEOMETRIES = [(1, 1), (2, 2), (4, 4), (8, 2), (8, 8)]

#: Dotted paths covering every nested config section, with a mutator
#: guaranteed to produce a different value of the same type.
FIELD_MUTATIONS = [
    ("name", lambda v: v + "-x"),
    ("timing.trcd_ns", lambda v: v + 1.0),
    ("timing.tcas_ns", lambda v: v + 0.5),
    ("timing.tccd_cycles", lambda v: v + 1),
    ("energy.read_pj_per_bit", lambda v: v + 0.25),
    ("energy.background_epoch_ns", lambda v: v * 2),
    ("org.rows_per_bank", lambda v: v * 2),
    ("org.subarray_groups", lambda v: v + 1),
    ("org.column_divisions", lambda v: v + 1),
    ("org.per_sag_row_buffers", lambda v: not v),
    ("org.cd_interleaved", lambda v: not v),
    ("controller.read_queue_entries", lambda v: v + 1),
    ("controller.write_high_watermark", lambda v: v + 1),
    ("controller.eager_writes", lambda v: not v),
    ("controller.max_writes_per_bank", lambda v: 2 if v != 2 else 3),
    ("cpu.rob_entries", lambda v: v + 1),
    ("cpu.clock_ghz", lambda v: v + 0.1),
    ("sim.max_cycles", lambda v: v + 1),
    ("sim.warmup_requests", lambda v: v + 1),
]


def config_from(draw_geometry, rows, rob):
    sags, cds = draw_geometry
    cfg = fgnvm(sags, cds)
    cfg.org.rows_per_bank = rows
    cfg.cpu.rob_entries = rob
    return cfg


geometry = st.sampled_from(GEOMETRIES)
rows = st.sampled_from([256, 1024, 8192])
rob = st.integers(min_value=16, max_value=512)


@given(geometry=geometry, rows=rows, rob=rob,
       requests=st.integers(1, 10**6),
       seed=st.one_of(st.none(), st.integers(0, 2**31)))
@settings(max_examples=100, deadline=None)
def test_key_stable_under_reconstruction(geometry, rows, rob, requests,
                                         seed):
    first = ExperimentJob(config_from(geometry, rows, rob), "mcf",
                          requests, seed)
    rebuilt = ExperimentJob(config_from(geometry, rows, rob), "mcf",
                            requests, seed)
    assert canonical_config(first.config) == canonical_config(rebuilt.config)
    assert job_key(first) == job_key(rebuilt)


@given(geometry=geometry, rows=rows, rob=rob,
       mutation=st.sampled_from(FIELD_MUTATIONS))
@settings(max_examples=150, deadline=None)
def test_key_distinct_across_any_single_field_change(geometry, rows, rob,
                                                     mutation):
    path, mutate = mutation
    cfg = config_from(geometry, rows, rob)
    if path == "name":
        changed = cfg.copy()
        changed.name = mutate(cfg.name)
    else:
        target = cfg
        for part in path.split(".")[:-1]:
            target = getattr(target, part)
        changed = override_nested(
            cfg, path, mutate(getattr(target, path.split(".")[-1]))
        )
    assert canonical_config(changed) != canonical_config(cfg)
    assert job_key(ExperimentJob(changed, "mcf", 100)) != job_key(
        ExperimentJob(cfg, "mcf", 100)
    )


@given(geometry=geometry,
       requests=st.integers(1, 10**6),
       seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_key_distinct_across_trace_parameters(geometry, requests, seed):
    cfg = config_from(geometry, 1024, 192)
    base = job_key(ExperimentJob(cfg, "mcf", requests))
    assert job_key(ExperimentJob(cfg, "lbm", requests)) != base
    assert job_key(ExperimentJob(cfg, "mcf", requests + 1)) != base
    assert job_key(ExperimentJob(cfg, "mcf", requests, seed)) != base
    assert job_key(ExperimentJob(cfg, "mcf", requests),
                   code_version="other") != base


def _oracle_jsonable(value):
    """The recursive reduction cache keys were first defined by."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _oracle_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _oracle_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_jsonable(v) for v in value]
    return value


def oracle_canonical(config):
    return json.dumps(_oracle_jsonable(config), sort_keys=True,
                      separators=(",", ":"))


#: Sweepable knobs with values valid for every preset.
SWEEPS = [
    ("org.rows_per_bank", [1024, 8192]),
    ("controller.max_writes_per_bank", [1, 2]),
    ("controller.eager_writes", [True, False]),
    ("cpu.rob_entries", [64, 256]),
    ("timing.twp_ns", [100.0, 150.0]),
]


@given(preset=st.sampled_from(range(len(all_presets()))),
       sweep=st.sampled_from(SWEEPS),
       mutation=st.sampled_from(FIELD_MUTATIONS),
       kills=st.integers(0, 3),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_canonical_config_matches_recursive_oracle(preset, sweep, mutation,
                                                   kills, seed):
    base = all_presets()[preset]
    if kills:
        org = base.org
        base = with_reliability(base, write_fail_prob=0.01, seed=seed,
                                fault_plan=DeviceFaultPlan.seeded(
                                    seed=seed, kills=kills,
                                    banks=org.banks_per_rank,
                                    subarray_groups=org.subarray_groups,
                                    column_divisions=org.column_divisions))
    path, values = sweep
    for cfg in swept_configs(base, path, values):
        assert canonical_config(cfg) == oracle_canonical(cfg)
        # Mutate in place, as presets and sweeps do after construction.
        field_path, mutate = mutation
        *outer, leaf = field_path.split(".")
        target = cfg
        for part in outer:
            target = getattr(target, part)
        setattr(target, leaf, mutate(getattr(target, leaf)))
        assert canonical_config(cfg) == oracle_canonical(cfg)
        assert job_key(ExperimentJob(cfg, "mcf", 100),
                       canonical=oracle_canonical(cfg)) == job_key(
            ExperimentJob(cfg, "mcf", 100))
