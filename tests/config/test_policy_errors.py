"""Regression tests: unknown policy names must fail loudly.

The original ``make_scheduler`` checked ``REPRO_SCHEDULER`` only on the
FRFCFS branch — the FCFS branch returned before the env check, so a
typo'd override was silently ignored.  Every kind now routes through
the registry, which validates the env var and reports the registered
names.  The registry also refuses names the lowercased env value could
never reach.
"""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.config.params import SchedulerKind
from repro.config.validate import validate_config, validation_errors
from repro.errors import ConfigError, SchedulerError
from repro.memsys.policies import (
    PolicySpec,
    policy_names,
    register_policy,
)
from repro.memsys.scheduler import (
    SCHEDULER_ENV,
    FrfcfsScheduler,
    IncrementalFrfcfs,
    make_scheduler,
)


class TestEnvOverrideErrors:
    @pytest.mark.parametrize(
        "kind", [SchedulerKind.FCFS, SchedulerKind.FRFCFS,
                 SchedulerKind.FRFCFS_MULTI_ISSUE]
    )
    def test_unknown_env_value_raises_for_every_kind(self, kind,
                                                     monkeypatch):
        """Previously the FCFS branch never looked at the env var."""
        monkeypatch.setenv(SCHEDULER_ENV, "bogus-policy")
        with pytest.raises(SchedulerError) as err:
            make_scheduler(kind)
        message = str(err.value)
        assert "bogus-policy" in message
        for name in policy_names():
            assert name in message

    def test_empty_env_value_is_default(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "")
        sched = make_scheduler(SchedulerKind.FRFCFS)
        assert isinstance(sched, IncrementalFrfcfs)

    @pytest.mark.parametrize("alias", ["reference", "oracle"])
    def test_oracle_aliases_force_protocol_path(self, alias, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, alias)
        sched = make_scheduler(SchedulerKind.FRFCFS)
        assert type(sched) is FrfcfsScheduler

    def test_legacy_frfcfs_alias_raises(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "frfcfs")
        with pytest.raises(SchedulerError) as err:
            make_scheduler(SchedulerKind.FRFCFS)
        assert "frfcfs-incremental" in str(err.value)

    def test_legacy_incremental_alias(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "incremental")
        with pytest.raises(SchedulerError):
            make_scheduler(SchedulerKind.FRFCFS)

    def test_env_can_force_named_policy(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "palp")
        sched = make_scheduler(SchedulerKind.FRFCFS)
        assert sched.name == "palp"

    def test_fcfs_kind_unaffected_without_env(self, monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        assert make_scheduler(SchedulerKind.FCFS).name == "fcfs-incremental"


class TestPluginPolicyNames:
    def test_mixed_case_name_rejected(self):
        """``REPRO_SCHEDULER`` is lowercased before lookup, so a
        mixed-case registration could never be forced."""
        spec = PolicySpec(
            name="MyPolicy",
            description="plug-in test policy",
            citation="n/a",
            fast=IncrementalFrfcfs,
            oracle=FrfcfsScheduler,
        )
        with pytest.raises(ConfigError) as err:
            register_policy(spec)
        assert "lowercase" in str(err.value)
        assert "MyPolicy" not in policy_names()


class TestConfigPolicyErrors:
    def test_unknown_policy_name_fails_validation(self):
        cfg = fgnvm(4, 4)
        cfg.controller.policy = "not-a-policy"
        problems = validation_errors(cfg)
        assert any("not-a-policy" in p for p in problems)
        joined = " ".join(problems)
        for name in policy_names():
            assert name in joined
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_capability_mismatch_fails_validation(self):
        cfg = baseline_nvm()
        cfg.controller.policy = "palp"
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_registered_policy_passes_validation(self):
        cfg = fgnvm(4, 4)
        cfg.controller.policy = "rbla"
        validate_config(cfg)


class TestCliPolicyErrors:
    def test_cli_unknown_policy_exits_with_names(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "fgnvm-8x2", "--policy", "bogus",
                  "--requests", "10"])
        message = str(exc.value)
        assert "bogus" in message
        assert "palp" in message
