"""Property tests for the policy registry itself.

Registration round-trip, duplicate-name rejection, and capability-flag
consistency: an organisation whose capability table forbids
reads-under-write must never be paired — at registration time for
pinned organisations, at validation time for configs — with a scheduler
that assumes them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fgnvm
from repro.config.params import BankArchitecture
from repro.errors import ConfigError, SchedulerError
from repro.memsys.policies import (
    ORGANISATION_CAPS,
    PolicySpec,
    get_policy,
    policy_names,
    register_policy,
    registered_policies,
    unregister_policy,
)
from repro.memsys.scheduler import FrfcfsScheduler, IncrementalFrfcfs

#: Names that cannot collide with built-ins or reserved env aliases.
FRESH_NAME = st.from_regex(r"zz-[a-z]{1,12}", fullmatch=True)

ARCHITECTURES = st.sampled_from(list(BankArchitecture))


def fresh_spec(name, organisation=None, requires_ruw=False):
    return PolicySpec(
        name=name,
        description="hypothesis-generated test policy",
        citation="n/a",
        fast=IncrementalFrfcfs,
        oracle=FrfcfsScheduler,
        organisation=organisation,
        requires_reads_under_write=requires_ruw,
    )


class TestRegistrationRoundTrip:
    @given(name=FRESH_NAME)
    @settings(max_examples=50, deadline=None)
    def test_register_get_unregister(self, name):
        before = policy_names()
        spec = fresh_spec(name)
        register_policy(spec)
        try:
            assert get_policy(name) is spec
            assert name in policy_names()
            assert registered_policies()[name] is spec
        finally:
            assert unregister_policy(name) is spec
        assert policy_names() == before
        with pytest.raises(SchedulerError) as err:
            get_policy(name)
        # The error is actionable: it lists what *is* registered.
        assert "registered policies:" in str(err.value)

    @given(name=FRESH_NAME)
    @settings(max_examples=25, deadline=None)
    def test_duplicate_name_rejected(self, name):
        register_policy(fresh_spec(name))
        try:
            with pytest.raises(ConfigError):
                register_policy(fresh_spec(name))
            # Explicit replacement is allowed and swaps the entry.
            replacement = fresh_spec(name)
            register_policy(replacement, replace=True)
            assert get_policy(name) is replacement
        finally:
            unregister_policy(name)

    @pytest.mark.parametrize("bad", ["", "  ", " padded ", "reference",
                                     "oracle"])
    def test_reserved_and_malformed_names_rejected(self, bad):
        with pytest.raises(ConfigError):
            register_policy(fresh_spec(bad))

    def test_builtins_present(self):
        assert {"fcfs", "frfcfs-incremental", "palp", "salp",
                "rbla"} <= set(policy_names())


class TestCapabilityConsistency:
    @given(name=FRESH_NAME, organisation=ARCHITECTURES,
           requires=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pinned_organisation_must_satisfy_flags(
            self, name, organisation, requires):
        spec = fresh_spec(name, organisation=organisation,
                          requires_ruw=requires)
        forbidden = (requires
                     and not ORGANISATION_CAPS[organisation].reads_under_write)
        if forbidden:
            with pytest.raises(ConfigError):
                register_policy(spec)
            assert name not in policy_names()
        else:
            register_policy(spec)
            try:
                assert get_policy(name) is spec
            finally:
                unregister_policy(name)

    @given(name=FRESH_NAME, architecture=ARCHITECTURES,
           requires=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_config_pairing_checked_at_validation(
            self, name, architecture, requires):
        """An unpinned policy is still capability-checked per config."""
        from repro.config.validate import validation_errors

        register_policy(fresh_spec(name, requires_ruw=requires))
        try:
            cfg = fgnvm(4, 4)
            cfg.org.architecture = architecture
            if architecture is BankArchitecture.SALP:
                cfg.org.column_divisions = 1
            elif architecture is BankArchitecture.BASELINE:
                cfg.org.subarray_groups = 1
                cfg.org.column_divisions = 1
            cfg.controller.policy = name
            problems = validation_errors(cfg)
            forbidden = (
                requires
                and not ORGANISATION_CAPS[architecture].reads_under_write
            )
            if forbidden:
                assert any("reads proceed under" in p for p in problems)
            else:
                assert not any("reads proceed under" in p for p in problems)
        finally:
            unregister_policy(name)

    def test_caps_table_covers_every_architecture(self):
        assert set(ORGANISATION_CAPS) == set(BankArchitecture)

    def test_palp_cannot_run_on_baseline(self):
        from repro.config import baseline_nvm

        cfg = baseline_nvm()
        cfg.controller.policy = "palp"
        from repro.config.validate import validation_errors

        assert any("reads proceed under" in p
                   for p in validation_errors(cfg))
