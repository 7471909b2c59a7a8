"""Memory-system substrate: requests, addressing, banks, buses, control.

This package is the NVMain-equivalent layer of the reproduction — the
cycle-level machinery every compared design (baseline, FgNVM, 128 banks)
runs on.  The FgNVM-specific bank model lives in :mod:`repro.core`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "address": ("AddressMapper",),
    "bank_baseline": ("BaselineNvmBank", "build_banks"),
    "bus": ("CommandBus", "DataBus"),
    "controller": ("MemoryController",),
    "queues": ("TransactionQueue", "WriteQueue"),
    "request": (
        "SERVICE_ROW_HIT", "SERVICE_ROW_MISS", "SERVICE_UNDERFETCH",
        "SERVICE_WRITE", "SERVICE_WRITE_MISS", "DecodedAddress",
        "MemRequest", "OpType",
    ),
    "policies": (
        "ORGANISATION_CAPS", "OrganisationCaps", "PolicySpec",
        "apply_policy", "check_policy_pairing", "get_policy",
        "policy_names", "register_policy", "registered_policies",
        "resolve_scheduler", "unregister_policy",
    ),
    "reliability": (
        "BankReliability", "DeviceFaultPlan", "DeviceFaultSpec",
        "make_bank_reliability", "reliability_validation_problems",
    ),
    "scheduler": (
        "FcfsScheduler", "FrfcfsScheduler", "IncrementalFcfs",
        "IncrementalFrfcfs", "IncrementalPalp", "IncrementalRbla",
        "PalpReference", "RblaReference", "make_scheduler",
    ),
    "stats": ("StatsCollector",),
})
