"""Deterministic fault injection and the self-test doctor.

This package exists to *prove* the repository's robustness claims
rather than assume them:

* :mod:`repro.faults.plan` -- seedable campaign plans
  (:class:`FaultPlan` / :class:`FaultSpec`);
* :mod:`repro.faults.inject` -- one-fault injectors for trace columns,
  cached bundles, and live LVP units, plus the
  :func:`~repro.faults.inject.audit_violations` safety oracle;
* :mod:`repro.faults.doctor` -- the campaign runner behind
  ``python -m repro doctor``.

See ``docs/resilience.md`` for the fault model and the degradation
semantics the rest of the harness implements.
"""

from repro.faults.doctor import (
    DETECTED,
    DoctorReport,
    ENGINE_CHECKS,
    FaultOutcome,
    JOURNAL_CHECKS,
    RECOVERED,
    SILENT,
    run_doctor,
)
from repro.faults.inject import (
    audit_violations,
    copy_trace,
    inject_cache_fault,
    inject_tier_fault,
    inject_trace_fault,
    make_lvp_hook,
)
from repro.faults.plan import (
    CACHE_FAULTS,
    FaultPlan,
    FaultSpec,
    LVP_FAULTS,
    TRACE_FAULTS,
)

__all__ = [
    "DETECTED", "ENGINE_CHECKS", "JOURNAL_CHECKS", "RECOVERED", "SILENT",
    "DoctorReport", "FaultOutcome", "run_doctor",
    "audit_violations", "copy_trace",
    "inject_cache_fault", "inject_tier_fault", "inject_trace_fault",
    "make_lvp_hook",
    "CACHE_FAULTS", "FaultPlan", "FaultSpec", "LVP_FAULTS",
    "TRACE_FAULTS",
]
