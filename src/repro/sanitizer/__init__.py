"""RaveSanitizer: a TSan analog for simulated time.

See :mod:`repro.sanitizer.core`.  The static half of the correctness
tooling lives in :mod:`repro.analysis` (ravelint); this package is the
dynamic half, run in the chaos suites and ``examples/sanitized_chaos.py``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sanitizer.core": ("RaveSanitizer", "SanitizerViolation"),
})
