"""The four DC-resident diagnostic/prognostic algorithm suites (§1.1).

1. :mod:`repro.algorithms.dli` — frame-based vibration expert system.
2. :mod:`repro.algorithms.sbfr_source` — SBFR adapter (trending and
   time-correlated events on process data).
3. :mod:`repro.algorithms.wnn` — wavelet-neural-network classifier for
   transitory phenomena.
4. :mod:`repro.algorithms.fuzzy` — fuzzy-logic diagnostics/prognostics
   on non-vibration data.

All of them emit §7 failure-prediction reports through the common
:class:`~repro.algorithms.base.KnowledgeSource` interface.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.base": ["KnowledgeSource", "SourceContext"],
})
