"""Offline replay of durable trace journals (DESIGN §5.6).

The journal (:mod:`repro.runtime.journal`) records the drain boundary's
merged event stream; this package turns a recorded window back into
verdicts without the original process:

* :class:`~repro.replay.engine.ReplayEngine` re-runs any journal prefix
  through any runtime configuration — naive interpreter, generated steps,
  deferred — and can dump every automaton's instances and state sets at a
  chosen seqno ("show me the monitor just before this violation").
* :mod:`~repro.replay.ltl_oracle` evaluates the ``tesla_ltl_map``-style
  LTL reading of each assertion directly over the journal, an
  *independent* semantics sharing none of the automaton machinery —
  the second opinion that makes replay equivalence trustworthy.
"""

from .engine import REPLAY_CONFIGS, ReplayEngine, ReplayResult
from .ltl_oracle import (
    RUNTIME_REASONS,
    LTLUnsupported,
    OracleVerdict,
    OracleViolation,
    ltl_verdict,
    ltl_verdicts,
)

__all__ = [
    "REPLAY_CONFIGS",
    "ReplayEngine",
    "ReplayResult",
    "RUNTIME_REASONS",
    "LTLUnsupported",
    "OracleVerdict",
    "OracleViolation",
    "ltl_verdict",
    "ltl_verdicts",
]
