"""The repo's own static-analysis gate: AST rules for cross-file invariants.

Five PRs of conventions — "every backend joins the parity suite", "hot loops
stay object-free", "service handlers answer typed errors" — lived only in
ROADMAP.md prose until now.  This package machine-enforces them: a small
``ast``-based rule engine with a rule registry, per-line suppression pragmas
and file/line diagnostics, run as ``python -m repro.analysis`` (or ``make
lint``).  It has **no dependencies beyond the standard library**, so unlike
ruff/mypy it runs everywhere, always.

The shipped rules (see :mod:`repro.analysis.rules` for the full docstrings):

* ``hot-loop-purity`` — no :class:`DeweyCode` materialization and no
  per-iteration hot-column attribute lookups inside the packed SLCA/ELCA/RTF
  hot modules, except at pragma-declared result boundaries.
* ``parity-registration`` — every class implementing the ``PostingSource``
  protocol is registered in ``tests/test_backend_parity.py`` (``BACKENDS`` +
  ``PARITY_SOURCES``).
* ``typed-errors`` — ``service/server.py`` handlers raise only
  :class:`ServiceError` with codes defined in ``service/protocol.py``, and
  every wire op has a case in ``tests/test_service_parity.py``.
* ``sqlite-discipline`` — ``sqlite3.connect`` only inside ``repro/storage/``
  and never stored on shared objects.
* ``bench-honesty`` — functions writing ``BENCH_*.json`` artefacts call a
  result-parity / equivalence guard first.

Suppression: append ``# lint: allow(<rule>)`` to the offending line (or put
the comment alone on the line above); ``# lint: allow-file(<rule>)`` anywhere
in a file suppresses the rule for the whole file.  Every pragma in the tree
is a *declared* exception — grep for ``lint: allow`` to audit them.
"""

from .diagnostics import Diagnostic, format_diagnostics
from .engine import AnalysisError, Project, SourceFile, run_analysis
from .rules import RULES, Rule, get_rule, rule_names

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "Project",
    "RULES",
    "Rule",
    "SourceFile",
    "format_diagnostics",
    "get_rule",
    "rule_names",
    "run_analysis",
]
