"""Protocol analysis: the spec tables, and the handlers against them.

Four layers:

* :mod:`repro.staticcheck.analyzer` -- completeness, reachability,
  ambiguity, progress, vocabulary and routing checks over a
  :class:`~repro.protospec.ProtocolSpec`;
* :mod:`repro.staticcheck.graph` -- exhaustive exploration of the
  cache x home product graph over all message reorderings: deadlock /
  livelock / staleness / dead-row checks with minimized, file:line
  attributed counterexample paths;
* :mod:`repro.staticcheck.refinement` -- every transition the
  simulator's handlers in :mod:`repro.protocols` execute must be a row
  of the table;
* :mod:`repro.staticcheck.report` -- findings, the suppression
  manifest, and text/JSON rendering.

Driven by ``python -m repro.experiments staticcheck``.
"""

from __future__ import annotations

import os

from repro.staticcheck.analyzer import CHECKS, analyze_spec
from repro.staticcheck.graph import (
    SPEC_MUTATIONS, SpecGraphExplorer, SpecMutation,
    apply_spec_mutation, check_spec_graph, explore_spec,
)
from repro.staticcheck.refinement import RefinementCheck
from repro.staticcheck.report import (
    Finding, StaticCheckReport, SuppressionError, load_suppressions,
)

#: the packaged (default) suppression manifest
DEFAULT_SUPPRESSIONS = os.path.join(os.path.dirname(__file__),
                                    "suppressions.json")

__all__ = [
    "CHECKS", "analyze_spec", "RefinementCheck", "Finding",
    "StaticCheckReport",
    "SuppressionError", "load_suppressions", "DEFAULT_SUPPRESSIONS",
    "SPEC_MUTATIONS", "SpecGraphExplorer", "SpecMutation",
    "apply_spec_mutation", "check_spec_graph", "explore_spec",
]
