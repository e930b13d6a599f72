"""Findings, suppressions, and the staticcheck report.

Every problem the analyzer, the graph or the refinement check finds is a
:class:`Finding` with a *stable identifier* -- a colon-joined path like
``completeness:wi:cache:M:READ_REPLY`` -- which is what the suppression
manifest keys on.  A suppression must carry a written reason; matching
findings stay in the report (marked suppressed) but do not affect the
exit code.  Suppressions that match nothing are themselves reported as
``stale-suppression`` findings so the manifest cannot rot.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: severity is informational only (the exit code counts every
#: unsuppressed finding); "error" findings are protocol holes, "warn"
#: findings are hygiene (stale suppressions, orphan message types)
SEVERITIES = ("error", "warn")

#: the checkout root: the directory that holds ``src/repro``
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def source_path(path: str) -> str:
    """``path`` relative to the checkout root, so a finding's
    ``file:line`` reads the same wherever the CLI runs; a file outside
    the checkout keeps its absolute path."""
    path = os.path.abspath(path)
    if path.startswith(_ROOT + os.sep):
        return os.path.relpath(path, _ROOT)
    return path


@dataclass
class Finding:
    check: str                  # completeness|reachability|ambiguity|...
    ident: str                  # stable suppression id
    detail: str
    protocol: str = ""
    side: str = ""
    state: str = ""
    event: str = ""
    file: str = ""
    line: int = 0
    severity: str = "error"
    suppressed: bool = False
    suppress_reason: str = ""

    def location(self) -> str:
        if self.file:
            return f"{self.file}:{self.line}"
        parts = [p for p in (self.protocol, self.side, self.state,
                             self.event) if p]
        return "/".join(parts)

    def to_json(self) -> dict:
        out = {"check": self.check, "id": self.ident,
               "detail": self.detail, "severity": self.severity}
        for key in ("protocol", "side", "state", "event", "file"):
            value = getattr(self, key)
            if value:
                out[key] = value
        if self.line:
            out["line"] = self.line
        if self.suppressed:
            out["suppressed"] = True
            out["suppress_reason"] = self.suppress_reason
        return out


class SuppressionError(ValueError):
    """A malformed suppression manifest."""


def load_suppressions(path: str) -> Dict[str, str]:
    """Read a manifest: ``{"suppressions": [{"id": ..., "reason": ...}]}``.
    Returns id -> reason.  Every entry must carry a non-empty reason."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("suppressions")
    if not isinstance(entries, list):
        raise SuppressionError(
            f"{path}: expected a top-level 'suppressions' list")
    out: Dict[str, str] = {}
    for i, entry in enumerate(entries):
        ident = entry.get("id")
        reason = (entry.get("reason") or "").strip()
        if not ident or not reason:
            raise SuppressionError(
                f"{path}: suppression #{i} needs both 'id' and a "
                f"non-empty 'reason'")
        if ident in out:
            raise SuppressionError(
                f"{path}: duplicate suppression for {ident!r}")
        out[ident] = reason
    return out


class StaticCheckReport:
    """Collects findings, applies suppressions, renders text/JSON."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    def apply_suppressions(self, table: Dict[str, str]) -> None:
        """Mark matching findings suppressed; report stale entries."""
        used = set()
        for f in self.findings:
            reason = table.get(f.ident)
            if reason is not None:
                f.suppressed = True
                f.suppress_reason = reason
                used.add(f.ident)
        for ident, reason in sorted(table.items()):
            if ident not in used:
                self.findings.append(Finding(
                    check="stale-suppression",
                    ident=f"stale-suppression:{ident}",
                    detail=f"suppression {ident!r} matches no finding "
                           f"(reason was: {reason})",
                    severity="warn"))

    # -- tallies -------------------------------------------------------

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def by_check(self, check: str) -> List[Finding]:
        return [f for f in self.findings if f.check == check]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        lines: List[str] = []
        if not self.findings:
            return "staticcheck: no findings"
        width = max(len(f.check) for f in self.findings)
        for f in self.findings:
            mark = "suppressed" if f.suppressed else f.severity.upper()
            lines.append(f"[{mark:>10}] {f.check:<{width}} "
                         f"{f.ident}")
            lines.append(f"             {f.detail}")
            if f.file:
                lines.append(f"             at {f.file}:{f.line}")
            if f.suppressed:
                lines.append(f"             suppressed: "
                             f"{f.suppress_reason}")
        sup = len(self.findings) - len(self.unsuppressed)
        lines.append(f"staticcheck: {len(self.unsuppressed)} finding(s), "
                     f"{sup} suppressed")
        return "\n".join(lines)

    def to_json(self, protocols: Optional[List[str]] = None) -> dict:
        return {
            "protocols": protocols or [],
            "findings": [f.to_json() for f in self.findings],
            "counts": {
                "total": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": (len(self.findings)
                               - len(self.unsuppressed)),
            },
            "ok": self.ok,
        }
