"""Verification reports: check records, text and JSON rendering.

A report is deterministic given its configuration.  Failed checks always
carry a printable witness.  The JSON form validates against the versioned
schema shipped next to this module (report_schema.json).
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

VERSION = 1


class CheckRecord(namedtuple(
    "CheckRecord", "check_id kind subject source outcome detail witness",
    defaults=("", None),
)):
    """One check's verdict; outcome is pass | fail | skip."""

    __slots__ = ()


class Report:
    __slots__ = ("tool_name", "tool_version", "config", "checks")

    def __init__(self, tool_name: str, tool_version: str, config: dict):
        self.tool_name = tool_name
        self.tool_version = tool_version
        self.config = config
        self.checks: list[CheckRecord] = []

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def counts(self) -> dict[str, int]:
        passed = sum(1 for c in self.checks if c.outcome == "pass")
        failed = sum(1 for c in self.checks if c.outcome == "fail")
        skipped = sum(1 for c in self.checks if c.outcome == "skip")
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        }

    @property
    def failed(self) -> int:
        return self.counts()["failed"]

    def to_json_obj(self) -> dict:
        return {
            "version": VERSION,
            "tool": {"name": self.tool_name, "version": self.tool_version},
            "config": self.config,
            "checks": [
                {
                    "id": c.check_id,
                    "kind": c.kind,
                    "subject": c.subject,
                    "source": c.source,
                    "outcome": c.outcome,
                    "detail": c.detail,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
            "summary": self.counts(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def render_text(self) -> str:
        lines = [f"{self.tool_name} {self.tool_version}"]
        if self.config:
            cfg = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"config: {cfg}")
        lines.append("")
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}[c.outcome]
            line = f"[{mark}] {c.check_id}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
            if c.outcome != "pass" and c.witness:
                lines.append(f"       witness: {c.witness}")
        counts = self.counts()
        lines.append("")
        lines.append(
            f"{counts['total']} checks: {counts['passed']} passed,"
            f" {counts['failed']} failed, {counts['skipped']} skipped"
        )
        return "\n".join(lines)


def load_schema() -> dict:
    """The versioned JSON schema the report format is pinned to."""
    with open(os.path.join(os.path.dirname(__file__), "report_schema.json")) as fh:
        return json.load(fh)
