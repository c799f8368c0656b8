"""Deterministic pass/fail reports used by validation and verification."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def format_report(report: Report) -> str:
    """Stable, line-oriented rendering (suitable for golden files)."""
    lines = []
    for c in report.checks:
        mark = "ok " if c.ok else "FAIL"
        line = f"[{mark}] {c.name}"
        if c.detail:
            line += f": {c.detail}"
        lines.append(line)
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(f"result: {verdict} ({len(report.checks)} checks)")
    return "\n".join(lines)
