"""Violation reports produced by the law-checking suites.

Reports merge associatively, so suites can shard work and combine partial
results in any grouping.
"""
from __future__ import annotations

from typing import Optional

from .record import frozen


@frozen
class Violation:
    law: str
    witness: str


class LawReport:
    """The counts and violations of one suite's run, by law."""

    def __init__(
        self,
        suite: str,
        skipped: int = 0,
        violations: Optional[list[Violation]] = None,
        by_law: Optional[dict[str, int]] = None,
    ):
        self.suite = suite
        self.skipped = skipped
        self.violations = [] if violations is None else violations
        self.by_law = {} if by_law is None else by_law

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is LawReport else NotImplemented

    @property
    def checked(self) -> int:
        return sum(self.by_law.values())

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "LawReport") -> "LawReport":
        if other.suite != self.suite:
            raise ValueError(f"cannot merge {other.suite!r} into {self.suite!r}")
        merged_by_law = dict(self.by_law)
        for law, n in other.by_law.items():
            merged_by_law[law] = merged_by_law.get(law, 0) + n
        return LawReport(
            suite=self.suite,
            skipped=self.skipped + other.skipped,
            violations=self.violations + other.violations,
            by_law=merged_by_law,
        )

    def to_doc(self) -> dict:
        # No wall-clock time enters a document, so repeated runs with the same
        # seed are byte-identical; the key stays, always null.
        return {
            "suite": self.suite,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": [{"law": v.law, "witness": v.witness} for v in self.violations],
            "by_law": dict(sorted(self.by_law.items())),
            "elapsed_ms": None,
        }

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.violations)} violation(s)"
        skip = f", {self.skipped} skipped" if self.skipped else ""
        return f"suite {self.suite}: {self.checked} checked{skip}, {state}"


class Checker:
    """Accumulator used while a suite runs; ``done`` returns its LawReport."""

    def __init__(self, suite: str):
        self.report = LawReport(suite=suite)

    def check(self, law: str, ok: bool, witness: str, *args) -> bool:
        """Count one instance of ``law``; if it fails, record the ``str.format``
        template ``witness`` filled with ``args``.  A pass formats nothing."""
        self.report.by_law[law] = self.report.by_law.get(law, 0) + 1
        if not ok:
            self.report.violations.append(Violation(law, witness.format(*args)))
        return ok

    def skip(self) -> None:
        self.report.skipped += 1

    def done(self) -> LawReport:
        return self.report
