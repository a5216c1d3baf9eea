"""Violation reports produced by the law-checking suites.

Reports merge associatively, so suites can shard work and combine partial
results in any grouping.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass(frozen=True)
class Violation:
    law: str
    witness: str


@dataclass
class LawReport:
    suite: str
    checked: int = 0
    skipped: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    by_law: dict[str, int] = field(default_factory=dict)

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
            checked=self.checked + other.checked,
            skipped=self.skipped + other.skipped,
            violations=self.violations + other.violations,
            elapsed=self.elapsed + other.elapsed,
            by_law=merged_by_law,
        )

    def to_doc(self) -> dict:
        # Wall-clock time is reported as null so that repeated runs with the
        # same seed produce byte-identical structured output.
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
        return (
            f"suite {self.suite}: {self.checked} checked{skip}, {state}"
            f" [{self.elapsed * 1000:.1f} ms]"
        )


class Checker:
    """Accumulator used while a suite runs, timed from construction to
    ``done``, which freezes it into a LawReport."""

    def __init__(self, suite: str):
        self.report = LawReport(suite=suite)
        self._start = perf_counter()

    def check(self, law: str, ok: bool, witness) -> bool:
        self.report.checked += 1
        self.report.by_law[law] = self.report.by_law.get(law, 0) + 1
        if not ok:
            text = witness() if callable(witness) else str(witness)
            self.report.violations.append(Violation(law, text))
        return ok

    def skip(self, law: str) -> None:
        self.report.skipped += 1

    def done(self) -> LawReport:
        self.report.elapsed = perf_counter() - self._start
        return self.report
