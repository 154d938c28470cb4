"""Pass/fail reports returned by the structure checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    law: str
    witness: object = None

    def __str__(self) -> str:
        if self.witness is None:
            return self.law
        return f"{self.law}: {self.witness}"


@dataclass(frozen=True)
class Report:
    """An ordered list of violated laws, empty when all passed, and the count of checks run per law."""

    failures: tuple[Failure, ...] = field(default_factory=tuple)
    checked: dict[str, int] = field(default_factory=dict)  # a law that ran no check is absent: no vacuous pass

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed

    def first(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        if self.passed:
            return "pass"
        return "; ".join(str(f) for f in self.failures)


class ReportBuilder:
    """Collects each failing instance, and each law's count of checks, while a checker walks its laws in order."""

    def __init__(self) -> None:
        self._failures: list[Failure] = []
        self._checked: dict[str, int] = {}

    def fail(self, law: str, witness: object = None) -> None:
        self._failures.append(Failure(law, witness))

    def count(self, law: str, n: int) -> None:
        """Record n checks of law, passed or failed."""
        if n:
            self._checked[law] = self._checked.get(law, 0) + n

    def report(self) -> Report:
        return Report(tuple(self._failures), dict(self._checked))
