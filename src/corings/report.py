"""Named pass/fail records used by every axiom checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .fields import Matrix, first_difference


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: Optional[str] = None  # human-readable locator of the first failure

    def __str__(self) -> str:
        tag = "ok" if self.ok else "FAIL"
        where = f" @ {self.witness}" if (not self.ok and self.witness) else ""
        return f"[{tag}] {self.name}{where}"


@dataclass(frozen=True)
class Report:
    subject: str
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        head = f"{self.subject}: {'valid' if self.ok else 'INVALID'}"
        return "\n".join([head] + [f"  {c}" for c in self.checks])


class ReportBuilder:
    def __init__(self, subject: str):
        self.subject = subject
        self._checks: list[Check] = []

    def add(self, name: str, ok: bool, witness: Optional[str] = None) -> bool:
        self._checks.append(Check(name, bool(ok), None if ok else witness))
        return bool(ok)

    def add_all(self, name: str, cases: Iterable[tuple[Optional[str], bool]]) -> bool:
        """One check over lazy ``(witness, ok)`` cases: it fails with the
        witness of the first failing case, and no later case is evaluated."""
        for witness, ok in cases:
            if not ok:
                return self.add(name, False, witness)
        return self.add(name, True)

    def add_equal(self, name: str, lhs: Matrix, rhs: Matrix,
                  witness: Callable[[int], str] = "input column {}".format) -> bool:
        """One check of the identity lhs == rhs between matrices whose columns
        are the cases: it fails with the witness of the first differing column."""
        bad = first_difference(lhs, rhs)
        return self.add(name, bad is None, None if bad is None else witness(bad))

    def merge(self, other: Report, prefix: str = "") -> None:
        for c in other.checks:
            self._checks.append(Check(prefix + c.name, c.ok, c.witness))

    def build(self) -> Report:
        return Report(self.subject, tuple(self._checks))


class InvalidStructureError(ValueError):
    """A constructor precondition failed; carries the offending report."""

    def __init__(self, message: str, report: Optional[Report] = None):
        super().__init__(message if report is None else f"{message}\n{report}")
        self.report = report


class BalancednessError(ValueError):
    """An ambient map does not descend to the tensor quotient."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class KernelInvarianceError(RuntimeError):
    """A coaction fails to restrict to a cotensor kernel.

    Over a field base this signals an internal error, not a user mistake."""


class OracleDisagreementError(AssertionError):
    """Two independent routes to the same truth value disagree."""
