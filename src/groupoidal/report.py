"""Validation reports: named checks with pass/fail status and witnesses."""


class Violation:
    def __init__(self, check, witness=None, detail=""):
        self.check = check
        self.witness = witness
        self.detail = detail

    def __repr__(self):
        return "Violation({!r}, witness={!r})".format(self.check, self.witness)

    def to_dict(self):
        return {"check": self.check, "witness": self.witness, "detail": self.detail}


class ValidationReport:
    """A collection of violations; empty means everything passed.

    Validation is total: all violations are collected, never just the first.
    """

    def __init__(self):
        self.violations = []
        self.checks_run = 0

    def record(self, check, ok, witness=None, detail=""):
        self.checks_run += 1
        if not ok:
            self.violations.append(Violation(check, witness, detail))

    def record_all(self, count, fails=()):
        """Record count checks at once: fails holds (key, check, witness) for
        those that failed, added as violations in key order; the rest pass."""
        for _, check, witness in sorted(fails, key=lambda f: f[0]):
            self.add(check, witness)
        self.checks_run += count - len(fails)

    def record_columns(self, columns, keys=None, witness=None):
        """Record columns (check, lhs, rhs[, keys[, witness]]) of the checks
        lhs[i] == rhs[i] through record_all, a short column taking the call's
        keys and witness.  Keys (a list, or a function returning one) and
        witness(keys[i]) are read only where a column differs, and failures
        come in the per-check loops' order: by keys[i], then column."""
        count, fails = 0, []
        for c, column in enumerate(columns):
            check, lhs, rhs, ks, at = column + (keys, witness)[len(column) - 3:]
            count += len(lhs)
            at_fail = differ(lhs, rhs)
            if at_fail:
                ks = ks() if callable(ks) else ks
                fails += [((ks[i], c, i), check, at(ks[i])) for i in at_fail]
        self.record_all(count, fails)

    def add(self, check, witness=None, detail=""):
        self.checks_run += 1
        self.violations.append(Violation(check, witness, detail))

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "ValidationReport(ok={}, violations={})".format(self.ok, self.violations)

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "violations": [v.to_dict() for v in self.violations],
        }


def differ(lhs, rhs):
    """The indices where two columns differ."""
    if lhs == rhs:
        return []
    return [i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y]


class StructuralError(ValueError):
    """Malformed input tables (ids out of range, missing entries)."""


class CompositionError(ValueError):
    """Attempted multiplication of a non-composable pair."""


class EnumerationBound(RuntimeError):
    """A brute-force enumeration or a numeric loop would exceed its cap."""


class NumericFailure(RuntimeError):
    """An iterative numeric step failed to converge."""


class InternalError(RuntimeError):
    """A result built by the library breaks its own invariant: a bug, not bad
    input."""
