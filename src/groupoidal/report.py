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

    def record_all(self, count, ok, checks):
        """Record count checks at once, ok telling whether all of them passed.

        Only when one failed is checks read: an iterable of (check, ok,
        witness) for the same count checks, in order, passed to record.
        """
        if ok:
            self.checks_run += count
            return
        for check, passed, witness in checks:
            self.record(check, passed, witness)

    def record_columns(self, columns, keys=None, witness=None):
        """Record columns (check, lhs, rhs[, keys[, witness]]) of the checks
        lhs[i] == rhs[i] through record_all, a short column taking the call's
        keys and witness.  Only after a failure are keys (a list, or a function
        returning one) and witness(keys[i]) read, to record every check in the
        per-check loops' order: by keys[i], then column."""
        ok, count = True, 0
        for column in columns:
            ok, count = ok and column[1] == column[2], count + len(column[1])
        self.record_all(count, ok, _replay(columns, keys, witness))

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


def _replay(columns, keys, witness):
    full = [column + (keys, witness)[len(column) - 3:] for column in columns]
    order = sorted((key, c, i) for c, (_, _, _, ks, _) in enumerate(full)
                   for i, key in enumerate(ks() if callable(ks) else ks))
    for key, c, i in order:
        check, lhs, rhs, _, at = full[c]
        yield check, lhs[i] == rhs[i], at(key)


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
