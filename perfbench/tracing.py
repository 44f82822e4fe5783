"""Spans and counters recorded around groupoidal's public functions.

Tracing is installed from outside the package. Each entry point in TARGETS is
replaced, in every loaded ``groupoidal`` module that holds it, by a wrapper
that records a span (name, start, end, parent, job) and the counters its hook
derives from the arguments and result. ``uninstall`` puts the originals back,
so untraced passes run the package unchanged.

A span's self time is its duration minus the time covered by its direct
children. A group's covered time adds up only the outermost spans of the
group, so a function that recurses into its own group is not counted twice.
"""

import math
import sys
import time
from array import array
from collections import Counter

MODULES = ("groupoid", "bisection", "bundle", "atiyah", "automorphism",
           "scenario", "connection", "cli", "report")

# (module, function or Class.method, group fed by its covered time, hook)
TARGETS = [
    ("groupoid", "validate_groupoid", "groupoid.validate", "battery"),
    ("bisection", "enumerate_bisections", "bisection.enumerate", "enumerate"),
    ("bisection", "check_structure_identities", "bisection.identities", "battery"),
    ("bisection", "r_equivariant_commutant", "bisection.commutant", None),
    ("bisection", "is_id_reducible", "bisection.id_reducible", None),
    ("bundle", "validate_cocycle", "bundle.cocycle", "battery"),
    ("bundle", "verify_principal_axioms", "bundle.principal", "battery"),
    ("atiyah", "AtiyahGroupoid.as_finite_groupoid", "atiyah.as_finite_groupoid", "fg"),
    ("atiyah", "verify_atiyah_sequence", "atiyah.sequence", "battery"),
    ("atiyah", "verify_trident", "atiyah.trident", "battery"),
    ("atiyah", "enumerate_projectable_bisections", "atiyah.projectable", "projectable"),
    ("automorphism", "enumerate_gauge_group", "automorphism.gauge_enum", "gauge"),
    ("automorphism", "verify_gauge_group", "automorphism.gauge_verify", "battery"),
    ("automorphism", "verify_bisection_correspondence", "automorphism.correspondence",
     "battery"),
    ("scenario", "MatrixGroupScenario.exp", "scenario.exp", None),
    ("scenario", "BisectionFamily.__call__", "scenario.family", None),
    ("connection", "LocalConnectionData.__call__", "connection.eval", None),
    ("connection", "mc_right", "connection.mc_right", None),
    ("connection", "tangent_conjugation", "connection.tangent_conjugation", None),
    ("connection", "parallel_transport", "connection.transport", None),
    ("connection", "gauge_transform_connection", "connection.gauge_transform", "gauge_tag"),
    ("connection", "inverse_gauge", "connection.gauge_transform", None),
    ("connection", "gluing_residual", "connection.gluing", None),
    ("connection", "apply_theta", "connection.theta", None),
    ("connection", "shadow_theta", "connection.theta", None),
    ("connection", "christoffel", "connection.christoffel", None),
    ("connection", "covariant_derivative", "connection.covariant", None),
]

# Checks-run counters named after the battery that returned the report.
CHECK_COUNTERS = {
    "groupoid.validate_groupoid": "groupoid.validate_checks",
    "bisection.check_structure_identities": "bisection.identities_checks",
    "bundle.verify_principal_axioms": "bundle.principal_checks",
    "atiyah.verify_trident": "atiyah.trident_checks",
}

GAUGE_TAG = "_perfbench_gauge"


class Tracer:
    """Spans of one traced pass, and counters accumulated while installed."""

    def __init__(self):
        self._installed = []
        self._names = []
        self._name_ids = {}
        self._modules = []
        self._groups = []       # per name: indices into _group_names
        self._group_names = []
        self._batteries = set()
        self._evals = ()
        self._last_accepted = 0
        self.epoch = time.perf_counter()
        self.keep_spans = True
        self.reset()

    def reset(self):
        """Start a new pass: clear counters, spans and the open-span stack."""
        self.calls = [0] * len(self._names)
        self.self_s = [0.0] * len(self._names)
        self.covered_s = [0.0] * len(self._group_names)
        self._depth = [0] * len(self._group_names)
        self.counts = Counter()
        self.battery_checks = Counter()
        self.battery_violations = Counter()
        self._stack = []
        self.job = -1
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")

    def name_id(self, name, module, groups=()):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = nid
            self._modules.append(module)
            gids = []
            for group in groups:
                if group not in self._group_names:
                    self._group_names.append(group)
                    self.covered_s.append(0.0)
                    self._depth.append(0)
                gids.append(self._group_names.index(group))
            self._groups.append(tuple(gids))
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def begin(self, nid):
        depth = self._depth
        gids = self._groups[nid]
        for g in gids:
            depth[g] += 1
        stack = self._stack
        index = -1
        start = time.perf_counter()
        if self.keep_spans:
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(start - self.epoch)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
        stack.append([index, nid, start, 0.0])

    def end(self):
        now = time.perf_counter()
        stack = self._stack
        index, nid, start, child = stack.pop()
        dur = now - start
        if index >= 0:
            self.span_end[index] = now - self.epoch
        if stack:
            stack[-1][3] += dur
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        depth = self._depth
        for g in self._groups[nid]:
            depth[g] -= 1
            if not depth[g]:  # the outermost span of its group
                self.covered_s[g] += dur

    def _inside(self, nids):
        return any(frame[1] in nids for frame in self._stack)

    # -- installing wrappers --------------------------------------------

    def install(self):
        for module, attr, group, hook in TARGETS:
            mod = sys.modules.get("groupoidal." + module)
            if mod is None:
                continue  # never imported by this workload, so never called
            span = module + "." + attr
            nid = self.name_id(span, module, (group,))
            if hook == "battery":
                self._batteries.add(nid)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(orig, nid, span, hook))
                self._installed.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrapper(orig, nid, span, hook)
            for name, holder in list(sys.modules.items()):
                if (name == "groupoidal" or name.startswith("groupoidal.")) \
                        and getattr(holder, attr, None) is orig:
                    setattr(holder, attr, wrapper)
                    self._installed.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._installed):
            setattr(holder, attr, orig)
        self._installed = []

    def _wrapper(self, orig, nid, span, hook):
        if span == "connection.LocalConnectionData.__call__":
            return self._wrap_eval(orig, nid, span)
        if span == "connection.parallel_transport":
            return self._wrap_transport(orig, nid)
        begin, end = self.begin, self.end
        after = getattr(self, "_hook_" + hook) if hook else None

        def wrapper(*args, **kwargs):
            begin(nid)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                end()
                self._on_error(nid, exc)
                raise
            end()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _wrap_eval(self, orig, plain, span):
        """Connection evaluation; evaluating gauge-transformed data also feeds
        the gauge group."""
        begin, end = self.begin, self.end
        gauged = self.name_id(span + "[gauge]", "connection",
                              ("connection.eval", "connection.gauge"))
        self._evals = (plain, gauged)

        def wrapper(obj, *args, **kwargs):
            begin(gauged if getattr(obj, GAUGE_TAG, False) else plain)
            try:
                return orig(obj, *args, **kwargs)
            finally:
                end()

        return wrapper

    def _wrap_transport(self, orig, nid):
        """RK4 transport; a step evaluates the connection four times, so the
        step count is read off the evaluations the transport made."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            before = sum(self.calls[e] for e in self._evals)
            begin(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                end()
                evals = sum(self.calls[e] for e in self._evals) - before
                self.counts["connection.transport_steps"] += evals // 4

        return wrapper

    def _on_error(self, nid, exc):
        from groupoidal.report import EnumerationBound

        if isinstance(exc, EnumerationBound) and self._modules[nid] == "automorphism" \
                and not any(self._modules[f[1]] == "automorphism" for f in self._stack):
            self.counts["automorphism.cap_refusals"] += 1

    # -- hooks: counters taken from arguments and results ----------------

    def _hook_battery(self, span, args, report):
        if span in CHECK_COUNTERS:
            self.counts[CHECK_COUNTERS[span]] += report.checks_run
        if not self._inside(self._batteries):
            self.battery_checks[span] += report.checks_run
            self.battery_violations[span] += len(report.violations)

    def _hook_enumerate(self, span, args, result):
        candidates = math.prod(Counter(args[0].src).values())
        self.counts["bisection.enumerate_candidates"] += candidates
        self.counts["bisection.enumerate_accepted"] += len(result)
        self._last_accepted = len(result)
        if self._inside({self._name_ids.get("atiyah.enumerate_projectable_bisections")}):
            self.counts["atiyah.projectable_candidates"] += candidates

    def _hook_fg(self, span, args, fg):
        self.counts["atiyah.fg_arrows"] += fg.n_arrows
        self.counts["atiyah.fg_mul_entries"] += len(fg.mul)

    def _hook_projectable(self, span, args, result):
        self.counts["atiyah.projectable_vertical"] += len(result[1])

    def _hook_gauge(self, span, args, gauge):
        # the fibre's bisections were enumerated just before, inside this call
        n_points = len(args[0].base.base)
        self.counts["automorphism.gauge_candidates"] += self._last_accepted ** n_points
        self.counts["automorphism.gauge_order"] += len(gauge)

    def _hook_gauge_tag(self, span, args, conn):
        setattr(conn, GAUGE_TAG, True)

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """This pass's statistics by span name, module and group."""
        module_self = Counter()
        for nid, s in enumerate(self.self_s):
            module_self[self._modules[nid]] += s
        return {
            "calls": {name: n for name, n in zip(self._names, self.calls) if n},
            "self_s": {name: s for name, s, n in zip(self._names, self.self_s, self.calls) if n},
            "module_self_s": dict(module_self),
            "covered_s": dict(zip(self._group_names, self.covered_s)),
            "counts": dict(self.counts),
            "battery_checks": dict(self.battery_checks),
            "battery_violations": dict(self.battery_violations),
            "spans": len(self.span_start),
        }

    def spans_doc(self, job_names):
        """The recorded spans, column by column, times in microseconds."""
        return {
            "names": list(self._names),
            "modules": list(self._modules),
            "jobs": list(job_names),
            "name": list(self.span_name),
            "start_us": [round(x * 1e6) for x in self.span_start],
            "end_us": [round(x * 1e6) for x in self.span_end],
            "parent": list(self.span_parent),
            "job": list(self.span_job),
        }

