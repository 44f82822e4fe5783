"""Command-line front end: validate inputs, run identity suites, build
bundles, and run the numeric transport experiments.

Exit codes: 0 pass, 1 property failure, 2 input error, 3 resource cap,
4 numeric failure.
"""

import argparse
import json
import sys
import time

from .report import EnumerationBound, NumericFailure, StructuralError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

# scenario name -> constructor in .scenario, looked up only when transport runs.
# Each command imports what it runs, so transport compiles no exact module and
# the exact commands never load numpy.
SCENARIOS = {
    "so2-single-chart": "so2_single_chart_scenario",
    "so2-two-chart": "so2_two_chart_scenario",
    "so3-two-chart": "so3_two_chart_scenario",
}


def _emit(report, ok, args):
    """Write the report with its verdict and return the exit code."""
    report["ok"] = bool(ok)
    indent = None if getattr(args, "json", False) else 2
    sys.stdout.write(json.dumps(report, indent=indent, default=str) + "\n")
    return EXIT_OK if ok else EXIT_FAIL


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructuralError("cannot read {}: {}".format(path, exc))


def _base_report(command, args):
    return {
        "command": command,
        "inputs": {k: v for k, v in vars(args).items() if k != "func"},
        "checks": [],
    }


def _push(report, name, vr):
    report["checks"].append({"name": name, **vr.to_dict()})
    return vr.ok


def _bundle_checks(doc):
    """(name, report) for a bundle document's fibre and, on a fibre that passes,
    its cocycle, which composes in it; and the bundle once both pass, else None."""
    from .bundle import PrincipaloidBundle, bundle_parts, validate_cocycle
    from .groupoid import validate_groupoid

    base, cocycle, groupoid = bundle_parts(doc)
    checks = [("groupoid-axioms", validate_groupoid(groupoid))]
    if checks[0][1].ok:
        checks.append(("cocycle", validate_cocycle(base, cocycle)))
    ok = all(r.ok for _, r in checks)
    return checks, PrincipaloidBundle(base, cocycle, groupoid, checks[-1][1]) if ok else None


def cmd_validate(args):
    from .groupoid import FiniteGroupoid, validate_groupoid

    report = _base_report("validate", args)
    doc = _load_json(args.path)
    if isinstance(doc, dict) and "cocycle" in doc and "f" not in doc:
        ok = all(_push(report, *c) for c in _bundle_checks(doc)[0])
    elif isinstance(doc, dict) and "f" in doc:
        from .automorphism import automorphism_from_json, validate_automorphism

        if "bundle" not in doc:
            raise StructuralError("malformed automorphism document: no key 'bundle'")
        # the automorphism's bundle is built on a fibre and cocycle that pass;
        # the first of them that fails is the report
        checks, bundle = _bundle_checks(doc["bundle"])
        failed = [c for c in checks if not c[1].ok]
        if failed:
            ok = _push(report, *failed[0])
        else:
            aut = automorphism_from_json(doc, bundle)
            ok = _push(report, "automorphism", validate_automorphism(bundle, aut))
    elif isinstance(doc, dict) and "arrows" in doc:
        ok = _push(report, "groupoid-axioms",
                   validate_groupoid(FiniteGroupoid.from_json(doc)))
    else:
        raise StructuralError("unrecognized document shape")
    return _emit(report, ok, args)


def cmd_check_identities(args):
    from .bisection import (check_structure_identities, is_id_reducible,
                            r_equivariant_commutant)
    from .groupoid import FiniteGroupoid, validate_groupoid

    report = _base_report("check-identities", args)
    g = FiniteGroupoid.from_json(_load_json(args.path))
    ok = _push(report, "groupoid-axioms", validate_groupoid(g))
    if ok:
        ok &= _push(report, "structure-identities",
                    check_structure_identities(g, cap=args.cap))
        comm = r_equivariant_commutant(g, cap=args.cap)
        report["checks"].append({
            "name": "r-equivariant-commutant",
            "ok": comm["r_equals_left_translations"],
            "size": len(comm["r_commutant"]),
            "rb_equals_left_translations": comm["rb_equals_left_translations"],
        })
        ok &= comm["r_equals_left_translations"]
        reducible, _ = is_id_reducible(g)
        report["checks"].append({"name": "id-reducible", "value": reducible})
    return _emit(report, ok, args)


def cmd_bundle(args):
    from .bundle import (PrincipaloidBundle, bundle_parts, validate_cocycle,
                         verify_principal_axioms)
    from .groupoid import validate_groupoid

    report = _base_report("bundle", args)
    base, cocycle, groupoid = bundle_parts(_load_json(args.path))
    mode = args.report
    # every check below reads the fibre's tables as a groupoid's, and the
    # bundle is built on a cocycle that passes
    ok = _push(report, "fibre-groupoid", validate_groupoid(groupoid))
    checked = validate_cocycle(base, cocycle) if ok and mode == "axioms" else None
    if checked is not None:
        ok = _push(report, "cocycle", checked)
    if not ok:
        return _emit(report, False, args)
    bundle = PrincipaloidBundle(base, cocycle, groupoid, checked)
    if mode != "axioms":
        from .atiyah import AtiyahGroupoid, AdjointBundle, verify_atiyah_sequence, verify_trident
    if mode in ("counts", "gauge"):
        from .automorphism import (enumerate_gauge_group, verify_bisection_correspondence,
                                   verify_gauge_group)
    if mode == "counts":
        at = AtiyahGroupoid(bundle)
        adj = AdjointBundle(bundle)
        gauge = enumerate_gauge_group(bundle, cap=args.cap)
        counts = [len(bundle.points), len(bundle.shadow_points),
                  len(adj.elements), at.as_finite_groupoid().n_arrows, len(gauge)]
        report["counts"] = counts
        sys.stdout.write("/".join(str(c) for c in counts) + "\n")
    elif mode == "axioms":
        ok &= _push(report, "principal-axioms", verify_principal_axioms(bundle))
    elif mode == "atiyah":
        at = AtiyahGroupoid(bundle)
        ok &= _push(report, "atiyah-groupoid-axioms",
                    validate_groupoid(at.as_finite_groupoid()))
        ok &= _push(report, "atiyah-sequence", verify_atiyah_sequence(bundle, at))
    elif mode == "trident":
        ok &= _push(report, "trident", verify_trident(bundle))
    elif mode == "gauge":
        gauge = enumerate_gauge_group(bundle, cap=args.cap)
        report["gauge_order"] = len(gauge)
        at = AtiyahGroupoid(bundle)
        ok &= _push(report, "gauge-group",
                    verify_gauge_group(bundle, gauge, cap=args.cap, at=at))
        for aut in gauge:
            ok &= _push(report, "bisection-correspondence",
                        verify_bisection_correspondence(bundle, at, aut))
    return _emit(report, ok, args)


def _coordinate_rotation_connection(scenario):
    """A(sigma, m)(u) = u_0 J, J the last generator; the closed-form field."""
    from .connection import LocalConnectionData
    J = scenario.algebra[-1]

    def field(s, m, u):
        return u[..., 0, None, None] * J
    field.stack = lambda S, U: field(S, None, U)
    return LocalConnectionData(scenario, [field for _ in scenario.charts])


def _path_document(doc, scenario):
    """The waypoints and charts of a path document, checked against the
    scenario: an object with exactly the keys 'waypoints' and 'charts', chart
    ids ints in range(len(scenario.charts)), one waypoint more than charts,
    and each waypoint as many finite numbers as the chart boxes have axes."""
    if not isinstance(doc, dict):
        raise StructuralError("a path document is a JSON object with the keys "
                              "'waypoints' and 'charts'")
    odd = sorted(set(doc) ^ {"waypoints", "charts"})
    if odd:
        raise StructuralError("path document key {!r} is {}".format(
            odd[0], "unknown" if odd[0] in doc else "missing"))
    waypoints, charts = doc["waypoints"], doc["charts"]
    n = len(scenario.charts)
    if not (isinstance(charts, list) and charts):
        raise StructuralError("path document key 'charts' must be a non-empty list")
    for c in charts:
        if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < n:
            raise StructuralError("path document key 'charts' holds {!r}; chart ids "
                                  "are ints in range({})".format(c, n))
    if not (isinstance(waypoints, list) and len(waypoints) == len(charts) + 1):
        raise StructuralError("path document key 'waypoints' must be a list of "
                              "len(charts) + 1 = {} waypoints".format(len(charts) + 1))
    d = len(scenario.charts[0].intervals)
    for w in waypoints:
        # abs(x) <= max float is false for nan, inf and ints past the float range
        if not (isinstance(w, list) and len(w) == d and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                and abs(x) <= sys.float_info.max for x in w)):
            raise StructuralError("path document key 'waypoints' holds {!r}; a "
                                  "waypoint is {} finite numbers".format(w, d))
    return waypoints, charts


def _transport_setup(args):
    from . import scenario as scenarios
    from .connection import BasePath, construct_connection, zero_connection

    if args.scenario in SCENARIOS:
        scenario = getattr(scenarios, SCENARIOS[args.scenario])()
        conn_kind = "coordinate-rotation" if args.scenario == "so2-single-chart" \
            else "constructed"
    else:
        cfg = _load_json(args.scenario)
        if not isinstance(cfg, dict):
            raise StructuralError("a scenario config is a JSON object")
        unknown = sorted(set(cfg) - {"scenario", "connection"})
        if unknown:
            raise StructuralError("unknown key {} in scenario config".format(
                ", ".join(map(repr, unknown))))
        name = cfg.get("scenario")
        if not (isinstance(name, str) and name in SCENARIOS):
            raise StructuralError(
                "scenario config key 'scenario' is {}; known scenarios: {}".format(
                    repr(name) if "scenario" in cfg else "missing",
                    ", ".join(SCENARIOS)))
        scenario = getattr(scenarios, SCENARIOS[name])()
        conn_kind = cfg.get("connection", "constructed")
    if conn_kind == "coordinate-rotation":
        A = _coordinate_rotation_connection(scenario)
    elif conn_kind == "flat":
        A = zero_connection(scenario)
    elif conn_kind == "constructed":
        A = construct_connection(scenario)
    else:
        raise StructuralError("unknown connection {!r}".format(conn_kind))
    if args.path:
        path = BasePath.polyline(*_path_document(_load_json(args.path), scenario))
    elif len(scenario.charts) == 1:
        path = BasePath.polyline([[0.0, 0.0], [1.0, 0.0]], [0])
    else:  # the two-chart scenarios overlap in 0.3 < sigma_0 < 0.7
        path = BasePath.polyline([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [0, 1])
    return scenario, A, path


def cmd_transport(args):
    import numpy as np

    from .connection import parallel_transport, segment_routes, step_counts

    report = _base_report("transport", args)
    scenario, A, path = _transport_setup(args)
    a0 = np.eye(scenario.n)
    m0 = np.zeros(scenario.n)
    m0[0] = 1.0
    t0 = time.perf_counter()
    (a1, m1), shadow_end = parallel_transport(scenario, A, path, (a0, m0),
                                              step=args.ode_step)
    # equivariance: transporting start.h must equal transport(start).h
    h_rot = scenario.exp(0.37 * scenario.algebra[0])
    (a1h, _), _ = parallel_transport(scenario, A, path,
                                     (a0 @ h_rot, np.linalg.solve(h_rot, m0)),
                                     step=args.ode_step)
    equivariance = float(np.linalg.norm(a1h - a1 @ h_rot))
    # convergence order from steps 8h/4h/2h, confirmed by 4h/2h/h; an
    # endpoint difference counts only above a roundoff floor of 4 N eps, N
    # the finer run's step count, and the order needs both coarse ones
    steps = [args.ode_step * 8 / k for k in (1, 2, 4)]
    ends = []
    for step in steps:
        (ak, _), _ = parallel_transport(scenario, A, path, (a0, m0), step=step)
        ends.append(ak)
    ends.append(a1)
    diffs = [float(np.linalg.norm(x - y)) for x, y in zip(ends, ends[1:])]
    above = [d > 4 * sum(step_counts(path, step)) * np.finfo(float).eps
             for d, step in zip(diffs, steps[1:] + [args.ode_step])]
    order, note = None, None
    if 0.0 in diffs[:2]:
        note = "an endpoint difference is 0, so the error is not measurable"
    elif not (above[0] and above[1]):
        note = ("endpoint differences {:.2e} (8h/4h) and {:.2e} (4h/2h) are not both "
                "above 4 N eps: the error is at roundoff").format(*diffs[:2])
    else:
        order = float(np.log2(diffs[0] / diffs[1]))
        if above[2]:
            confirm = float(np.log2(diffs[1] / diffs[2]))
            if abs(order - confirm) > 0.5:
                note = ("estimates {:.2f} (8h/4h/2h) and {:.2f} (4h/2h/h) differ "
                        "by more than 0.5: the error is at roundoff").format(order, confirm)
                order = None
    # the steps of the five transports above, by the way each segment went
    rk4_steps, routes = {"loop": 0, "propagator": 0}, segment_routes(A, path)
    for step in [args.ode_step] * 2 + steps:
        for route, n in zip(routes, step_counts(path, step)):
            rk4_steps[route] += int(n)
    report.update({
        "endpoint": a1.tolist(),
        "fibre_label": m1.tolist(),
        "shadow_endpoint": shadow_end.tolist(),
        "equivariance_residual": equivariance,
        "convergence_order": order,
        "convergence_order_note": note,
        "elapsed_s": time.perf_counter() - t0,
        "rk4_steps": rk4_steps,
    })
    ok = equivariance < args.tol and np.all(np.isfinite(a1))
    return _emit(report, ok, args)


def build_parser():
    p = argparse.ArgumentParser(prog="groupoidal")
    p.add_argument("--json", action="store_true", help="compact JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("check-identities")
    c.add_argument("path")
    c.add_argument("--cap", type=int, default=100000)
    c.set_defaults(func=cmd_check_identities)

    b = sub.add_parser("bundle")
    b.add_argument("path")
    b.add_argument("--report", choices=["counts", "axioms", "atiyah",
                                        "trident", "gauge"], default="axioms")
    b.add_argument("--cap", type=int, default=1_000_000)
    b.set_defaults(func=cmd_bundle)

    t = sub.add_parser("transport")
    t.add_argument("scenario")
    t.add_argument("--path", default=None)
    t.add_argument("--step", dest="ode_step", type=float, default=1e-3)
    t.add_argument("--tol", type=float, default=1e-6)
    t.set_defaults(func=cmd_transport)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:
            raise StructuralError("cap must be >= 0, not {}".format(args.cap))
        if not 0 < getattr(args, "tol", 1.0) < float("inf"):
            raise StructuralError("tol must be finite and > 0, not {}".format(args.tol))
        return args.func(args)
    except EnumerationBound as exc:
        sys.stderr.write("cap exceeded: {}\n".format(exc))
        return EXIT_CAP
    except NumericFailure as exc:
        sys.stderr.write("numeric failure: {}\n".format(exc))
        return EXIT_NUMERIC
    except StructuralError as exc:
        sys.stderr.write("input error: {}\n".format(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
