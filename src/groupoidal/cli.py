"""Command-line front end: validate inputs, run identity suites, build
bundles, and run the numeric transport experiments.

Exit codes: 0 pass, 1 property failure, 2 input error, 3 resource cap,
4 numeric failure.
"""

import argparse
import json
import sys
import time

from .atiyah import AtiyahGroupoid, AdjointBundle, verify_atiyah_sequence, \
    verify_trident
from .automorphism import (enumerate_gauge_group, validate_automorphism,
                           verify_bisection_correspondence, verify_gauge_group,
                           BundleAutomorphism)
from .bisection import (Bisection, check_structure_identities,
                        is_id_reducible, r_equivariant_commutant)
from .bundle import bundle_from_json, validate_cocycle, verify_principal_axioms
from .groupoid import FiniteGroupoid, validate_groupoid
from .report import EnumerationBound, NumericFailure, StructuralError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

# scenario name -> constructor in .scenario, looked up only when transport runs,
# so the exact commands never load numpy
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


def cmd_validate(args):
    report = _base_report("validate", args)
    doc = _load_json(args.path)
    ok = True
    if isinstance(doc, dict) and "cocycle" in doc and "f" not in doc:
        bundle = bundle_from_json(doc)
        ok &= _push(report, "groupoid-axioms", validate_groupoid(bundle.groupoid))
        ok &= _push(report, "cocycle", validate_cocycle(bundle.base, bundle.cocycle))
    elif isinstance(doc, dict) and "f" in doc:
        bundle = bundle_from_json(doc["bundle"])
        gamma = {(e["j"], e["i"], e["sigma"]):
                 Bisection.from_json(bundle.groupoid, e["bisection"])
                 for e in doc["gamma"]}
        aut = BundleAutomorphism(bundle, doc["f"], gamma)
        ok &= _push(report, "automorphism", validate_automorphism(bundle, aut))
    elif isinstance(doc, dict) and "arrows" in doc:
        g = FiniteGroupoid.from_json(doc)
        ok &= _push(report, "groupoid-axioms", validate_groupoid(g))
    else:
        raise StructuralError("unrecognized document shape")
    return _emit(report, ok, args)


def cmd_check_identities(args):
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
    report = _base_report("bundle", args)
    bundle = bundle_from_json(_load_json(args.path))
    # every battery below reads the fibre's tables as a groupoid's
    if not _push(report, "fibre-groupoid", validate_groupoid(bundle.groupoid)):
        return _emit(report, False, args)
    ok = True
    mode = args.report or "axioms"
    if mode == "counts":
        at = AtiyahGroupoid(bundle)
        adj = AdjointBundle(bundle)
        gauge = enumerate_gauge_group(bundle, cap=args.cap)
        counts = [len(bundle.points), len(bundle.shadow_points),
                  len(adj.elements), len(at.elements), len(gauge)]
        report["counts"] = counts
        sys.stdout.write("/".join(str(c) for c in counts) + "\n")
    elif mode == "axioms":
        ok &= _push(report, "cocycle", validate_cocycle(bundle.base, bundle.cocycle))
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
    else:
        raise StructuralError("unknown report mode {!r}".format(mode))
    return _emit(report, ok, args)


def _coordinate_rotation_connection(scenario):
    """A(sigma, m)(u) = u_0 J, J the last generator; the closed-form field."""
    from .connection import LocalConnectionData
    J = scenario.algebra[-1]

    def field(s, m, u):
        return u[0] * J
    field.constant_in_m = True
    return LocalConnectionData(scenario, [field for _ in scenario.charts])


def _transport_setup(args):
    from . import scenario as scenarios
    from .connection import BasePath, construct_connection, zero_connection

    if args.scenario in SCENARIOS:
        scenario = getattr(scenarios, SCENARIOS[args.scenario])()
        conn_kind = "coordinate-rotation" if args.scenario == "so2-single-chart" \
            else "constructed"
    else:
        cfg = _load_json(args.scenario)
        scenario = getattr(scenarios, SCENARIOS[cfg["scenario"]])()
        conn_kind = cfg.get("connection", "constructed")
    if conn_kind == "coordinate-rotation":
        A = _coordinate_rotation_connection(scenario)
    elif conn_kind == "flat":
        A = zero_connection(scenario)
    else:
        A = construct_connection(scenario)
    if args.path:
        pd = _load_json(args.path)
        path = BasePath.polyline(pd["waypoints"], pd["charts"])
    else:
        path = BasePath.polyline([[0.0, 0.0], [1.0, 0.0]], [0])
    return scenario, A, path


def cmd_transport(args):
    import numpy as np

    from .connection import parallel_transport

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
    # convergence order from steps 8h/4h/2h, confirmed by 4h/2h/h; at
    # roundoff the two estimates disagree and no order is reported
    ends = []
    for k in (1, 2, 4):
        (ak, _), _ = parallel_transport(scenario, A, path, (a0, m0),
                                        step=args.ode_step * 8 / k)
        ends.append(ak)
    ends.append(a1)
    diffs = [float(np.linalg.norm(x - y)) for x, y in zip(ends, ends[1:])]
    order, note = None, None
    if min(diffs) == 0.0:
        note = "an endpoint difference is 0, so the error is not measurable"
    else:
        orders = [float(np.log2(e / f)) for e, f in zip(diffs, diffs[1:])]
        if abs(orders[0] - orders[1]) > 0.5:
            note = ("estimates {:.2f} (8h/4h/2h) and {:.2f} (4h/2h/h) differ "
                    "by more than 0.5: the error is at roundoff").format(*orders)
        else:
            order = orders[0]
    report.update({
        "endpoint": a1.tolist(),
        "fibre_label": m1.tolist(),
        "shadow_endpoint": shadow_end.tolist(),
        "equivariance_residual": equivariance,
        "convergence_order": order,
        "convergence_order_note": note,
        "elapsed_s": time.perf_counter() - t0,
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
    t.add_argument("--step", "--ode-step", dest="ode_step", type=float,
                   default=1e-3)
    t.add_argument("--tol", type=float, default=1e-6)
    t.set_defaults(func=cmd_transport)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBound as exc:
        sys.stderr.write("cap exceeded: {}\n".format(exc))
        return EXIT_CAP
    except NumericFailure as exc:
        sys.stderr.write("numeric failure: {}\n".format(exc))
        return EXIT_NUMERIC
    except (StructuralError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write("input error: {}\n".format(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
