"""The benchmark's four workloads: seeded inputs, job lists and answer oracles.

A job is one public battery call on one generated input (in ``cli-mix``, one
child process). ``call(state)`` makes the call and ``check(value, state)``
compares its answer with a value derived here, independently of the function
under test; it returns None when the answer is right and a message otherwise.
``state`` is a fresh dict per pass: later jobs read earlier results from it
and checks record numeric diagnostics in it.

Jobs look the package functions up at call time (``G.validate_groupoid``,
not a name bound at import), so the traced run's wrappers see every call.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NAMES = ("exact-identities", "exact-bundle", "numeric-connection", "cli-mix")

# Overlap samples per scenario. With 40, the 90th latency percentile of
# numeric-connection falls inside the cluster of SO(3) gauge and covariance
# jobs rather than on the gap below the transports.
SAMPLES = 40


class Job:
    def __init__(self, name, call, check, kind="bench", span="bench.job"):
        self.name = name
        self.call = call
        self.check = check
        self.kind = kind
        self.span = span


class Workload:
    """Jobs to time, probes that a cap refuses today, and ``material``: a
    function giving the inputs as JSON, called outside the timed set-up."""

    def __init__(self, jobs, material, probes=(), children=False):
        self.jobs = jobs
        self.material = material
        self.probes = list(probes)
        self.children = children

    def digest(self):
        text = json.dumps(self.material(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def build(name, seed):
    """Import groupoidal and build the workload's inputs (the timed set-up)."""
    builder = {"exact-identities": exact_identities, "exact-bundle": exact_bundle,
               "numeric-connection": numeric_connection, "cli-mix": cli_mix}[name]
    return builder(seed)


def expect(ok, message):
    return None if ok else message


def report_ok(report, state=None):
    return expect(report.ok, "violations: {}".format(report.violations[:3]))


# -- finite inputs ---------------------------------------------------------

def fibre_bisections(g):
    """Bisections of a small groupoid, generated permutation by permutation:
    for each bijection pi of the objects, one arrow from each m to pi(m)."""
    hom = defaultdict(list)
    for a in g.arrows:
        hom[(g.src[a], g.tgt[a])].append(a)
    objects = list(g.objects)
    for pi in itertools.permutations(objects):
        yield from itertools.product(*(hom[(m, pi[m])] for m in objects))


def symmetric_group(n):
    elements = list(itertools.permutations(range(n)))
    mult = {(a, b): tuple(a[b[i]] for i in range(n)) for a in elements for b in elements}
    inverse = {a: tuple(sorted(range(n), key=a.__getitem__)) for a in elements}
    return elements, mult, tuple(range(n)), inverse


def seeded_blocks(rng, sizes):
    """A partition of range(sum(sizes)) into blocks of the given sizes."""
    points = list(range(sum(sizes)))
    rng.shuffle(points)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(points[start:start + size]))
        start += size
    return blocks


def finite_inputs(G, rng):
    """(label, groupoid, bisection count) for the identity battery.

    Counts are closed forms: n! for the pair groupoid on n points, the
    product of block factorials when fibred, n! |Stab|^n for a transitive
    action, |G| for a group, and 6! for z2 x pair(3), which is the pair
    groupoid on six points.
    """
    s3 = symmetric_group(3)
    action = G.FiniteGroupAction(s3[0], s3[1], s3[2], s3[3], 3,
                                 {(p, m): p[m] for p in s3[0] for m in range(3)})
    z2 = G.action_groupoid(G.z2_swap_action())
    out = [("z2", z2, 2)]
    out += [("pair{}".format(n), G.pair_groupoid(n), math.factorial(n))
            for n in range(3, 7)]
    for sizes in ((3, 3), (3, 2, 2), (3, 3, 2)):
        blocks = seeded_blocks(rng, sizes)
        out.append(("fibred{}".format("".join(map(str, sizes))),
                    G.fibred_pair_groupoid(blocks),
                    math.prod(math.factorial(s) for s in sizes)))
    out.append(("s3-action", G.action_groupoid(action), math.factorial(3) * 2 ** 3))
    out.append(("s3-group", G.group_groupoid(*s3), 6))
    out.append(("s4-group", G.group_groupoid(*symmetric_group(4)), 24))
    out.append(("z2xpair3", G.product_groupoid(z2, G.pair_groupoid(3)), math.factorial(6)))
    return out


def exact_identities(seed):
    import groupoidal as G

    rng = random.Random(seed)
    inputs = finite_inputs(G, rng)
    jobs = []
    for label, g, count in inputs:
        jobs += [
            Job(label + ":validate", lambda st, g=g: G.validate_groupoid(g), report_ok),
            Job(label + ":enumerate", lambda st, g=g: G.enumerate_bisections(g),
                lambda v, st, c=count: expect(len(v) == c, "{} bisections, want {}".format(len(v), c))),
            Job(label + ":identities", lambda st, g=g: G.check_structure_identities(g), report_ok),
            # every hom-set inside an orbit is nonempty, so each arrow extends
            Job(label + ":id-reducible", lambda st, g=g: G.is_id_reducible(g),
                lambda v, st: expect(v[0] is True, "not id-reducible at arrow {}".format(v[1]))),
        ]
        if g.n_arrows <= 12:
            # left translations by distinct bisections differ on unit arrows
            jobs.append(Job(label + ":commutant", lambda st, g=g: G.r_equivariant_commutant(g),
                            lambda v, st, c=count: expect(
                                v["r_equals_left_translations"] and len(v["r_commutant"]) == c,
                                "commutant of size {}, want {}".format(len(v["r_commutant"]), c))))
    return Workload(jobs,
                    lambda: [[label, g.to_json()] for label, g, _ in inputs])


# -- bundles ---------------------------------------------------------------

def chain_bundle(G, g, k, rng):
    """Base s0..s(k-1) covered by the charts {s_i, s_(i+1)}; consecutive charts
    meet in one point and no three meet, so any bisection values glue."""
    bisections = [G.Bisection(g, a) for a in fibre_bisections(g)]
    base = ["s{}".format(i) for i in range(k)]
    cover = [[base[i], base[i + 1]] for i in range(k - 1)]
    entries = {(i, i + 1, base[i + 1]): rng.choice(bisections) for i in range(k - 1)}
    return G.build_bundle(G.CechBase(base, cover), G.Cocycle(g, entries), g)


def vertical_automorphism(G, bundle, rng):
    """A gauge map: one random fibre bisection per base point, in its chart."""
    bisections = [G.Bisection(bundle.groupoid, a) for a in fibre_bisections(bundle.groupoid)]
    gamma = {}
    for sigma in bundle.base.base:
        i = bundle.base.canonical_chart(sigma)
        gamma[(i, i, sigma)] = rng.choice(bisections)
    return G.BundleAutomorphism(bundle, {s: s for s in bundle.base.base}, gamma)


def automorphism_to_json(G, aut):
    return {"bundle": G.bundle_to_json(aut.bundle),
            "f": dict(aut.f),
            "gamma": [{"j": j, "i": i, "sigma": s, "bisection": b.to_json()}
                      for (j, i, s), b in sorted(aut.gamma.items())]}


def exact_bundle(seed):
    import groupoidal as G

    rng = random.Random(seed)
    fibres = {"z2": (G.action_groupoid(G.z2_swap_action()), 2),
              "pair3": (G.pair_groupoid(3), 6)}
    jobs, probes, bundles, auts = [], [], [], []
    for fname, (g, n_bis) in fibres.items():
        for k in range(3, 9):
            bundle = chain_bundle(G, g, k, rng)
            label = "{}-k{}".format(fname, k)
            key = label + ":fg"
            n_elements = k * k * g.n_arrows
            bundles.append(bundle)
            jobs += [
                Job(label + ":cocycle",
                    lambda st, b=bundle: G.validate_cocycle(b.base, b.cocycle), report_ok),
                Job(label + ":principal", lambda st, b=bundle: G.verify_principal_axioms(b),
                    report_ok),
                Job(key, lambda st, b=bundle, key=key: st.setdefault(
                    key, G.AtiyahGroupoid(b).as_finite_groupoid()),
                    lambda v, st, n=n_elements: expect(
                        v.n_arrows == n, "{} Atiyah arrows, want {}".format(v.n_arrows, n))),
                Job(label + ":atiyah-axioms",
                    lambda st, key=key: G.validate_groupoid(st[key]), report_ok),
                Job(label + ":sequence", lambda st, b=bundle: G.verify_atiyah_sequence(b),
                    report_ok),
                Job(label + ":trident", lambda st, b=bundle: G.verify_trident(b), report_ok),
            ]
            if fname == "z2" or k <= 5:
                jobs.append(Job(label + ":gauge-enum",
                                lambda st, b=bundle: G.enumerate_gauge_group(b),
                                lambda v, st, n=n_bis ** k: expect(
                                    len(v) == n, "gauge order {}, want {}".format(len(v), n))))
            if fname == "z2" and k <= 6:
                gauge = Job(label + ":gauge-verify", lambda st, b=bundle: G.verify_gauge_group(b),
                            report_ok)
                # verify_gauge_group refuses k >= 4 at its projectable-bisection cap
                (jobs if k == 3 else probes).append(gauge)
                for n in range(3):
                    aut = vertical_automorphism(G, bundle, rng)
                    auts.append(aut)
                    jobs.append(Job("{}:correspondence{}".format(label, n),
                                    lambda st, b=bundle, a=aut: G.verify_bisection_correspondence(
                                        b, G.AtiyahGroupoid(b), a), report_ok))
    return Workload(jobs, lambda: (
        [G.bundle_to_json(b) for b in bundles] + [automorphism_to_json(G, a) for a in auts]),
        probes)


# -- numeric connection ----------------------------------------------------

def rotation(np, w):
    """exp of the so(2) element w J, or of the so(3) element hat(w), in
    closed form (Rodrigues); independent of scipy's expm."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size == 1:
        c, s = math.cos(w[0]), math.sin(w[0])
        return np.array([[c, -s], [s, c]])
    theta = float(np.linalg.norm(w))
    if theta == 0.0:
        return np.eye(3)
    x, y, z = w / theta
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * K @ K


def numeric_connection(seed):
    import numpy as np
    from scipy.linalg import expm

    from groupoidal import connection as C
    from groupoidal import scenario as S

    rng = np.random.default_rng(seed)
    jobs, material = [], []
    for build, field in ((S.so2_two_chart_scenario, S.J2), (S.so3_two_chart_scenario, S.L_Z)):
        sc = build()
        n = sc.n
        A = C.construct_connection(sc)
        connections = {
            "constructed": A,
            "rotation": C.LocalConnectionData(
                sc, [lambda s, m, u, F=field: u[0] * F for _ in sc.charts]),
            "flat": C.zero_connection(sc),
        }
        # the scenarios' documented cocycles: beta_10 = exp(-(angle) J) on SO(2),
        # exp(-(s0 L_Z + 0.4 s1 L_X)) on SO(3); the rotation field is u_0 F
        if n == 2:
            def beta10(s):
                return rotation(np, -(s[0] + 0.5 * s[1]))

            def exp_field(c):
                return rotation(np, -c)

            c1, c2 = rng.uniform(0.3, 0.5), rng.uniform(0.05, 0.15)
            gauge = {i: S.BisectionFamily(
                lambda s, m, c1=c1, c2=c2: S.rot2(c1 * s[0] + c2 * s[1])) for i in range(2)}
            h_rot = rotation(np, 0.37)
        else:
            def beta10(s):
                return rotation(np, [-0.4 * s[1], 0.0, -s[0]])

            def exp_field(c):
                return rotation(np, [0.0, 0.0, -c])

            c1, c2 = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)

            def g0(s, m, c1=c1, c2=c2):
                return expm(c1 * s[0] * S.L_X + c2 * s[1] * S.L_Y)

            g01, g10 = sc.cocycle[(0, 1)].g, sc.cocycle[(1, 0)].g
            gauge = {0: S.BisectionFamily(g0),
                     1: S.BisectionFamily(lambda s, m: g10(s, m) @ g0(s, m) @ g01(s, m))}
            h_rot = rotation(np, [0.37, 0.0, 0.0])
        label = sc.name
        samples = []
        for _ in range(SAMPLES):
            samples.append({
                "s": np.array([rng.uniform(0.35, 0.65), rng.uniform(-0.8, 0.8)]),
                "m": rng.normal(size=n), "u": rng.normal(size=2),
                "a": rotation(np, rng.normal(size=1 if n == 2 else 3)),
                "adot": rng.normal(size=(n, n)), "mdot": rng.normal(size=n)})
        waypoints = [[-0.5, rng.uniform(-0.9, -0.6)], [0.5, rng.uniform(-0.2, 0.2)],
                     [1.5, rng.uniform(0.6, 0.9)]]
        path = C.BasePath.polyline(waypoints, [0, 1])
        material.append((label, [c1, c2], waypoints, samples))
        jobs += sample_jobs(np, C, sc, A, gauge, samples, label)
        flat_end = beta10(waypoints[1])
        closed = {"flat": flat_end, "rotation": exp_field(1.0) @ flat_end @ exp_field(1.0)}
        for kind, conn in connections.items():
            jobs += transport_jobs(np, C, sc, conn, path, h_rot, closed.get(kind),
                                   "{}:{}".format(label, kind))
    return Workload(jobs, lambda: [
        [label, c, w, [{k: v.tolist() for k, v in x.items()} for x in samples]]
        for label, c, w, samples in material])


def _record_max(state, key, value):
    state[key] = max(state.get(key, 0.0), float(value))


def _record_min(state, key, value):
    state[key] = min(state.get(key, math.inf), float(value))


def sample_jobs(np, C, sc, A, gauge, samples, label):
    n = sc.n
    gkey = label + ":gauge"

    def gauge_call(st):
        Ap = C.gauge_transform_connection(sc, A, gauge)
        return st.setdefault(gkey, (Ap, C.gauge_transform_connection(
            sc, Ap, C.inverse_gauge(sc, gauge))))

    jobs = [Job(gkey, gauge_call, lambda v, st: expect(
        all(len(c.fields) == len(sc.charts) for c in v), "gauge-transformed data lost a chart"))]

    def phi(s):
        out = 0.3 + 0.1 * np.arange(n) + 0.05 * s[0] * np.ones(n)
        out[0] += 0.2 * s[1]
        return out

    for i, x in enumerate(samples):
        s, m, u, a = x["s"], x["m"], x["u"], x["a"]
        tangent = (u, x["adot"], x["mdot"])

        def gluing_check(v, st):
            _record_max(st, "gluing_residual_max", v)
            return expect(v <= 1e-8, "gluing residual {:.3e}".format(v))

        def theta_call(st, s=s, a=a, m=m, tangent=tangent):
            t1 = C.apply_theta(sc, A, 0, s, (a, m), tangent)
            return t1, C.apply_theta(sc, A, 0, s, (a, m), t1)

        def theta_check(v, st):
            d = max(float(np.linalg.norm(p - q)) for p, q in zip(*v))
            return expect(d <= 1e-9, "projector not idempotent: {:.3e}".format(d))

        def shadow_call(st, s=s, a=a, m=m, tangent=tangent):
            h = 1e-5

            def td(t):
                return ((a + h * t[1]) @ (m + h * t[2])
                        - (a - h * t[1]) @ (m - h * t[2])) / (2 * h)

            lhs = C.shadow_theta(sc, A, 0, s, a @ m, (tangent[0], td(tangent)))[1]
            return lhs, td(C.apply_theta(sc, A, 0, s, (a, m), tangent))

        def christoffel_check(v, st, a=a):
            X = v[0] @ a.T
            d = float(np.linalg.norm(X + X.T)) / max(1.0, float(np.linalg.norm(X)))
            return expect(d <= 1e-8 and not np.any(v[1]),
                          "Christoffel value off so(n): {:.3e}".format(d))

        def roundtrip_call(st, s=s, m=m, u=u):
            return st[gkey][1](0, s, m, u), A(0, s, m, u)

        def covariance_call(st, s=s, u=u):
            Ap = st[gkey][0]
            h = 1e-5
            nab = C.covariant_derivative(sc, A, phi, 0, s, u)
            nabg = C.covariant_derivative(sc, Ap, lambda t: gauge[0].shadow(t, phi(t)), 0, s, u)
            push = (gauge[0].shadow(s, phi(s) + h * nab)
                    - gauge[0].shadow(s, phi(s) - h * nab)) / (2 * h)
            return float(np.linalg.norm(nabg - push))

        def covariance_check(v, st):
            _record_max(st, "covariance_residual_max", v)
            return expect(v < 1e-6, "covariance residual {:.3e}".format(v))

        tag = "{}:{}".format(label, i)
        jobs += [
            Job(tag + ":gluing", lambda st, s=s, m=m, u=u: C.gluing_residual(sc, A, 0, 1, s, m, u),
                gluing_check),
            Job(tag + ":theta", theta_call, theta_check),
            Job(tag + ":shadow-theta", shadow_call, lambda v, st: expect(
                np.linalg.norm(v[0] - v[1]) < 1e-6, "shadow projector mismatch")),
            Job(tag + ":christoffel",
                lambda st, s=s, a=a, m=m, u=u: C.christoffel(sc, A, 0, s, (a, m), u),
                christoffel_check),
            Job(tag + ":gauge-roundtrip", roundtrip_call, lambda v, st: expect(
                np.linalg.norm(v[0] - v[1]) < 1e-7, "gauge round trip off by {:.3e}".format(
                    np.linalg.norm(v[0] - v[1])))),
            Job(tag + ":covariance", covariance_call, covariance_check),
        ]
    return jobs


def transport_jobs(np, C, sc, conn, path, h_rot, closed, label):
    """The transports cmd_transport runs: at step 1e-3, from a start moved by
    h, and at steps 8e-3, 4e-3, 2e-3 for the convergence order."""
    n = sc.n
    a0, m0 = np.eye(n), np.eye(n)[0]
    constructed = closed is None

    def endpoint_check(tol):
        def check(v, st):
            (a, m), shadow = v
            if not np.all(np.isfinite(a)):
                return "transport diverged"
            drift = float(np.linalg.norm(a.T @ a - np.eye(n)))
            if constructed:
                _record_max(st, "transport_drift", drift)
            err = 0.0 if constructed else float(np.linalg.norm(a - closed))
            return expect(drift <= 1e-8 and err <= tol
                          and np.linalg.norm(shadow - a @ m0) <= 1e-12,
                          "endpoint off: drift {:.2e}, closed form {:.2e}".format(drift, err))
        return check

    def run(start, step, key):
        return lambda st: st.setdefault(
            key, C.parallel_transport(sc, conn, path, start, step=step))

    def equivariance_check(v, st):
        d = float(np.linalg.norm(v[0][0] - st[label + ":1e-3"][0][0] @ h_rot))
        return expect(d < 1e-6, "equivariance residual {:.3e}".format(d))

    def order_check(v, st):
        ends = [st["{}:{}".format(label, h)][0][0] for h in ("8e-3", "4e-3", "2e-3")]
        e1 = float(np.linalg.norm(ends[0] - ends[1]))
        e2 = float(np.linalg.norm(ends[1] - ends[2]))
        if constructed:
            # RK4 error sits near roundoff here, so the order is undefined;
            # the step sizes must agree instead
            spread = max(e1, e2, float(np.linalg.norm(ends[2] - st[label + ":1e-3"][0][0])))
            return expect(spread <= 1e-8, "transport not converged: {:.2e}".format(spread))
        if e1 == 0.0 and e2 == 0.0:  # flat: RK4 is exact
            return endpoint_check(1e-10)(v, st)
        order = math.log2(e1 / e2)
        _record_min(st, "convergence_order", order)
        return expect(3.7 <= order <= 4.3, "convergence order {:.3f}".format(order))

    jobs = [Job(label + ":transport", run((a0, m0), 1e-3, label + ":1e-3"), endpoint_check(1e-8)),
            Job(label + ":equivariance",
                lambda st: C.parallel_transport(sc, conn, path,
                                                (a0 @ h_rot, np.linalg.solve(h_rot, m0)),
                                                step=1e-3),
                equivariance_check)]
    for step, name in ((8e-3, "8e-3"), (4e-3, "4e-3"), (2e-3, "2e-3")):
        check = order_check if name == "2e-3" else endpoint_check(1e-8)
        jobs.append(Job("{}:order-{}".format(label, name),
                        run((a0, m0), step, "{}:{}".format(label, name)), check))
    return jobs


# -- command line ----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd=None):
    """Run one child process to completion; (exit code, stdout, stderr,
    peak RSS in KiB). Stderr goes to a file so neither pipe can fill up."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stderr", "w+b") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss


def cli_job(name, argv, docs, extra=lambda report, out: None):
    """``python -m groupoidal.cli --json`` on documents in ``docs``; passes
    when it exits 0 with ``"ok": true`` and ``extra`` finds nothing wrong."""
    sub = argv[0]

    def call(st):
        code, out, err, rss = run_child(
            [sys.executable, "-m", "groupoidal.cli", "--json"] + argv, cwd=docs)
        st["child_rss_kb"] = max(st.get("child_rss_kb", 0), rss)
        return code, out, err

    def check(v, st):
        code, out, err = v
        if code == 3:
            return "refused: " + err.strip()
        if code != 0:
            return "exit {}: {}".format(code, err.strip()[-200:])
        report = json.loads(out.splitlines()[-1])
        size = len(out.encode())
        if "elapsed_s" in report:  # a wall-clock field; its digits vary
            size -= len(', "elapsed_s": ' + json.dumps(report["elapsed_s"]))
        st["report_bytes"] = st.get("report_bytes", 0) + size
        for c in report["checks"]:
            st["checks_run"] = st.get("checks_run", 0) + c.get("checks_run", 0)
            st["violations"] = st.get("violations", 0) + len(c.get("violations", ()))
        if report.get("ok") is not True:
            return "report not ok"
        return extra(report, out)

    return Job(name, call, check, kind=sub, span="cli." + sub)


def _drift(a):
    n = len(a)
    return math.sqrt(sum((sum(a[k][i] * a[k][j] for k in range(n)) - (i == j)) ** 2
                         for i in range(n) for j in range(n)))


def cli_mix(seed):
    import groupoidal as G

    rng = random.Random(seed)
    docs = OUT / "cli-mix"
    docs.mkdir(parents=True, exist_ok=True)
    written = {}

    def write(name, doc):
        text = json.dumps(doc, sort_keys=True)
        (docs / name).write_text(text)
        written[name] = text
        return name

    s3 = symmetric_group(3)
    z2 = G.action_groupoid(G.z2_swap_action())
    fibred = G.fibred_pair_groupoid(seeded_blocks(rng, (3, 2)))
    chain_z2 = chain_bundle(G, z2, 4, rng)
    chain_p3 = chain_bundle(G, G.pair_groupoid(3), 3, rng)
    base = G.CechBase(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    swap = G.Bisection(z2, [z2.arrow_index(("r", 0)), z2.arrow_index(("r", 1))])
    running = G.build_bundle(base, G.Cocycle(z2, {(0, 1, "b"): swap}), z2)
    length = rng.uniform(0.8, 1.2)
    y0, y1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)

    def identities(count):
        def extra(report, out):
            checks = {c["name"]: c for c in report["checks"]}
            size = checks["r-equivariant-commutant"]["size"]
            return expect(size == count and checks["id-reducible"]["value"] is True,
                          "commutant size {}, want {}".format(size, count))
        return extra

    def counts(report, out):
        # points, shadow points, adjoint elements, Atiyah elements, gauge maps
        k, arrows, objects = 3, z2.n_arrows, z2.n_objects
        want = [k * arrows, k * objects, k * arrows, k * k * arrows, 2 ** k]
        return expect(report["counts"] == want, "counts {}".format(report["counts"]))

    def closed_rotation(report, out):
        # A = u_0 J along a straight path of x-extent L: endpoint exp(-L J)
        c, s = math.cos(length), math.sin(length)
        err = math.dist(sum(report["endpoint"], []), [c, s, -s, c])
        order = report["convergence_order"]
        return expect(err <= 1e-8 and 3.7 <= order <= 4.3,
                      "endpoint off by {:.2e}, order {:.3f}".format(err, order))

    def on_group(report, out):
        d = _drift(report["endpoint"])
        return expect(d <= 1e-8 and report["equivariance_residual"] < 1e-6,
                      "drift {:.2e}".format(d))

    running_doc = write("running-example.json", G.bundle_to_json(running))
    jobs = [
        cli_job("validate:fibred", ["validate", write("fibred.json", fibred.to_json())], docs),
        cli_job("validate:s3-action", ["validate", write("s3-action.json", G.action_groupoid(
            G.FiniteGroupAction(s3[0], s3[1], s3[2], s3[3], 3,
                                {(p, m): p[m] for p in s3[0] for m in range(3)})).to_json())],
                docs),
        cli_job("validate:chain-z2", ["validate", write("chain-z2.json",
                                                        G.bundle_to_json(chain_z2))], docs),
        cli_job("validate:chain-pair3", ["validate", write("chain-pair3.json",
                                                           G.bundle_to_json(chain_p3))], docs),
        cli_job("validate:gauge-z2", ["validate", write("gauge-z2.json", automorphism_to_json(
            G, vertical_automorphism(G, chain_z2, rng)))], docs),
        cli_job("validate:gauge-pair3", ["validate", write("gauge-pair3.json", automorphism_to_json(
            G, vertical_automorphism(G, chain_p3, rng)))], docs),
        cli_job("check-identities:z2", ["check-identities", write("z2.json", z2.to_json())],
                docs, identities(2)),
        cli_job("check-identities:pair3", ["check-identities", write(
            "pair3.json", G.pair_groupoid(3).to_json())], docs, identities(6)),
        cli_job("check-identities:s3-group", ["check-identities", write(
            "s3-group.json", G.group_groupoid(*s3).to_json())], docs, identities(6)),
        cli_job("bundle:counts", ["bundle", running_doc, "--report", "counts"], docs, counts),
    ]
    for mode in ("axioms", "atiyah", "trident", "gauge"):
        jobs.append(cli_job("bundle:" + mode, ["bundle", running_doc, "--report", mode], docs,
                            (lambda r, o: expect(r["gauge_order"] == 8, "gauge order"))
                            if mode == "gauge" else (lambda r, o: None)))
    path_doc = write("path.json", {"waypoints": [[-0.5, y0], [-0.5 + length, y1]],
                                   "charts": [0]})
    jobs += [
        cli_job("transport:so2-single-chart", ["transport", "so2-single-chart", "--path", path_doc],
                docs, closed_rotation),
        cli_job("transport:so3-two-chart", ["transport", "so3-two-chart"], docs, on_group),
    ]
    # the factorial proxy in the commutant search refuses pair(4) today
    probes = [cli_job("check-identities:pair4", ["check-identities", write(
        "pair4.json", G.pair_groupoid(4).to_json())], docs, identities(24))]
    return Workload(jobs, lambda: sorted(written.items()), probes, children=True)
