"""groupoidal benchmark: time to a verified answer on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact-identities --seed 1 --seconds 24 --trace 0

Workloads: exact-identities, exact-bundle, numeric-connection, cli-mix (see
perfbench/README.md). Each run builds the workload's inputs from the seed,
then runs its fixed job list in a closed loop, one job at a time in this
process (cli-mix: one child process at a time), pass after pass until
--seconds have gone by. Every answer is checked against an
oracle. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

The end-to-end times are scaled to a reference host speed, measured by a
fixed loop run between jobs (perfbench/hostspeed.py); the raw pass times are
printed next to them.

With --trace 1, untraced and traced passes alternate. The traced ones wrap
the package's public functions (perfbench/tracing.py) to record spans and
counters; the spans of the first traced pass are written to
perfbench/out/spans-<workload>.json.
"""

import os

# One BLAS thread, set before numpy can be imported, so that small matmuls
# do not draw on a thread pool.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads as W  # noqa: E402
from hostspeed import REFERENCE_S, Probe, loop_mean  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

SETUP_PROBES = 4  # fresh processes that import and build, besides this one
IMPORT_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_to_current_cpu():
    """Keep this process, and the children it starts, on the CPU it runs on,
    so that the reference loop measures the CPU the jobs run on. On a shared
    2-vCPU host this cut the spread of cli-mix's wall_s over five seeds from
    0.12 to 0.09."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_build(name, seed):
    """(scaled set-up s, workload). The scale is set by reference loops run
    just before and just after the set-up."""
    before = loop_mean()
    t0 = time.perf_counter()
    wl = W.build(name, seed)
    took = time.perf_counter() - t0
    return took * REFERENCE_S / ((before + loop_mean()) / 2), wl


def environment():
    """Versions are read from package metadata: importing numpy here would
    add to the exact workloads' memory."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_job(job, state, tracer=None, nid=None):
    """(latency in s, error or None). A refusal by a cap is an error."""
    from groupoidal.report import EnumerationBound

    if tracer is not None:
        tracer.begin(nid)
    start = time.perf_counter()
    try:
        value, err = job.call(state), None
    except EnumerationBound as exc:
        value, err = None, "refused: {}".format(exc)
    except Exception as exc:  # a failed job is counted, and the run goes on
        value, err = None, "{}: {}".format(type(exc).__name__, exc)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    if err is None:
        try:
            err = job.check(value, state)
        except Exception as exc:
            err = "check raised {}: {}".format(type(exc).__name__, exc)
    return latency, err


def run_pass(wl, tracer=None, probe=None):
    """One pass over the job list: (wall s, [(latency s, error)], state).
    With a probe, reference loops run between jobs and are not timed."""
    state, records = {}, []
    nids = [tracer.name_id(j.span, j.span.split(".")[0], (j.span,)) for j in wl.jobs] \
        if tracer is not None else None
    t0 = time.perf_counter()
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = i
        if probe is not None:
            probe.job_starts()
        records.append(run_job(job, state, tracer, nids[i] if nids else None))
        if probe is not None:
            probe.job_took(records[-1][0])
    wall = time.perf_counter() - t0
    # keep the diagnostics, drop the results, so passes do not pile up memory
    return wall, records, {k: v for k, v in state.items() if isinstance(v, (int, float))}


def report_failures(wl, records):
    failed = [(job.name, err) for job, (_, err) in zip(wl.jobs, records) if err]
    for name, err in failed[:5]:
        print("FAILED {}: {}".format(name, err), file=sys.stderr)


def setup_samples(args, own_s, digest):
    """Set-up time of this process and of fresh ones; all must hash alike."""
    samples = [own_s]
    for _ in range(SETUP_PROBES):
        code, out, err, _ = W.run_child(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)])
        if code != 0:
            raise RuntimeError("set-up probe failed: " + err.strip()[-300:])
        probe = json.loads(out.splitlines()[-1])
        if probe["inputs_sha256"] != digest:
            raise RuntimeError("the same seed built different inputs in another process")
        samples.append(probe["setup_s"])
    return samples


def passes(wl, seconds, tracer=None, probe=None):
    """Run whole passes until ``seconds`` have gone by. With a tracer,
    untraced and traced passes alternate, starting untraced, and the run
    ends after a traced one. A probe samples the host speed between jobs."""
    t0 = time.perf_counter()
    runs = []
    while True:
        traced = tracer is not None and len(runs) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, records, state = run_pass(wl, tracer if traced else None, probe)
        finally:
            if traced:
                tracer.uninstall()
        runs.append({"traced": traced, "wall": wall, "records": records, "state": state,
                     "stats": tracer.snapshot() if traced else None})
        if traced and tracer.keep_spans:
            runs[-1]["spans"] = tracer.spans_doc([j.name for j in wl.jobs])
            tracer.keep_spans = False
        if time.perf_counter() - t0 >= seconds and (tracer is None or traced):
            return runs


def end_to_end(args, wl, own_setup_s):
    samples = setup_samples(args, own_setup_s, wl.digest())
    probe = Probe()
    runs = passes(wl, args.seconds, probe=probe)
    probe.finish()
    scale = probe.scale()
    records = [rec for r in runs for rec in r["records"]]
    failed = sum(1 for _, err in records if err)
    for r in runs:
        report_failures(wl, r["records"])
    # a pass's wall time is the sum of its job latencies, oracle checks and
    # reference loops left out
    walls = [sum(lat for lat, _ in r["records"]) for r in runs]
    # each job's median over the passes, so the percentiles describe the job
    # list rather than pass-to-pass noise; a failed run of a job is infinite
    per_job = [statistics.median(math.inf if r["records"][i][1] else r["records"][i][0]
                                 for r in runs) for i in range(len(wl.jobs))]
    if wl.children:
        rss_kb = max(r["state"].get("child_rss_kb", 0) for r in runs)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(walls) * scale,
        "peak_rss_mb": rss_kb / 1024,
    }
    print("passes {}; set-up samples {}".format(len(runs), len(samples)))
    print("pass wall_s raw {}; host-speed scale {:.4f} from {} reference loops".format(
        " ".join("{:.3f}".format(x) for x in walls), scale, len(probe.samples)))
    print("setup_s scaled {}".format(" ".join("{:.4f}".format(x) for x in samples)))
    print("failed_ratio {:.4f} ({} of {} jobs)".format(failed / len(records), failed,
                                                       len(records)))
    # single jobs spread too much between runs to bound (perfbench/README.md),
    # so their percentiles are printed but are not metrics
    print("job latency over {} jobs, each the median of its {} runs ({} samples), scaled: "
          "p50 {:.6g} ms, p90 {:.6g} ms".format(
              len(wl.jobs), len(runs), len(records),
              nearest_rank(per_job, 0.5) * 1e3 * scale, nearest_rank(per_job, 0.9) * 1e3 * scale))
    return metrics, len(records), failed


def run_probes(wl, tracer):
    """Jobs a cap refuses today, run once, traced. (refused, wrong answers)."""
    refused, wrong = 0, 0
    tracer.reset()
    tracer.install()
    try:
        for probe in wl.probes:
            nid = tracer.name_id(probe.span, probe.span.split(".")[0], (probe.span,))
            _, err = run_job(probe, {}, tracer, nid)
            outcome = "answered" if err is None else err.split(":")[0]
            print("known refusal probe {}: {}".format(probe.name, outcome))
            if err and err.startswith("refused"):
                refused += 1
            elif err:
                wrong += 1
                print("FAILED probe {}: {}".format(probe.name, err), file=sys.stderr)
    finally:
        tracer.uninstall()
    return refused, wrong, tracer.snapshot()


def import_ms():
    code = ("import time; t = time.perf_counter(); import groupoidal.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        status, out, err, _ = W.run_child([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError("importing groupoidal.cli failed: " + err.strip()[-300:])
        samples.append(float(out) * 1e3)
    return statistics.median(samples)


# per-layer metrics read off a traced pass: time groups and call counts
TIME_GROUPS = {
    "groupoid.validate_s": "groupoid.validate",
    "bisection.enumerate_s": "bisection.enumerate",
    "bisection.identities_s": "bisection.identities",
    "bisection.commutant_s": "bisection.commutant",
    "bisection.id_reducible_s": "bisection.id_reducible",
    "bundle.cocycle_s": "bundle.cocycle",
    "bundle.principal_s": "bundle.principal",
    "atiyah.as_finite_groupoid_s": "atiyah.as_finite_groupoid",
    "atiyah.sequence_s": "atiyah.sequence",
    "atiyah.trident_s": "atiyah.trident",
    "atiyah.projectable_s": "atiyah.projectable",
    "automorphism.gauge_enum_s": "automorphism.gauge_enum",
    "automorphism.gauge_verify_s": "automorphism.gauge_verify",
    "automorphism.correspondence_s": "automorphism.correspondence",
    "scenario.exp_s": "scenario.exp",
    "connection.eval_s": "connection.eval",
    "connection.mc_right_s": "connection.mc_right",
    "connection.tangent_conjugation_s": "connection.tangent_conjugation",
    "connection.gauge_s": "connection.gauge",
}
CALL_COUNTS = {
    "scenario.exp_calls": ("scenario.MatrixGroupScenario.exp",),
    "scenario.family_calls": ("scenario.BisectionFamily.__call__",),
    "connection.eval_calls": ("connection.LocalConnectionData.__call__",
                              "connection.LocalConnectionData.__call__[gauge]"),
    "connection.mc_right_calls": ("connection.mc_right",),
    "connection.tangent_conjugation_calls": ("connection.tangent_conjugation",),
}
COUNTERS = ("groupoid.validate_checks", "bisection.enumerate_candidates",
            "bisection.enumerate_accepted", "bisection.identities_checks",
            "bundle.principal_checks", "atiyah.fg_arrows", "atiyah.fg_mul_entries",
            "atiyah.trident_checks", "atiyah.projectable_candidates",
            "atiyah.projectable_vertical", "automorphism.gauge_candidates",
            "automorphism.gauge_order", "automorphism.cap_refusals",
            "connection.transport_steps")
DIAGNOSTICS = ("gluing_residual_max", "covariance_residual_max", "transport_drift",
               "convergence_order")
CLI_SUBCOMMANDS = ("validate", "check-identities", "bundle", "transport")


def pass_times(stats):
    """Time metrics of one traced pass."""
    out = {name: stats["covered_s"].get(group, 0.0) for name, group in TIME_GROUPS.items()}
    out["connection.transport_self_s"] = stats["self_s"].get("connection.parallel_transport", 0.0)
    for module in MODULES + ("bench",):
        out[module + ".self_s"] = stats["module_self_s"].get(module, 0.0)
    return out


def per_layer(args, wl):
    tracer = Tracer()
    cli_import = import_ms()
    runs = passes(wl, args.seconds, tracer=tracer)
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    first = traced[0]
    stats, state = first["stats"], first["state"]
    refused, wrong, probe_stats = run_probes(wl, tracer)

    metrics = {}
    times = [pass_times(r["stats"]) for r in traced]
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    counts = stats["counts"]
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    metrics["automorphism.cap_refusals"] += probe_stats["counts"].get(
        "automorphism.cap_refusals", 0)
    candidates = counts.get("bisection.enumerate_candidates", 0)
    metrics["bisection.enumerate_accept_ratio"] = \
        counts.get("bisection.enumerate_accepted", 0) / candidates if candidates else 0.0
    for name, span_names in CALL_COUNTS.items():
        metrics[name] = sum(stats["calls"].get(s, 0) for s in span_names)
    for name in DIAGNOSTICS:
        metrics["connection." + name] = state.get(name, 0.0)

    cli_records = [(job.kind, lat) for r in traced for job, (lat, err) in
                   zip(wl.jobs, r["records"]) if job.span.startswith("cli.") and not err]
    metrics["cli.import_ms"] = cli_import
    for sub in CLI_SUBCOMMANDS:
        lat = [x for kind, x in cli_records if kind == sub]
        metrics["cli.process_ms." + sub] = statistics.median(lat) * 1e3 if lat else 0.0
    metrics["cli.report_bytes"] = state.get("report_bytes", 0)
    cli_refusals = sum(1 for job, (_, err) in zip(wl.jobs, first["records"])
                       if job.span.startswith("cli.") and err and err.startswith("refused"))
    metrics["cli.cap_exits"] = cli_refusals + (refused if wl.children else 0)
    metrics["report.checks_run"] = sum(stats["battery_checks"].values()) \
        + state.get("checks_run", 0)
    metrics["report.violations"] = sum(stats["battery_violations"].values()) \
        + state.get("violations", 0)
    u_wall = statistics.median(r["wall"] for r in untraced)
    t_wall = statistics.median(r["wall"] for r in traced)
    metrics["trace.overhead_s"] = t_wall - u_wall
    metrics["trace.spans"] = stats["spans"]

    print_self_times(metrics, t_wall)
    print("traced wall_s {:.4f}, untraced wall_s {:.4f}, tracing overhead {:+.4f} s "
          "({} traced, {} untraced passes)".format(t_wall, u_wall, t_wall - u_wall,
                                                   len(traced), len(untraced)))
    print("per-battery checks_run {}".format(json.dumps(stats["battery_checks"], sort_keys=True)))
    write_spans(args, wl, first["spans"], stats)

    records = [rec for r in runs for rec in r["records"]]
    failed = sum(1 for _, err in records if err)
    for r in runs:
        report_failures(wl, r["records"])
    return metrics, len(records), failed, wrong == 0


def print_self_times(metrics, wall):
    """``report`` has no entry point to wrap, so it reads 0; its checks are
    counted from the reports that the batteries return. ``bench`` is job
    code outside the wrapped calls, unwrapped package code included."""
    print("self time per module, median over traced passes:")
    for module in MODULES + ("bench",):
        s = metrics[module + ".self_s"]
        print("  {:<13} {:10.4f} s  {:5.1f}%".format(module, s, 100 * s / wall))


def write_spans(args, wl, spans, stats):
    W.OUT.mkdir(exist_ok=True)
    path = W.OUT / "spans-{}.json".format(args.workload)
    doc = {"workload": args.workload, "seed": args.seed, "inputs_sha256": wl.digest(),
           "env": environment(), "stats": stats, "spans": spans}
    path.write_text(json.dumps(doc, separators=(",", ":")))
    print("spans written to {} ({} spans)".format(path.relative_to(W.ROOT),
                                                  len(spans["name"])))


def emit(spec_metrics, values, attempted, failed, correct):
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("{:<36} {:>16.6g} {}".format(m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not (W.SRC / "groupoidal" / "__init__.py").is_file():
        print("no groupoidal sources under {}; run from a checkout of the repository"
              .format(W.SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.SRC))
    if not args.setup_probe:
        cpu = pin_to_current_cpu()
    own_setup_s, wl = timed_build(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s, "inputs_sha256": wl.digest()}))
        return 0
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    print("env {}".format(json.dumps(environment(), sort_keys=True)))
    print("workload {} seed {} inputs_sha256 {}; pinned to CPU {}".format(
        args.workload, args.seed, wl.digest(), cpu))
    if args.trace:
        values, attempted, failed, probes_ok = per_layer(args, wl)
        emit(spec["per_layer"], values, attempted, failed, failed == 0 and probes_ok)
    else:
        values, attempted, failed = end_to_end(args, wl, own_setup_s)
        emit(spec["end_to_end"], values, attempted, failed, failed == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
