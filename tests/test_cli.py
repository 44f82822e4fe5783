"""Exit-code contract and report shapes of the command-line front end."""

import json

import pytest

from groupoidal import bundle_to_json
from groupoidal.cli import main


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def groupoid_doc(tmp_path, z2_groupoid):
    return write(tmp_path, "g.json", z2_groupoid.to_json())


@pytest.fixture()
def bundle_doc(tmp_path, three_point_bundle):
    return write(tmp_path, "b.json", bundle_to_json(three_point_bundle))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_groupoid_ok(capsys, groupoid_doc):
    code, out = run(capsys, ["validate", groupoid_doc])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["command"] == "validate"


def test_validate_corrupted_inverse(capsys, tmp_path, z2_groupoid):
    doc = z2_groupoid.to_json()
    doc["inv"][0], doc["inv"][2] = doc["inv"][2], doc["inv"][0]
    path = write(tmp_path, "bad.json", doc)
    code, out = run(capsys, ["validate", path])
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert any(v["check"].startswith("iv:")
               for v in checks["groupoid-axioms"]["violations"])


def test_validate_repeated_mul_pair(capsys, tmp_path, z2_groupoid):
    doc = z2_groupoid.to_json()
    doc["mul"].insert(doc["mul"].index([0, 0, 0]), [0, 0, 3])
    assert main(["validate", write(tmp_path, "dup.json", doc)]) == 2
    assert "repeats the pair (0, 0)" in capsys.readouterr().err


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/x.json"]) == 2


def test_malformed_bisection_is_input_error(capsys, tmp_path,
                                            three_point_bundle):
    doc = bundle_to_json(three_point_bundle)
    doc["cocycle"][0]["bisection"] = [1]
    path = write(tmp_path, "short.json", doc)
    for command in ("validate", "bundle"):
        assert main([command, path]) == 2
        assert "input error" in capsys.readouterr().err


def test_bisection_entries_outside_arrow_ids_are_input_error(capsys, tmp_path,
                                                             three_point_bundle):
    # [-2, -1] would index from the end and pass as the swap bisection
    entries_tried = ([7, 1], ["x", 1], [-2, -1], [True, 1], [2.0, 3])
    for k, entries in enumerate(entries_tried):
        doc = bundle_to_json(three_point_bundle)
        doc["cocycle"][0]["bisection"] = entries
        path = write(tmp_path, "bad{}.json".format(k), doc)
        assert main(["validate", path]) == 2, entries
        assert "input error" in capsys.readouterr().err


def automorphism_doc(bundle):
    from groupoidal import identity_automorphism
    aut = identity_automorphism(bundle)
    return {"bundle": bundle_to_json(bundle), "f": dict(aut.f),
            "gamma": [{"j": j, "i": i, "sigma": s, "bisection": b.to_json()}
                      for (j, i, s), b in sorted(aut.gamma.items())]}


def test_gamma_entries_checked_before_use(capsys, tmp_path,
                                          three_point_bundle):
    path = write(tmp_path, "aut.json", automorphism_doc(three_point_bundle))
    code, out = run(capsys, ["validate", path])
    assert code == 0 and json.loads(out)["ok"] is True
    # out of range, not an id, and not a section of the source map
    for k, entries in enumerate(([7, 1], ["x", 1], [0, 0])):
        doc = automorphism_doc(three_point_bundle)
        doc["gamma"][1]["bisection"] = entries
        path = write(tmp_path, "aut{}.json".format(k), doc)
        code, out = run(capsys, ["validate", path])
        assert code == 1, entries
        (check,) = json.loads(out)["checks"]
        entry = doc["gamma"][1]
        assert check["violations"] == [{
            "check": "aut:gamma-bisection", "detail": "",
            "witness": [entry["j"], entry["i"], entry["sigma"]]}], entries


def test_base_map_checked_before_use(capsys, tmp_path, three_point_bundle):
    # a base point missing from f, and one sent off the base
    for k, edit in enumerate((lambda f: f.pop("c"),
                              lambda f: f.__setitem__("c", "x"))):
        doc = automorphism_doc(three_point_bundle)
        edit(doc["f"])
        path = write(tmp_path, "f{}.json".format(k), doc)
        code, out = run(capsys, ["validate", path])
        assert code == 1, doc["f"]
        (check,) = json.loads(out)["checks"]
        assert [v["check"] for v in check["violations"]] == ["aut:f-bijection"]
        assert check["violations"][0]["witness"] == "c"


def test_missing_chart_data_is_a_violation(capsys, tmp_path, three_point_bundle):
    # the base reflection a <-> c with every gamma entry at b dropped
    doc = automorphism_doc(three_point_bundle)
    doc["f"] = {"a": "c", "b": "b", "c": "a"}
    doc["gamma"] = [{"j": j, "i": i, "sigma": s, "bisection": [0, 1]}
                    for j, i, s in ((1, 0, "a"), (0, 0, "b"), (0, 1, "c"))]
    path = write(tmp_path, "refl.json", doc)
    code, out = run(capsys, ["validate", path])
    assert code == 0 and json.loads(out)["ok"] is True
    doc["gamma"] = [e for e in doc["gamma"] if e["sigma"] != "b"]
    path = write(tmp_path, "refl-no-b.json", doc)
    code, out = run(capsys, ["validate", path])
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["violations"] == [{"check": "aut:chart-data", "witness": "b",
                                    "detail": "no gamma entry at this base point"}]


def test_base_map_values_checked_before_inversion(capsys, tmp_path,
                                                  three_point_bundle):
    # two points sent to one, and a value that cannot be a base point
    for k, value in enumerate(("a", [1])):
        doc = automorphism_doc(three_point_bundle)
        doc["f"]["c"] = value
        path = write(tmp_path, "inv{}.json".format(k), doc)
        assert main(["validate", path]) == 2, value
        assert "base map is not a bijection" in capsys.readouterr().err


def test_ids_must_be_ints(capsys, tmp_path, z2_groupoid):
    # a float passes 0 <= a < n but cannot index a table
    for key in ("units", "inv", "mul"):
        doc = z2_groupoid.to_json()
        row = doc[key][-1] if key == "mul" else doc[key]
        row[-1] = float(row[-1])
        path = write(tmp_path, key + ".json", doc)
        assert main(["validate", path]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("input error:") and repr(row[-1]) in err


def test_validate_bundle_doc(capsys, bundle_doc):
    code, out = run(capsys, ["validate", bundle_doc])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_identities(capsys, groupoid_doc):
    code, out = run(capsys, ["check-identities", groupoid_doc])
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "structure-identities" in names
    assert "r-equivariant-commutant" in names
    reducible = report["checks"][names.index("id-reducible")]
    assert reducible["value"] is True
    assert "ok" not in reducible


def test_check_identities_pair3(capsys, tmp_path, pair3):
    path = write(tmp_path, "p3.json", pair3.to_json())
    assert main(["check-identities", path]) == 0


def test_check_identities_cap(capsys, tmp_path):
    from groupoidal import pair_groupoid
    path = write(tmp_path, "p4.json", pair_groupoid(4).to_json())
    assert main(["check-identities", path, "--cap", "1"]) == 3


def test_check_identities_commutant_within_cap(capsys, tmp_path):
    from groupoidal import pair_groupoid
    path = write(tmp_path, "p4.json", pair_groupoid(4).to_json())
    code, out = run(capsys, ["check-identities", path])
    assert code == 0
    (comm,) = [c for c in json.loads(out)["checks"]
               if c["name"] == "r-equivariant-commutant"]
    assert comm["ok"] is True and comm["size"] == 24


def test_check_identities_refuses_large_commutant(capsys, tmp_path):
    # a discrete groupoid: R(B) is trivial, so all 9! arrow bijections
    # commute with it, and the search stops at the cap
    import time
    from groupoidal import FiniteGroupoid
    n = 9
    g = FiniteGroupoid(n, range(n), range(n), range(n), range(n),
                       {(a, a): a for a in range(n)})
    path = write(tmp_path, "discrete.json", g.to_json())
    start = time.perf_counter()
    assert main(["check-identities", path, "--cap", "100000"]) == 3
    assert time.perf_counter() - start < 5
    assert "cap 100000" in capsys.readouterr().err


def test_bundle_gauge_cap_bounds_every_search(capsys, bundle_doc):
    # 8 gauge maps and the vertical search's 42 candidates fit under the
    # cap; closing the gauge group takes 64 products and does not
    assert main(["bundle", bundle_doc, "--report", "gauge", "--cap", "63"]) == 3
    assert main(["bundle", bundle_doc, "--report", "gauge", "--cap", "64"]) == 0


def test_bundle_gauge_on_chain_bundles(capsys, tmp_path, chain_bundle,
                                       z2_groupoid, pair3):
    import time
    path = write(tmp_path, "z2.json", bundle_to_json(chain_bundle(z2_groupoid, 5)))
    code, out = run(capsys, ["bundle", path, "--report", "gauge"])
    assert code == 0
    assert json.loads(out)["gauge_order"] == 32
    # 6^4 gauge maps take 1.68M products to close, more than the cap
    path = write(tmp_path, "pair3.json", bundle_to_json(chain_bundle(pair3, 4)))
    start = time.perf_counter()
    assert main(["bundle", path, "--report", "gauge"]) == 3
    assert time.perf_counter() - start < 10


def test_bundle_gauge_builds_atiyah_groupoid_once(capsys, bundle_doc, monkeypatch):
    from groupoidal.atiyah import AtiyahGroupoid
    built, init = [], AtiyahGroupoid.__init__

    def counted(self, bundle):
        built.append(bundle)
        init(self, bundle)
    monkeypatch.setattr(AtiyahGroupoid, "__init__", counted)
    assert main(["bundle", bundle_doc, "--report", "gauge"]) == 0
    assert len(built) == 1


def test_bundle_counts(capsys, bundle_doc):
    code, out = run(capsys, ["bundle", bundle_doc, "--report", "counts"])
    assert code == 0
    assert out.splitlines()[0] == "12/6/12/36/8"


def test_bundle_batteries(capsys, bundle_doc):
    for mode in ("axioms", "atiyah", "trident", "gauge"):
        code, out = run(capsys, ["bundle", bundle_doc, "--report", mode])
        assert code == 0, (mode, out)
        assert json.loads(out)["ok"] is True


@pytest.fixture()
def broken_fibre_doc(tmp_path, three_point_bundle):
    # 0.3 = 0 instead of 3: s(0.3) is 0, not s(3) = 1
    doc = bundle_to_json(three_point_bundle)
    rows = doc["groupoid"]["mul"]
    rows[rows.index([0, 3, 3])] = [0, 3, 0]
    return write(tmp_path, "b.json", doc)


@pytest.mark.parametrize("mode", ["counts", "axioms", "atiyah", "trident", "gauge"])
def test_bundle_validates_fibre_first(capsys, broken_fibre_doc, mode):
    code, out = run(capsys, ["bundle", broken_fibre_doc, "--report", mode])
    assert code == 1, mode
    report = json.loads(out)
    assert report["ok"] is False
    assert [c["name"] for c in report["checks"]] == ["fibre-groupoid"]
    violations = report["checks"][0]["violations"]
    assert {"i:src", "ii:assoc"} <= {v["check"] for v in violations}
    # the same violations validate reports on the same document
    code, out = run(capsys, ["validate", broken_fibre_doc])
    assert code == 1 and json.loads(out)["checks"][0]["violations"] == violations


def test_transport_flat(capsys):
    code, out = run(capsys, ["transport", "so2-two-chart", "--step", "5e-3"])
    assert code == 0
    report = json.loads(out)
    assert report["equivariance_residual"] < 1e-6


def test_transport_closed_form(capsys, tmp_path):
    pd = write(tmp_path, "path.json",
               {"waypoints": [[0.0, 0.0], [1.0, 0.0]], "charts": [0]})
    code, out = run(capsys, ["transport", "so2-single-chart", "--path", pd])
    assert code == 0
    report = json.loads(out)
    import numpy as np
    from scipy.linalg import expm
    from groupoidal.scenario import J2
    assert np.linalg.norm(np.array(report["endpoint"]) - expm(-J2)) < 1e-8
    assert 3.7 < report["convergence_order"] < 4.3
    assert report["convergence_order_note"] is None


def test_transport_coordinate_rotation_on_so3(capsys, tmp_path):
    # the field is u_0 L_Z, the scenario's last generator, so a straight
    # path of x-extent 0.9 inside chart 0 ends at exp(-0.9 L_Z)
    cfg = write(tmp_path, "cfg.json", {"scenario": "so3-two-chart",
                                       "connection": "coordinate-rotation"})
    pd = write(tmp_path, "path.json",
               {"waypoints": [[-0.6, 0.1], [0.3, 0.1]], "charts": [0]})
    code, out = run(capsys, ["transport", cfg, "--path", pd])
    assert code == 0, out
    report = json.loads(out)
    import numpy as np
    from scipy.linalg import expm
    from groupoidal.scenario import L_Z
    assert np.linalg.norm(np.array(report["endpoint"]) - expm(-0.9 * L_Z)) < 1e-8
    assert 3.7 < report["convergence_order"] < 4.3


def test_transport_order_null_when_unmeasurable(capsys, tmp_path):
    # at this step the so3 endpoints agree to roundoff, and the constructed
    # so2 field vanishes left of the overlap, so RK4 is exact there
    flat = write(tmp_path, "flat.json",
                 {"waypoints": [[-0.5, 0.0], [0.2, 0.0]], "charts": [0]})
    for argv, note in ((["so3-two-chart", "--step", "5e-4"], "roundoff"),
                       (["so2-two-chart", "--path", flat], "is 0")):
        code, out = run(capsys, ["transport"] + argv)
        report = json.loads(out)
        assert code == 0 and report["convergence_order"] is None, argv
        assert note in report["convergence_order_note"]


@pytest.mark.parametrize("step", ["0", "-1e-3", "inf", "nan"])
def test_transport_step_must_be_finite_and_positive(capsys, step):
    assert main(["transport", "so2-two-chart", "--step=" + step]) == 2
    err = capsys.readouterr().err
    assert err == "input error: transport step must be finite and > 0, not {}\n".format(
        float(step))


def test_fd_step_flag_removed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transport", "so2-single-chart", "--fd-step", "1e-4"])
    assert info.value.code == 2


def test_numeric_failure_exits_4(capsys, monkeypatch):
    import groupoidal.connection
    import groupoidal.report
    import groupoidal.scenario
    assert groupoidal.scenario.NumericFailure is groupoidal.report.NumericFailure

    def diverge(*args, **kwargs):
        raise groupoidal.report.NumericFailure("transport diverged")

    monkeypatch.setattr(groupoidal.connection, "parallel_transport", diverge)
    assert main(["transport", "so2-single-chart"]) == 4
    assert capsys.readouterr().err.startswith("numeric failure:")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_on_propagator_path(capsys, tmp_path, monkeypatch):
    import numpy as np
    import groupoidal.cli
    from groupoidal.connection import (BasePath, LocalConnectionData,
                                       parallel_transport)
    from groupoidal.report import NumericFailure
    from groupoidal.scenario import J2, so2_two_chart_scenario

    def huge_connection(scenario):
        def field(s, m, u):
            return 1e200 * J2
        field.constant_in_m = True
        return LocalConnectionData(scenario, [field] * len(scenario.charts))

    sc = so2_two_chart_scenario()
    path = BasePath.polyline([[0.0, 0.0], [0.5, 0.0]], [0])
    with pytest.raises(NumericFailure):
        parallel_transport(sc, huge_connection(sc), path, (np.eye(2), np.array([1.0, 0.0])))
    monkeypatch.setattr(groupoidal.cli, "_coordinate_rotation_connection", huge_connection)
    cfg = write(tmp_path, "cfg.json", {"scenario": "so2-two-chart",
                                       "connection": "coordinate-rotation"})
    assert main(["transport", cfg]) == 4
    assert capsys.readouterr().err.startswith("numeric failure:")


def loaded_after(statement):
    """The top-level modules a fresh interpreter has loaded after statement."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = statement + "; import sys; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return {name.split(".")[0] for name in proc.stdout.split()}


def test_cli_import_loads_no_numeric_stack():
    assert not {"numpy", "scipy"} & loaded_after("import groupoidal.cli")


def test_numeric_engine_loads_no_scipy():
    loaded = loaded_after("import groupoidal.scenario, groupoidal.connection")
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_reports_round_trip_json(capsys, groupoid_doc):
    code, out = run(capsys, ["--json", "validate", groupoid_doc])
    assert json.loads(out) == json.loads(json.dumps(json.loads(out)))


def test_console_script_installed(tmp_path):
    """The ``groupoidal`` command declared in ``pyproject.toml`` runs
    ``groupoidal.cli.main`` and exits with the contract's code (2 for a
    missing input file).

    An installer generates a launcher that imports the entry point and
    passes its return value to ``sys.exit``; that launcher is written here
    from the declared entry, so no install is needed.  Where a
    ``groupoidal`` launcher is installed on PATH, it is run as well.
    """
    import importlib.metadata
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib

    import groupoidal

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "groupoidal" in scripts, f"no groupoidal in {pyproject}"
    ep = importlib.metadata.EntryPoint(
        name="groupoidal", value=scripts["groupoidal"],
        group="console_scripts")
    assert ep.load() is main, ep.value

    launcher = tmp_path / "groupoidal"
    launcher.write_text(f"import sys\n"
                        f"from {ep.module} import {ep.attr}\n"
                        f"sys.exit({ep.attr}())\n")
    package_root = str(Path(groupoidal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    commands = [[sys.executable, str(launcher)]]

    installed = shutil.which("groupoidal")
    if installed is not None:
        values = {e.value for e in importlib.metadata.entry_points(
            group="console_scripts", name="groupoidal")}
        assert values == {ep.value}, (
            f"{installed} is on PATH, but the installed console_scripts "
            f"entries {values} differ from {ep.value!r} in {pyproject}")
        commands.append([installed])

    for command in commands:
        argv = command + ["validate", "/nonexistent.json"]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              cwd=tmp_path, env=env)
        assert proc.returncode == 2, (
            f"{argv} exited {proc.returncode}:\n{proc.stderr}")
