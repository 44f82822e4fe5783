"""Exit-code contract and report shapes of the command-line front end."""

import copy
import json
import math
import random
import time

import pytest

from groupoidal import bundle_to_json, pair_groupoid
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


@pytest.mark.parametrize("row", [[0, 0], [0, 0, 0, 0]])
def test_mul_row_of_wrong_length_is_input_error(capsys, tmp_path, z2_groupoid, row):
    doc = z2_groupoid.to_json()
    doc["mul"][0] = row
    assert main(["validate", write(tmp_path, "row.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "input error: malformed groupoid document: mul row {!r} is not "
        "[a, b, a.b]\n".format(row))


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


def automorphism_doc(bundle, aut=None):
    from groupoidal import identity_automorphism
    aut = aut or identity_automorphism(bundle)
    return {"bundle": bundle_to_json(bundle), "f": dict(aut.f),
            "gamma": [{"j": j, "i": i, "sigma": s, "bisection": b.to_json()}
                      for (j, i, s), b in sorted(aut.gamma.items())]}


def test_automorphism_bundle_read_once(capsys, tmp_path, monkeypatch,
                                       three_point_bundle):
    # the cocycle is checked once, and the automorphism built on that bundle
    import groupoidal.bundle as bundle_module
    calls, real = [], bundle_module.validate_cocycle

    def counted(base, cocycle):
        calls.append(base)
        return real(base, cocycle)
    monkeypatch.setattr(bundle_module, "validate_cocycle", counted)
    path = write(tmp_path, "aut.json", automorphism_doc(three_point_bundle))
    code, out = run(capsys, ["validate", path])
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(calls) == 1


def test_bundle_axioms_check_the_cocycle_once(capsys, monkeypatch, bundle_doc):
    # the cocycle report is the one the bundle is built on
    import groupoidal.bundle as bundle_module
    calls, real = [], bundle_module.validate_cocycle

    def counted(base, cocycle):
        calls.append(base)
        return real(base, cocycle)
    monkeypatch.setattr(bundle_module, "validate_cocycle", counted)
    code, out = run(capsys, ["bundle", bundle_doc, "--report", "axioms"])
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(calls) == 1


def test_automorphism_without_bundle_is_input_error(capsys, tmp_path,
                                                    three_point_bundle):
    doc = automorphism_doc(three_point_bundle)
    del doc["bundle"]
    assert main(["validate", write(tmp_path, "aut.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: malformed automorphism document: no key 'bundle'\n"


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


def test_cocycle_entries_off_their_charts_are_violations(capsys, tmp_path, bundle_doc):
    # the swap again at a, which chart 1 does not hold, and a diagonal entry
    # at a in chart 1: neither is ever read
    with open(bundle_doc) as fh:
        doc = json.load(fh)
    swap = doc["cocycle"][0]
    for k, (i, j) in enumerate(((0, 1), (1, 1))):
        d, key = copy.deepcopy(doc), [i, j, "a"]
        d["cocycle"].append(dict(swap, i=i, j=j, sigma="a"))
        path = write(tmp_path, "off{}.json".format(k), d)
        code, out = run(capsys, ["validate", path])
        assert code == 1
        assert json.loads(out)["checks"][1]["violations"] == [{
            "check": "cocycle:domain", "witness": key,
            "detail": "sigma off chart i or chart j"}]
        assert run(capsys, ["bundle", path, "--report", "axioms"])[0] == 1
        for mode in ("counts", "atiyah", "gauge"):
            assert main(["bundle", path, "--report", mode]) == 2, mode
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("input error: invalid cocycle:")


def test_gamma_entries_off_their_charts_are_violations(capsys, tmp_path,
                                                       three_point_bundle):
    # a non-unit entry at a in chart 1, which does not hold a, beside a's own
    # entry and as a's only one; and one sending a into chart 1
    doc = automorphism_doc(three_point_bundle)
    off = dict(doc["bundle"]["cocycle"][0], j=1, i=1, sigma="a")
    extra = copy.deepcopy(doc)
    extra["gamma"].append(off)
    only = copy.deepcopy(doc)
    only["gamma"] = [e for e in doc["gamma"] if e["sigma"] != "a"] + [off]
    into = copy.deepcopy(doc)
    into["gamma"].append(dict(off, i=0))
    for k, (d, key) in enumerate(((extra, [1, 1, "a"]), (only, [1, 1, "a"]),
                                  (into, [1, 0, "a"]))):
        code, out = run(capsys, ["validate", write(tmp_path, "g{}.json".format(k), d)])
        assert code == 1, key
        (check,) = json.loads(out)["checks"]
        assert check["violations"] == [{"check": "aut:chart-domain", "witness": key,
                                        "detail": "sigma or f(sigma) off its chart"}]


@pytest.mark.parametrize("base,repeat", [(["a", "a", "b"], "'a' and 'a'"),
                                         ([1, True], "1 and True")],
                         ids=["a-twice", "one-and-true"])
def test_repeated_base_point_is_input_error(capsys, tmp_path, bundle_doc, base, repeat):
    # [1, true] are one point to Python
    with open(bundle_doc) as fh:
        doc = json.load(fh)
    doc.update(base=base, cover=[base[1:]], cocycle=[])
    path = write(tmp_path, "twice.json", doc)
    for argv in (["validate", path], ["bundle", path, "--report", "counts"],
                 ["bundle", path, "--report", "atiyah"], ["bundle", path, "--report", "gauge"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "input error: base lists a point twice: {}\n".format(repeat)


def test_base_map_values_checked_before_inversion(capsys, tmp_path,
                                                  three_point_bundle):
    # two points sent to one, and a value that cannot be a base point
    for k, value in enumerate(("a", [1])):
        doc = automorphism_doc(three_point_bundle)
        doc["f"]["c"] = value
        path = write(tmp_path, "inv{}.json".format(k), doc)
        assert main(["validate", path]) == 2, value
        assert "base map is not a bijection" in capsys.readouterr().err


MALFORMED_AUTOMORPHISMS = {
    "gamma-not-a-list": lambda doc: doc.__setitem__("gamma", 5),
    "gamma-entry-not-an-object": lambda doc: doc.__setitem__("gamma", ["x"]),
    "f-a-list": lambda doc: doc.__setitem__("f", [1, 2]),
    "f-a-number": lambda doc: doc.__setitem__("f", 3),
    "sigma-a-list": lambda doc: doc["gamma"][0].__setitem__("sigma", ["a"]),
}


@pytest.mark.parametrize("edit", list(MALFORMED_AUTOMORPHISMS))
def test_malformed_automorphism_is_input_error(capsys, tmp_path, three_point_bundle,
                                               edit):
    doc = automorphism_doc(three_point_bundle)
    MALFORMED_AUTOMORPHISMS[edit](doc)
    assert main(["validate", write(tmp_path, "aut.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("input error: malformed automorphism document:")


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_gauge_documents_validate(capsys, tmp_path, request, chain_bundle, fibre):
    # a gauge map as the benchmark writes one: a seeded fibre bisection per
    # base point, in its canonical chart
    import random
    from groupoidal import (BundleAutomorphism, enumerate_bisections,
                            validate_automorphism)
    bundle = chain_bundle(request.getfixturevalue(fibre), 4)
    rng, bis = random.Random(3), enumerate_bisections(bundle.groupoid)
    chart = bundle.base.canonical_chart
    aut = BundleAutomorphism(bundle, {s: s for s in bundle.base.base}, {
        (chart(s), chart(s), s): rng.choice(bis) for s in bundle.base.base})
    doc = automorphism_doc(bundle, aut)
    code, out = run(capsys, ["validate", write(tmp_path, "gauge.json", doc)])
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check == {"name": "automorphism",
                     **validate_automorphism(bundle, aut).to_dict()}


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
    path = write(tmp_path, "p4.json", pair_groupoid(4).to_json())
    assert main(["check-identities", path, "--cap", "1"]) == 3


def test_check_identities_commutant_within_cap(capsys, tmp_path):
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


@pytest.mark.parametrize("row", [[2, 3, 1], [3, 2, 0]])
def test_fibre_missing_a_product_fails_before_the_bundle_is_built(
        capsys, tmp_path, three_point_bundle, row):
    doc = bundle_to_json(three_point_bundle)
    doc["groupoid"]["mul"].remove(row)
    path = write(tmp_path, "b.json", doc)
    aut = automorphism_doc(three_point_bundle)
    aut["bundle"] = doc
    missing = {"check": "i:mul-total", "witness": row[:2],
               "detail": "composable pair missing from mul"}
    for argv, name in ((["validate", path], "groupoid-axioms"),
                       (["validate", write(tmp_path, "aut.json", aut)], "groupoid-axioms"),
                       (["bundle", path], "fibre-groupoid"),
                       (["bundle", path, "--report", "trident"], "fibre-groupoid")):
        code, out = run(capsys, argv)
        assert code == 1, argv
        (check,) = json.loads(out)["checks"]
        assert check["name"] == name and missing in check["violations"]


def test_cocycle_check_can_fail(capsys, tmp_path, three_point_bundle):
    # beta_00(a) is the swap, not the unit bisection
    doc = bundle_to_json(three_point_bundle)
    swap = doc["cocycle"][0]["bisection"]
    doc["cocycle"].append({"i": 0, "j": 0, "sigma": "a", "bisection": swap})
    path = write(tmp_path, "b.json", doc)
    for argv in (["validate", path], ["bundle", path, "--report", "axioms"]):
        code, out = run(capsys, argv)
        assert code == 1, argv
        fibre, cocycle = json.loads(out)["checks"]
        assert fibre["ok"] is True
        assert cocycle == {"name": "cocycle", "ok": False, "checks_run": 3,
                           "violations": [{"check": "cocycle:diag",
                                           "witness": [0, 0, "a"], "detail": ""}]}
    aut = automorphism_doc(three_point_bundle)
    aut["bundle"] = doc
    code, out = run(capsys, ["validate", write(tmp_path, "aut.json", aut)])
    assert code == 1 and json.loads(out)["checks"] == [cocycle]
    # a battery that needs the bundle keeps the constructor's guard
    assert main(["bundle", path, "--report", "trident"]) == 2
    assert capsys.readouterr().err.startswith("input error: invalid cocycle:")


def test_bundle_unknown_report_mode(capsys, bundle_doc):
    with pytest.raises(SystemExit) as info:
        main(["bundle", bundle_doc, "--report", "bogus"])
    assert info.value.code == 2


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


@pytest.mark.parametrize("scenario, angle", [("so2-single-chart", 0.0),
                                             ("so2-two-chart", -0.5)])
def test_transport_flat_connection_from_config(capsys, tmp_path, scenario, angle):
    # the zero field transports nothing inside a chart; across the chart
    # change at sigma = (0.5, 0) the arrow is clutched by exp(-0.5 J)
    import numpy as np

    from groupoidal.scenario import rot2

    cfg = write(tmp_path, "cfg.json", {"scenario": scenario, "connection": "flat"})
    code, out = run(capsys, ["transport", cfg, "--step", "0.05"])
    assert code == 0
    report = json.loads(out)
    assert np.abs(np.array(report["endpoint"]) - rot2(angle)).max() < 1e-15
    assert report["equivariance_residual"] == 0.0


def test_transport_unknown_connection_is_input_error(capsys, tmp_path):
    cfg = write(tmp_path, "cfg.json", {"scenario": "so2-two-chart",
                                       "connection": "flatt"})
    assert main(["transport", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: unknown connection 'flatt'\n"


def test_transport_unknown_config_key_is_input_error(capsys, tmp_path):
    # a misspelt key would otherwise be ignored, running the constructed
    # connection
    for doc, err in [
            ({"scenario": "so2-two-chart", "conection": "flat"},
             "unknown key 'conection' in scenario config"),
            ({"scenario": "so2-two-chart", "fd_step": 1e-4, "Connection": "flat"},
             "unknown key 'Connection', 'fd_step' in scenario config"),
            (["so2-two-chart"], "a scenario config is a JSON object")]:
        assert main(["transport", write(tmp_path, "cfg.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: {}\n".format(err)


CLI_MIX_PATH = {"waypoints": [[-0.5, 0.31], [0.52, -0.74]], "charts": [0]}


@pytest.mark.parametrize("scenario, doc, err", [
    pytest.param("so2-single-chart", CLI_MIX_PATH, None, id="cli-mix"),
    pytest.param("so3-two-chart", [[0, 0], [1, 0]], "a path document is a JSON object "
                 "with the keys 'waypoints' and 'charts'", id="list"),
    pytest.param("so3-two-chart", {"waypoints": [[0, 0], [0.5, 0]], "charts": [0], "x": 1},
                 "path document key 'x' is unknown", id="extra-key"),
    pytest.param("so3-two-chart", {"waypoints": [[0, 0], [0.5, 0]]},
                 "path document key 'charts' is missing", id="no-charts"),
    pytest.param("so3-two-chart", {"waypoints": [[0, 0]], "charts": []},
                 "path document key 'charts' must be a non-empty list", id="no-chart"),
    pytest.param("so3-two-chart", {"waypoints": [[0, 0]], "charts": 0},
                 "path document key 'charts' must be a non-empty list", id="charts-int"),
    pytest.param("so3-two-chart", {"waypoints": 3, "charts": [0]},
                 "path document key 'waypoints' must be a list of len(charts) + 1 = 2 "
                 "waypoints", id="waypoints-int"),
    *[pytest.param("so3-two-chart", {"waypoints": [[0, 0], [0.5, 0]], "charts": [c]},
                   "path document key 'charts' holds {!r}; chart ids are ints in "
                   "range(2)".format(c), id="chart-" + json.dumps(c))
      for c in (5, 2, -1, 0.0, True, "0", None)],
    pytest.param("so3-two-chart", {"waypoints": [[0, 0]], "charts": [0]},
                 "path document key 'waypoints' must be a list of len(charts) + 1 = 2 "
                 "waypoints", id="one-waypoint"),
    pytest.param("so3-two-chart", {"waypoints": [[0, 0], [0.3, 0], [0.6, 0]], "charts": [0]},
                 "path document key 'waypoints' must be a list of len(charts) + 1 = 2 "
                 "waypoints", id="extra-waypoint"),
    *[pytest.param("so3-two-chart", {"waypoints": [[0, 0], w], "charts": [0]},
                   "path document key 'waypoints' holds {!r}; a waypoint is 2 finite "
                   "numbers".format(w), id="waypoint-" + json.dumps(w))
      for w in ([1], [0.5, 0, 0], [float("nan"), 0], [float("inf"), 0], [10**400, 0],
                [True, 0], ["0.5", 0], 0.5)]])
def test_path_document_is_checked(capsys, tmp_path, scenario, doc, err):
    # every fault exits 2 with one line naming the key, before any transport
    code = main(["transport", scenario, "--path", write(tmp_path, "p.json", doc)])
    out, stderr = capsys.readouterr()
    if err is not None:
        assert (code, out, stderr) == (2, "", "input error: {}\n".format(err))
        return
    import numpy as np
    from groupoidal.cli import _coordinate_rotation_connection
    from groupoidal.connection import BasePath, parallel_transport
    from groupoidal.scenario import so2_single_chart_scenario
    sc = so2_single_chart_scenario()
    (a, _), _ = parallel_transport(sc, _coordinate_rotation_connection(sc), BasePath.polyline(
        doc["waypoints"], doc["charts"]), (np.eye(2), np.array([1.0, 0.0])))
    assert code == 0 and json.loads(out)["endpoint"] == a.tolist()


@pytest.mark.parametrize("doc, segment, chart, t_out", [
    ({"waypoints": [[0, 0], [1, 0]], "charts": [0]}, 0, 0, 0.7),
    ({"waypoints": [[0, 0], [0.5, 0], [0, 0]], "charts": [0, 1]}, 1, 1, 0.4),
    ({"waypoints": [[0, 0], [0.5, 0.5], [0.5, 1.5]], "charts": [0, 0]}, 1, 0, 0.5)],
    ids=["past-chart-0", "before-chart-1", "past-the-top"])
def test_path_must_stay_in_its_charts(capsys, tmp_path, doc, segment, chart, t_out):
    # the chart boxes are 0.3 < x < 2 (chart 1) and -1 < x < 0.7 (chart 0),
    # each with -1 < y < 1; the first node outside lies within h/2 of the wall
    code = main(["transport", "so3-two-chart", "--path", write(tmp_path, "p.json", doc)])
    out, err = capsys.readouterr()
    prefix = "input error: segment {} leaves chart {} at t = ".format(segment, chart)
    assert (code, out) == (2, "") and err.startswith(prefix), err
    assert -1e-12 <= float(err[len(prefix):]) - t_out <= 5e-4 + 1e-12


@pytest.mark.parametrize("stacked", [(True, True), (False, False), (True, False)],
                         ids=["propagator", "loop", "mixed"])
def test_transport_reports_rk4_steps(capsys, tmp_path, monkeypatch, stacked):
    # rk4_steps sums step_counts over the five transports by the way each
    # segment goes, and equals the steps the two paths ran; the default
    # path runs one segment in each chart
    import groupoidal.cli
    import groupoidal.connection as C
    from groupoidal.scenario import L_Z

    def rotation_connection(scenario):
        fields = []
        for declared in stacked:
            def field(s, m, u):
                return u[0] * L_Z
            if declared:
                field.stack = lambda S, U: U[:, 0, None, None] * L_Z
            fields.append(field)
        return C.LocalConnectionData(scenario, fields)

    ran = {"loop": 0, "propagator": 0}

    def counting(route, run):
        def counted(blocks):
            for block in blocks:
                ran[route] += len(block[2])
                yield block
        return lambda f, blocks, *rest: run(f, counted(blocks), *rest)

    monkeypatch.setattr(C, "_rk4_loop", counting("loop", C._rk4_loop))
    monkeypatch.setattr(C, "_propagate", counting("propagator", C._propagate))
    monkeypatch.setattr(groupoidal.cli, "_coordinate_rotation_connection",
                        rotation_connection)
    cfg = write(tmp_path, "cfg.json", {"scenario": "so3-two-chart",
                                       "connection": "coordinate-rotation"})
    code, out = run(capsys, ["transport", cfg, "--step", "2e-3"])
    assert code == 0
    path = C.BasePath.polyline([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [0, 1])
    want = {"loop": 0, "propagator": 0}
    for step in (2e-3, 2e-3, 16e-3, 8e-3, 4e-3):
        for declared, n in zip(stacked, C.step_counts(path, step)):
            want["propagator" if declared else "loop"] += int(n)
    assert json.loads(out)["rk4_steps"] == ran == want


def test_transport_unknown_scenario_is_input_error(capsys, tmp_path):
    known = "known scenarios: so2-single-chart, so2-two-chart, so3-two-chart"
    for doc, value in [({"scenario": "so2-tw-chart"}, "'so2-tw-chart'"),
                       ({"scenario": ["so2-two-chart"]}, "['so2-two-chart']"),
                       ({"connection": "flat"}, "missing")]:
        assert main(["transport", write(tmp_path, "cfg.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: scenario config key 'scenario' is {}; {}\n".format(
            value, known)


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


def single_chart_order(capsys, tmp_path, waypoints):
    pd = write(tmp_path, "path.json", {"waypoints": waypoints, "charts": [0]})
    code, out = run(capsys, ["transport", "so2-single-chart", "--path", pd])
    report = json.loads(out)
    assert code == 0
    return report["convergence_order"], report["convergence_order_note"]


def test_transport_order_ignores_differences_at_roundoff(capsys, tmp_path):
    # the coordinate-rotation field is constant on this straight path, so
    # the 2h/h endpoint difference (about 1.5e-13) sits at roundoff; it
    # must not overrule the 8h/4h/2h estimate
    order, note = single_chart_order(
        capsys, tmp_path, [[-0.5, 0.9912896710209256],
                           [0.3937323844186785, -0.05947298495510411]])
    assert order is not None and 3.7 < order < 4.3, note
    assert note is None


def test_transport_order_over_path_lengths(capsys, tmp_path):
    import numpy as np
    rng = np.random.default_rng(41)
    for _ in range(40):
        length, y0, y1 = rng.uniform(0.8, 1.2), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        order, note = single_chart_order(capsys, tmp_path,
                                         [[-0.5, y0], [-0.5 + length, y1]])
        assert order is not None and 3.7 < order < 4.3, (length, note)


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


def test_ode_step_alias_removed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transport", "so2-single-chart", "--ode-step", "1e-3"])
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


def check_divergence(capsys, tmp_path, monkeypatch, stacked):
    """A 1e200 J field diverges: NumericFailure from the library, exit 4 with
    one stderr line from the CLI, and no numpy warning on either; with a
    stack on the propagator path, without one in the RK4 loop."""
    import warnings
    import numpy as np
    import groupoidal.cli
    import groupoidal.connection as C
    from groupoidal.connection import (BasePath, LocalConnectionData,
                                       parallel_transport)
    from groupoidal.report import NumericFailure
    from groupoidal.scenario import J2, so2_two_chart_scenario

    def huge_connection(scenario):
        def field(s, m, u):
            return 1e200 * J2
        if stacked:
            field.stack = lambda S, U: np.full((len(S), 2, 2), 1e200 * J2)
        return LocalConnectionData(scenario, [field] * len(scenario.charts))

    ran = set()
    for name in ("_propagate", "_rk4_loop"):
        monkeypatch.setattr(C, name, lambda *args, name=name, run=getattr(C, name):
                            ran.add(name) or run(*args))

    sc = so2_two_chart_scenario()
    path = BasePath.polyline([[0.0, 0.0], [0.5, 0.0]], [0])
    monkeypatch.setattr(groupoidal.cli, "_coordinate_rotation_connection", huge_connection)
    cfg = write(tmp_path, "cfg.json", {"scenario": "so2-two-chart",
                                       "connection": "coordinate-rotation"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericFailure):
            parallel_transport(sc, huge_connection(sc), path, (np.eye(2), np.array([1.0, 0.0])))
        assert main(["transport", cfg]) == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numeric failure: transport diverged\n"
    assert ran == {"_propagate" if stacked else "_rk4_loop"}


def test_divergence_on_propagator_path(capsys, tmp_path, monkeypatch):
    check_divergence(capsys, tmp_path, monkeypatch, stacked=True)


def test_divergence_in_rk4_loop(capsys, tmp_path, monkeypatch):
    check_divergence(capsys, tmp_path, monkeypatch, stacked=False)


@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_transport_step_count_is_bounded(capsys, step):
    # refused before the first step: 1e300 steps, and inf for the smallest float
    t0 = time.process_time()
    assert main(["transport", "so2-two-chart", "--step=" + step]) == 3
    assert time.process_time() - t0 < 1.0
    assert capsys.readouterr().err.startswith("cap exceeded: ")


def test_step_bound_counts_every_segment(monkeypatch):
    import numpy as np
    import groupoidal.connection as C
    from groupoidal.report import EnumerationBound
    from groupoidal.scenario import so2_two_chart_scenario

    sc = so2_two_chart_scenario()
    A, start = C.zero_connection(sc), (np.eye(2), np.array([1.0, 0.0]))
    path = C.BasePath.polyline([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]], [0, 0])
    monkeypatch.setattr(C, "MAX_STEPS", 100)
    C.parallel_transport(sc, A, path, start, step=1 / 50)  # 2 x 50 steps
    with pytest.raises(EnumerationBound):
        C.parallel_transport(sc, A, path, start, step=1 / 51)  # 2 x 51 steps


def loaded_after(statement):
    """The modules, by full name, that a fresh interpreter has loaded after
    statement; what statement prints is ignored."""
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
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_numeric_stack():
    assert not {"numpy", "scipy"} & loaded_after("import groupoidal.cli")


def test_identity_suite_loads_no_numeric_stack():
    assert not {"numpy", "scipy"} & loaded_after(
        "from groupoidal import check_structure_identities, pair_groupoid; "
        "assert check_structure_identities(pair_groupoid(3)).ok")


EXACT_MODULES = {"groupoidal." + m for m in ("groupoid", "bisection", "bundle",
                                             "atiyah", "automorphism")}


def test_package_import_loads_no_module():
    assert {m for m in loaded_after("import groupoidal")
            if m.startswith("groupoidal")} == {"groupoidal"}


def test_transport_loads_no_exact_module():
    loaded = loaded_after("from groupoidal.cli import main; "
                          "assert main(['--json', 'transport', 'so3-two-chart']) == 0")
    assert "groupoidal.connection" in loaded
    assert not (EXACT_MODULES | {"numpy.random", "scipy"}) & loaded


def test_check_identities_loads_no_bundle_module(tmp_path):
    doc = write(tmp_path, "pair3.json", pair_groupoid(3).to_json())
    loaded = loaded_after("from groupoidal.cli import main; "
                          "assert main(['--json', 'check-identities', {!r}]) == 0".format(doc))
    assert "groupoidal.bisection" in loaded
    assert not {"groupoidal.bundle", "groupoidal.atiyah", "groupoidal.automorphism",
                "numpy"} & loaded


@pytest.mark.parametrize("mode", ["trident", "atiyah"])
def test_bundle_reports_without_gauge_maps_load_no_automorphism_module(bundle_doc, mode):
    loaded = loaded_after("from groupoidal.cli import main; assert main(['--json', 'bundle', "
                          "{!r}, '--report', {!r}]) == 0".format(bundle_doc, mode))
    assert "groupoidal.atiyah" in loaded and "groupoidal.automorphism" not in loaded


# every name the package exported when it imported its modules eagerly
EXPORTED = [
    "AdElement", "AdjointBundle", "AtElement", "AtiyahGroupoid", "Bisection",
    "BundleAutomorphism", "CechBase", "Cocycle", "CompositionError",
    "DivisionError", "EnumerationBound", "FPoint", "FiniteGroupAction",
    "FiniteGroupoid", "InternalError", "MomentMismatch", "NumericFailure",
    "PPoint", "PrincipaloidBundle", "StructuralError", "ValidationReport",
    "Violation", "action_groupoid", "atiyah", "automorphism",
    "automorphism_from_json", "automorphism_to_bisection", "bisection",
    "bisection_inverse", "bisection_product", "bisection_through",
    "bisection_to_automorphism",
    "build_bundle", "bundle", "bundle_from_json", "bundle_to_json",
    "check_structure_identities", "conjugate", "enumerate_bisections",
    "enumerate_gauge_group", "enumerate_projectable_bisections",
    "fibred_pair_groupoid", "group_groupoid", "groupoid",
    "identity_automorphism", "is_id_reducible", "left_mult", "pair_groupoid",
    "product_groupoid", "r_equivariant_commutant", "report", "right_mult",
    "unit_bisection", "validate_automorphism", "validate_bisection",
    "validate_cocycle", "validate_groupoid", "verify_atiyah_sequence",
    "verify_bisection_correspondence", "verify_gauge_group",
    "verify_principal_axioms", "verify_trident", "z2_swap_action",
]


def test_package_exports_every_name():
    import groupoidal
    import groupoidal.bisection

    assert set(EXPORTED) <= set(dir(groupoidal))
    namespace = {}
    exec("from groupoidal import *", namespace)
    assert sorted(n for n in namespace if not n.startswith("_")) == EXPORTED
    assert namespace["bisection"] is groupoidal.bisection
    assert namespace["enumerate_bisections"] is groupoidal.bisection.enumerate_bisections
    assert groupoidal.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        groupoidal.no_such_name


def test_package_attribute_loads_its_module():
    # groupoidal.<module> with no import of it: resolved on first use
    import sys

    import groupoidal

    assert groupoidal.__getattr__("automorphism") is sys.modules["groupoidal.automorphism"]
    loaded = loaded_after("import groupoidal; assert groupoidal.automorphism.__name__ "
                          "== 'groupoidal.automorphism'")
    assert "groupoidal.automorphism" in loaded


def test_numeric_engine_loads_no_scipy():
    loaded = loaded_after("import groupoidal.scenario, groupoidal.connection")
    assert "numpy" in loaded
    assert "scipy" not in loaded


def mutated(doc, rng):
    """A copy of doc with one node below the root, picked at random, given a
    wrong type, an out-of-range id or NaN, dropped, or duplicated: in its
    list, or under a second key."""
    doc = copy.deepcopy(doc)
    spots, stack = [], [doc]  # (parent, key) of every node below the root
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else (
            range(len(node)) if isinstance(node, list) else ())
        spots += [(node, k) for k in keys]
        stack += [node[k] for k in keys]
    parent, key = rng.choice(spots)
    kind = rng.choice(["type", "id", "nan", "drop", "dup"])
    if kind == "drop":
        del parent[key]
    elif kind == "dup" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "dup":
        parent[key + "2"] = copy.deepcopy(parent[key])
    else:
        parent[key] = rng.choice({"type": ["x", None, True, 1.5, [], {}],
                                  "id": [-1, 2, 99, 10**20],
                                  "nan": [math.nan, math.inf]}[kind])
    return doc


def test_mutated_documents_keep_the_exit_code_contract(capsys, tmp_path, z2_groupoid,
                                                       three_point_bundle):
    # seeded mutations of the five document kinds: nothing escapes main, the
    # exit code is 0-4, and an input error is one line
    rng = random.Random(24)
    modes = ["counts", "axioms", "atiyah", "trident", "gauge"]
    kinds = {
        "groupoid": (z2_groupoid.to_json(), lambda p: [
            rng.choice(["validate", "check-identities"]), p]),
        "bundle": (bundle_to_json(three_point_bundle), lambda p: rng.choice(
            [["validate", p]] + [["bundle", p, "--report", m] for m in modes])),
        "automorphism": (automorphism_doc(three_point_bundle),
                         lambda p: ["validate", p]),
        "path": ({"waypoints": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], "charts": [0, 1]},
                 lambda p: ["transport", "so2-two-chart", "--path", p, "--step", "0.05"]),
        "scenario": ({"scenario": "so2-two-chart", "connection": "flat"},
                     lambda p: ["transport", p, "--step", "0.05"]),
    }
    codes = set()
    for k in range(500):
        doc, argv = kinds[rng.choice(sorted(kinds))]
        args = argv(write(tmp_path, "doc.json", mutated(doc, rng)))
        code = main(args)
        err = capsys.readouterr().err
        assert code in range(5), args
        if code == 2:
            assert err.startswith("input error:") and err.count("\n") == 1, (args, err)
        codes.add(code)
    assert codes == {0, 1, 2}


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
