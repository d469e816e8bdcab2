"""Command-line front end: exit codes, deterministic output, fixture
resolution, and the documented example invocations."""

import contextlib
import io
import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbhodge import cli
from orbhodge.exactla import GaussRational
from orbhodge.fixture_store import fixture_text
from orbhodge.serialization import encode_rational, encode_scalar


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_dual_prints_wps_vertices_in_canonical_order():
    code, out, _ = run(["dual", "p11226"])
    assert code == 0
    rows = [line.strip() for line in out.splitlines() if line.strip().startswith("(")]
    assert rows == [
        "(-1, -2, -2, -6)",
        "(0, 0, 0, 1)",
        "(0, 0, 1, 0)",
        "(0, 1, 0, 0)",
        "(1, 0, 0, 0)",
    ]
    code, out, _ = run(["dual", "p11133"])
    assert code == 0
    assert "(-1, -1, -3, -3)" in out

    code, out, _ = run(["dual", "square"])
    assert code == 0
    assert "(0, 1)" in out and "(-1, 0)" in out


def test_dual_json_mode_is_deterministic_and_carries_the_dual():
    runs = [run(["dual", "p11226", "--json"]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dual"
    assert doc["verdict"] == "pass"
    assert doc["reflexive"] is True
    assert doc["dual"]["vertices"][0] == [-1, -2, -2, -6]
    assert "timing" not in doc


def test_dual_rejects_non_interior_origin(tmp_path):
    bad = tmp_path / "shifted.json"
    bad.write_text(json.dumps({
        "kind": "polytope", "dim": 2,
        "vertices": [[0, 0], [2, 0], [0, 2], [2, 2]],
    }))
    code, _, err = run(["dual", str(bad)])
    assert code == 2
    assert "origin" in err.lower()


def test_hlc_verdicts_for_the_wps_fixtures():
    # the holds verdict always carries the enumeration caveat
    code, out, _ = run(["hlc", "p11226"])
    assert code == 0
    assert "hlc: caveat" in out
    assert '"point": [0, -1, -1, -3]' in out
    assert '"holds"' in out

    code, out, _ = run(["hlc", "p11133"])
    assert code == 1
    assert "hlc: fail" in out
    assert "[0, 0, -1, -1]" in out or "(0, 0, -1, -1)" in out

    code, out, _ = run(["hlc", "square"])
    assert code == 0
    assert "caveat" in out


def test_check_hs_and_check_pmhs_fixtures():
    code, out, _ = run(["check-hs", "torus_h1"])
    assert code == 0 and "check-hs: pass" in out

    code, out, _ = run(["check-pmhs", "p1"])
    assert code == 0 and "check-pmhs: pass" in out

    code, out, _ = run(["check-pmhs", "p1_negQ", "--json"])
    assert code == 1
    doc = json.loads(out)
    bad = [it for it in doc["items"]
           if it["check_id"] == "graded_polarization" and it["status"] == "fail"]
    assert bad and bad[0]["witness"]["l"] == 1


def test_check_orbifold_fixtures():
    code, out, _ = run(["check-orbifold", "p2"])
    assert code == 0 and "check-orbifold: pass" in out
    for prefix in ("dims:", "hlc:", "lefschetz:", "primitive:", "total:"):
        assert prefix in out

    code, out, _ = run(["check-orbifold", "p1xp1", "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_orbit_positive_samples_pass_reflected_fail_for_odd_weight():
    code, out, _ = run(["orbit", "p1"])
    assert code == 0 and "orbit: pass" in out

    code, out, _ = run(["orbit", "p1", "--samples=-i"])
    assert code == 1
    assert "positivity" in out

    # outside-cone samples only warn when the mathematics still holds
    code, out, _ = run(["orbit", "p2", "--samples=-i"])
    assert code == 0 and "caveat" in out

    code, out, _ = run(["orbit", "p1", "--samples", "i 2i"])
    assert code == 0


def test_age_examples_match_the_documented_output():
    for args, want in ((["--order", "2", "--exponents", "1,1"], "1, SL: true"),
                       (["--order", "3", "--exponents", "1,1"], "2/3, SL: false"),
                       (["--order", "1", "--exponents", "0,0,0"], "0, SL: true")):
        code, out, _ = run(["age", *args])
        assert code == 0
        assert out.strip() == want
    code, _, err = run(["age", "--order", "4", "--exponents", "4"])
    assert code == 2 and "exponent" in err
    assert run(["age", "--order", "0", "--exponents", "1"]) == \
        (2, "", "invalid input at --order: order must be positive\n")


def test_negative_values_after_coeffs_and_samples():
    # -1/2 and -i read as values, exactly as they do after "="
    assert run(["check-orbifold", "p2", "--coeffs", "-1/2"]) == \
        run(["check-orbifold", "p2", "--coeffs=-1/2"])
    assert run(["orbit", "p1", "--samples", "-i", "--json"]) == \
        run(["orbit", "p1", "--samples=-i", "--json"])
    assert run(["age", "--order", "3", "--exponents", "-1,2"]) == \
        run(["age", "--order", "3", "--exponents=-1,2"])
    code, out, err = run(["check-orbifold", "p1xp1", "--coeffs", "1", "-1/2"])
    assert code in (0, 1) and err == "" and out.startswith("check-orbifold: ")
    # an unknown option is still a usage error
    with pytest.raises(SystemExit):
        run(["orbit", "p1", "--samples", "i", "-x"])


def test_dual_names_a_listed_point_that_is_not_a_vertex(tmp_path):
    square = json.loads(fixture_text("square"))
    square["vertices"].append([0, 0])
    assert run(["dual", write_doc(tmp_path, square)]) == \
        (2, "", "invalid input at $.vertices: listed point (0, 0) is not a vertex\n")


def test_fixture_name_resolution_and_invalid_inputs(tmp_path):
    assert run(["dual", "p11226.json"])[0] == 0
    code, _, err = run(["dual", "no_such_fixture"])
    assert code == 2 and "no_such_fixture" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert run(["check-hs", str(garbled)])[0] == 2

    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text(fixture_text("p11226"))
    code, _, err = run(["check-pmhs", str(wrong_kind)])
    assert code == 2


def test_timing_flag_adds_milliseconds_in_json_mode():
    code, out, _ = run(["check-hs", "torus_h1", "--json", "--timing"])
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["timing"], (int, float)) and doc["timing"] >= 0


def test_json_reports_are_byte_identical_across_runs():
    for argv in (["check-pmhs", "p1", "--json"],
                 ["hlc", "p11133", "--json"],
                 ["check-orbifold", "p2", "--json"]):
        a = run(argv)
        b = run(argv)
        assert a == b


GOLDEN = Path(__file__).parent / "golden"


def test_json_output_matches_the_golden_files():
    # tests/golden/index.json lists fixture commands, in --json and in text
    # mode, with the exit code and the stdout bytes recorded from an earlier
    # implementation; an argument naming a file in tests/golden/ (the
    # failing orbifold documents) is read from there
    for case in json.loads((GOLDEN / "index.json").read_text()):
        argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in case["argv"]]
        code, out, _ = run(argv)
        assert (code, out) == (case["exit"], (GOLDEN / case["stdout"]).read_text()), case["argv"]


def write_doc(directory, doc) -> str:
    path = Path(directory) / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def torus_with_form(gram, sign, weight=1):
    doc = json.loads(fixture_text("torus_h1"))
    doc["weight"] = weight
    doc["form"] = {"gram": gram, "symmetry_sign": sign}
    return doc


def p1_with_weight(weight):
    doc = json.loads(fixture_text("p1"))
    doc["weight"] = weight
    return doc


def test_form_sign_against_the_weight_and_negative_weights(tmp_path):
    # a symmetric form on a weight-one structure is invalid input, not a failure
    bad_sign = torus_with_form([[1, 0], [0, 1]], 1)
    code, out, err = run(["check-hs", write_doc(tmp_path, bad_sign)])
    assert (code, out) == (2, "")
    assert err.startswith("invalid input at $.form.symmetry_sign: ")

    # weight -3 asks for N^-2 = 0; like weight -1 (N^0 = I) that is a failure
    code, out, err = run(["check-pmhs", write_doc(tmp_path, p1_with_weight(-3)), "--json"])
    assert (code, err) == (1, "")
    assert {"check_id": "n_power_vanishes", "status": "fail",
            "witness": {"power": -2}} in json.loads(out)["items"]


# Kummer is left out of the fuzzing: one run takes seconds.
FUZZ_FIXTURES = ("torus_h1", "p1", "p1_negQ", "p2", "p1xp1")
FUZZ_GRAMS = ([[0, 1], [-1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]])
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
AGES = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])


def gauss_text(z: GaussRational) -> str:
    return f"{z.re}{'-' if z.im < 0 else '+'}{abs(z.im)}i"


def model_sector_json(sector_id, age, partner, dim, classes) -> dict:
    """A P^dim-model sector: one line in each even degree, pairings and
    Kaehler actions 1."""
    return {"id": sector_id, "age": encode_rational(age), "partner": partner, "dim": dim,
            "cohomology": [{"degree": 2 * j, "pieces": [{"p": j, "q": j, "basis": [[1]]}]}
                           for j in range(dim + 1)],
            "pairing": [{"degree": 2 * j, "matrix": [[1]]} for j in range(dim + 1)],
            "kaehler_actions": [[{"degree": 2 * j, "matrix": [[1]]} for j in range(dim)]
                                for _ in range(classes)]}


@st.composite
def cli_cases(draw):
    """(argv without the input path, schema-valid document) from a shipped
    fixture with its weight, form sign, sectors, samples or coefficients
    changed."""
    name = draw(st.sampled_from(FUZZ_FIXTURES))
    doc = json.loads(fixture_text(name))
    gauss = st.builds(GaussRational, RATIONALS, RATIONALS)
    if doc["kind"] == "hodge_structure":
        doc = torus_with_form(draw(st.sampled_from(FUZZ_GRAMS)), draw(st.sampled_from([1, -1])),
                              draw(st.one_of(st.just(1), st.integers(-2, 3))))
        return ["check-hs"], doc
    if doc["kind"] == "pmhs":
        doc["weight"] = draw(st.integers(-4, 4))
        r = len(doc["nilpotents"])
        samples = draw(st.lists(st.tuples(*[gauss] * r), max_size=2))
        if samples:
            doc["samples"] = [[encode_scalar(z) for z in sample] for sample in samples]
        return [draw(st.sampled_from(["check-pmhs", "orbit"]))], doc
    r = doc["kaehler_basis_size"]
    ids = [f"t{i}" for i in range(draw(st.integers(0, 2)))]
    for sector_id in ids:
        doc["sectors"].append(model_sector_json(
            sector_id, draw(AGES), draw(st.sampled_from(ids)), draw(st.integers(0, doc["n"])), r))
    if draw(st.booleans()):
        coeffs = draw(st.lists(RATIONALS, min_size=r, max_size=r))
        return ["check-orbifold", "--coeffs", *map(str, coeffs)], doc
    samples = draw(st.lists(st.tuples(*[gauss] * r), min_size=1, max_size=2))
    return ["orbit", "--samples=" + " ".join(",".join(map(gauss_text, z)) for z in samples)], doc


def assert_report_or_invalid_input(code, err, path):
    """Exit 0 or 1 with nothing on stderr, or exit 2 naming where the input
    went wrong: a JSON path ($...) or an option (--...)."""
    if code == 2:
        assert err.startswith(f"invalid input at {path}"), err
    else:
        assert code in (0, 1) and err == "", (code, err)


def run_on_document(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        return run([argv[0], write_doc(tmp, doc), *argv[1:]])


@settings(max_examples=100, deadline=None)
@example(case=(["check-hs"], torus_with_form([[1, 0], [0, 1]], 1)))
@example(case=(["check-pmhs"], p1_with_weight(-3)))
@given(case=cli_cases())
def test_fuzzed_documents_end_in_a_report_or_invalid_input(case):
    code, _, err = run_on_document(*case)
    assert_report_or_invalid_input(code, err, "$")


CUBE = {"kind": "polytope", "dim": 3,
        "vertices": [list(v) for v in itertools.product((-1, 1), repeat=3)]}


@st.composite
def polytope_cases(draw):
    """The square or the 3-cube with one or two vertices added, dropped,
    duplicated or moved, or its dim changed; at most 8 vertices, dim <= 3."""
    doc = draw(st.sampled_from([json.loads(fixture_text("square")), CUBE]))
    dim, verts = doc["dim"], [list(v) for v in doc["vertices"]]
    for mutation in draw(st.lists(st.sampled_from(["add", "drop", "duplicate", "move", "dim"]),
                                  min_size=1, max_size=2)):
        if mutation == "add" and len(verts) < 8:
            verts.append(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        elif mutation == "duplicate" and len(verts) < 8:
            verts.append(list(draw(st.sampled_from(verts))))
        elif mutation == "drop":
            verts.pop(draw(st.integers(0, len(verts) - 1)))
        elif mutation == "move":
            v = draw(st.sampled_from(verts))
            v[draw(st.integers(0, len(v) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
        elif mutation == "dim":
            dim = draw(st.integers(0, 3))
    return [draw(st.sampled_from(["dual", "hlc"]))], {"kind": "polytope", "dim": dim,
                                                       "vertices": verts}


@settings(max_examples=100, deadline=None)
@given(case=polytope_cases())
def test_fuzzed_polytopes_end_in_a_report_or_invalid_input(case):
    code, _, err = run_on_document(*case)
    assert_report_or_invalid_input(code, err, "$")


@settings(max_examples=100, deadline=None)
@given(order=st.integers(-2, 6), exponents=st.lists(st.integers(-2, 8), max_size=4))
def test_fuzzed_age_arguments_end_in_a_report_or_invalid_input(order, exponents):
    code, _, err = run(["age", f"--order={order}",
                        "--exponents", ",".join(map(str, exponents))])
    assert_report_or_invalid_input(code, err, "--")
