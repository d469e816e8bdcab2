"""Command-line front end: exit codes, deterministic output, fixture
resolution, and the documented example invocations."""

import contextlib
import io
import json
from pathlib import Path

from orbhodge import cli
from orbhodge.fixture_store import fixture_text


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
    # tests/golden/index.json lists every fixture command with the exit code
    # and the --json bytes recorded from the earlier implementation, which
    # eliminated on GaussRational scalars; the integer core must match them
    for case in json.loads((GOLDEN / "index.json").read_text()):
        code, out, _ = run(case["argv"])
        assert (code, out) == (case["exit"], (GOLDEN / case["stdout"]).read_text()), case["argv"]
