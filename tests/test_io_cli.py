"""JSON domain descriptions, the command line, SVG output, suite reports."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import hilbertgeo
from hilbertgeo import Cone, domain_to_dict, parse_domain
from hilbertgeo.cli import main
from hilbertgeo.errors import ParseError, ValidationError
from hilbertgeo.suites import SUITES, run_known_values

SQUARE_JSON = json.dumps({"kind": "polytope",
                          "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]})


def test_parse_polytope_and_roundtrip():
    dom = parse_domain(SQUARE_JSON)
    assert dom.kind == "polytope"
    assert len(dom.vertices) == 4
    again = parse_domain(json.dumps(domain_to_dict(dom)))
    assert np.allclose(again.vertices, dom.vertices)


def test_parse_other_kinds():
    disk = parse_domain('{"kind": "ellipsoid", "center": [0, 0], '
                        '"shape": [[1, 0], [0, 1]]}')
    assert disk.kind == "ellipsoid"
    s2 = parse_domain('{"kind": "simplex", "n": 2}')
    assert s2.intrinsic_dim == 2
    cone = parse_domain('{"kind": "cone", '
                        '"generators": [[1,0,0],[0,1,0],[0,0,1]]}')
    assert isinstance(cone, Cone)
    lor = parse_domain('{"kind": "lorentz", "n": 3}')
    assert lor.kind == "lorentz"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_domain('{"kind": "polytope",\n "vertices": [[0,0,]]}')
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_validation_errors_name_the_invariant():
    with pytest.raises(ValidationError) as exc:
        parse_domain('{"kind": "torus"}')
    assert exc.value.invariant == "known-kind"
    with pytest.raises(ValidationError) as exc:
        parse_domain('{"kind": "polytope", "vertices": "zig"}')
    assert exc.value.invariant == "vertex-array"
    with pytest.raises(ValidationError) as exc:
        parse_domain('{"kind": "simplex", "n": "two"}')
    assert exc.value.invariant == "dimension-int"
    with pytest.raises(ValidationError) as exc:
        parse_domain('{"kind": "polytope", "vertices": [[0,0],[1,1]]}')
    assert exc.value.invariant == "polytope-build"
    with pytest.raises(ValidationError):
        parse_domain('[1, 2, 3]')


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    return str(path)


def test_cli_distance(square_file, capsys):
    code = main(["distance", "--domain", square_file,
                 "--x=-0.5,0", "--y=0.5,0"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.log(9.0)) < 1e-11
    assert len(out) <= 18  # 12 significant digits


def test_cli_distance_on_a_cone(tmp_path, capsys):
    path = tmp_path / "orthant.json"
    path.write_text('{"kind": "cone", '
                    '"generators": [[1,0,0],[0,1,0],[0,0,1]]}')
    code = main(["distance", "--domain", str(path),
                 "--x", "2,1,1", "--y", "1,1,1"])
    assert code == 0
    assert abs(float(capsys.readouterr().out) - math.log(2.0)) < 1e-11


def test_cli_rigid(square_file, capsys):
    code = main(["rigid", "--domain", square_file,
                 "--x=-0.5,0", "--y=0.5,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "non-rigid"
    payload = json.loads(lines[1])
    assert payload["rigid"] is False
    assert payload["additivity_gap"] <= 1e-7
    code = main(["rigid", "--domain", square_file,
                 "--x=-0.5,-0.5", "--y=0.5,0.5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "rigid"


def test_cli_classify(square_file, tmp_path, capsys):
    other = tmp_path / "quad.json"
    other.write_text(json.dumps({
        "kind": "polytope",
        "vertices": [[0, 0], [3, 0], [2.5, 2], [-0.5, 1.5]]}))
    code = main(["classify", "--a", square_file, "--b", str(other)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "projectively-equivalent"
    assert payload["max_deviation"] < 1e-7
    assert "witness_matrix" in payload


def test_cli_check_pass_and_fail_exit_codes(capsys):
    code = main(["check", "asymptotics", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["experiment"] == "asymptotics"
    assert payload["parameters"]["seed"] == 1
    code = main(["check", "no-such-suite"])
    assert code == 1
    assert "unknown suite" in capsys.readouterr().err


def test_cli_errors_exit_one(square_file, capsys):
    code = main(["distance", "--domain", square_file,
                 "--x", "1.5,0", "--y", "0,0"])  # outside
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["distance", "--domain", "/no/such/file.json",
                 "--x", "0,0", "--y", "0,0"])
    assert code == 1
    code = main(["distance", "--domain", square_file,
                 "--x", "zig,0", "--y", "0,0"])
    assert code == 1


def test_cli_render_rejects_malformed_chord(square_file, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code = main(["render", "--domain", square_file, "--out", str(out),
                 "--chord", "0,0"])
    assert code == 1
    assert "semicolon" in capsys.readouterr().err


def test_cli_render_writes_parseable_svg(square_file, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code = main(["render", "--domain", square_file, "--out", str(out),
                 "--ball", "0,0,0.8", "--chord=-0.5,0;0.5,0"])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    tags = [child.tag.split("}")[-1] for child in root]
    assert "polygon" in tags
    assert "line" in tags


def test_cli_render_rejects_non_finite_radius(square_file, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code = main(["render", "--domain", square_file, "--out", str(out),
                 "--ball", "0,0,nan"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_console_script_entry_point(square_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hilbertgeo.cli", "distance",
         "--domain", square_file, "--x=-0.5,0", "--y=0.5,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert abs(float(proc.stdout) - math.log(9.0)) < 1e-11


def test_plane_commands_do_not_load_scipy(square_file, tmp_path):
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({
        "kind": "polytope",
        "vertices": [[0, 0], [3, 0], [2.5, 2], [-0.5, 1.5]]}))
    svg = tmp_path / "square.svg"
    commands = [
        ["distance", "--domain", square_file, "--x=-0.5,0", "--y=0.5,0.1"],
        ["rigid", "--domain", square_file, "--x=-0.5,0", "--y=0.5,0"],
        ["classify", "--a", square_file, "--b", str(quad)],
        ["render", "--domain", square_file, "--out", str(svg),
         "--ball", "0,0,0.5", "--chord=-0.5,0;0.5,0.2"],
        ["check", "plane-classifier"],
    ]
    code = ("import contextlib, io, json, sys\n"
            "from hilbertgeo.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(json.dumps([m for m in sys.modules"
            " if m.split('.')[0] == 'scipy']))\n")
    src = os.path.dirname(os.path.dirname(hilbertgeo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert json.loads(out) == []


def test_suite_reports_are_deterministic_and_json_safe():
    a = SUITES["reciprocal"](seed=3, samples=40)
    b = SUITES["reciprocal"](seed=3, samples=40)
    assert json.dumps(a) == json.dumps(b)
    parsed = json.loads(json.dumps(a))
    assert set(parsed) == {"experiment", "parameters", "pass", "metrics"}
    assert set(parsed["parameters"]) == {"seed", "samples", "tolerances"}


def test_known_values_report():
    rep = run_known_values()
    assert rep["pass"] is True
    assert rep["metrics"]["max_gap"] <= 1e-12
