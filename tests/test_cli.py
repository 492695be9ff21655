"""Command-line harness: exit codes, report shapes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from slogcensus.cli import main

_CLI = [sys.executable, "-m", "slogcensus.cli"]


def _run(*args):
    return subprocess.run(_CLI + list(args), capture_output=True, text=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory, abel):
    root = tmp_path_factory.mktemp("cli")
    docs = {
        "circle_line.json": {
            "vars": ["x1", "x2"],
            "equations": ["x1*x1 + x2*x2 - 1", "x1 - x2"],
            "radius": 2.0,
        },
        "lonely_square.json": {"vars": 1, "equations": ["x1*x1"],
                               "radius": 1.0},
        "phi_level.json": {"vars": 1, "equations": ["phi(x1) - 0.5"]},
        "const_path.json": {"breakpoints": [0.0, 1.0], "steps": 6},
        "gate_9_path.json": {"breakpoints": [0.0, 1.0], "steps": 4},
        "circle_formula.json": {
            "vars": 2,
            "dnf": [[{"term": "x1*x1 + x2*x2 - 1", "rel": "="}]],
            "radius": 2.0,
        },
        "broken.json": {"vars": 2, "equations": ["x1 + * x2", "x1"]},
        "number_equation.json": {"vars": 1, "equations": [5]},
        "text_radius.json": {"vars": 1, "equations": ["x1"], "radius": "abc"},
        "string_radius.json": {"vars": 1, "equations": ["x1"], "radius": "2"},
        "bool_radius.json": {"vars": 1, "equations": ["x1"], "radius": True},
        "huge_radius.json": {"vars": 1, "equations": ["x1"],
                             "radius": 10 ** 400},
        "bool_vars.json": {"vars": True, "equations": ["x1"], "radius": 2.0},
        "zero_vars.json": {"vars": 0, "equations": [], "radius": 2.0},
        "float_vars.json": {"vars": 1.0, "equations": ["x1"], "radius": 2.0},
        "string_radius_formula.json": {
            "vars": 1, "dnf": [[{"term": "x1", "rel": "="}]], "radius": "2"},
        "bool_vars_formula.json": {
            "vars": True, "dnf": [[{"term": "x1", "rel": "="}]],
            "radius": 2.0},
        "text_param.json": {"vars": 1, "equations": ["x1 - l0"],
                            "params": {"l": ["q", 0]}},
        "array.json": [{"vars": 1, "equations": ["x1"]}],
        "deep.json": {"vars": 1, "equations": ["(" * 3000 + "x1" + ")" * 3000]},
        "line.json": {"vars": 1, "equations": ["x1 - 0.5"], "radius": 2.0},
        "huge_constant.json": {"vars": 1, "equations": ["1e999*x1 - 1"],
                               "radius": 2.0},
        "nan_target_path.json": {"breakpoints": [0.0, 1.0],
                                 "targets": [[math.nan], [0.0]]},
        "text_steps_path.json": {"breakpoints": [0.0, 1.0], "steps": "x"},
        "ragged_path.json": {"breakpoints": [0.0, 1.0],
                             "targets": [[0.0], [0.5, 1.0]]},
        "array_formula.json": [],
        "text_coeffs_seed.json": {"format_version": 1, "order": 3,
                                  "tol": 1e-8,
                                  "coeffs": ["a", 0, 0, 0, 0, 0, 0]},
        "number_coeffs_seed.json": {"format_version": 1, "order": 3,
                                    "tol": 1e-8, "coeffs": 5},
        "huge_coeffs_seed.json": {"format_version": 1, "order": 3,
                                  "tol": 1e-8, "coeffs": [1e308] * 7},
        "inf_coeffs_seed.json": {"format_version": 1, "order": 3,
                                 "tol": 1e-8, "coeffs": [math.inf] * 7},
        "seed.json": json.loads(abel.to_json()),
        "nan_radius.json": {"vars": 1, "equations": ["x1"],
                            "radius": math.nan},
        "text_params.json": {"vars": 1, "equations": ["x1 - l0"],
                             "params": {"l": ["0.5", True], "eps": [False],
                                        "delta": "0.1"}},
        "numeric_text_param.json": {"vars": 1, "equations": ["x1 - l0"],
                                    "params": {"l": ["0.5", 0]}},
        "text_numbers_path.json": {"breakpoints": ["0", "1"],
                                   "targets": [["0"], [True]], "steps": 2.9},
        "fraction_steps_path.json": {"breakpoints": [0, 1], "steps": 2.9},
        "numeric_text_steps_path.json": {"breakpoints": [0, 1],
                                         "steps": "3"},
        "nan_breakpoint_path.json": {"breakpoints": [0, math.nan, 1]},
        "number_params_path.json": {"breakpoints": [0, 1], "params": 5},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    # texts that json.dumps does not write: a radius of 5 000 digits,
    # arrays nested 100 000 and 900 deep, bytes that are not UTF-8
    (root / "long_radius.json").write_text(
        '{"vars": 1, "equations": ["x1"], "radius": ' + "1" * 5000 + "}")
    (root / "deep_array.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "deep_rel_formula.json").write_text(
        '{"vars": 1, "radius": 2, "dnf": [[{"term": "x1", "rel": '
        + "[" * 900 + "]" * 900 + "}]]}")
    (root / "latin1.json").write_bytes(
        b'{"vars": 1, "equations": ["x1 - \xe9"]}')
    return root


# ---------------------------------------------------------------------------
# slog-check

def test_slog_check_passes(files):
    out = files / "check.json"
    r = _run("slog-check", "--out", str(out))
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln]
    assert len(lines) == 9
    assert all(ln.startswith("PASS") for ln in lines)
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert len(doc["checks"]) == 9


def _modules(code, package="scipy", blocked=False):
    # (what a fresh interpreter prints running code, the modules of
    # package it has loaded after); a blocked package raises on import
    block = f"import sys\nsys.modules[{package!r}] = None\n" if blocked else ""
    out = subprocess.run(
        [sys.executable, "-c", block + code + "\nimport sys\nprint(sorted("
         f"m for m, v in sys.modules.items() if v is not None and "
         f"m.split('.')[0] == {package!r}))"],
        capture_output=True, text=True, check=True)
    printed, _, loaded = out.stdout.rstrip("\n").rpartition("\n")
    return printed, loaded


def test_slog_check_and_the_inverse_load_no_scipy(files):
    out = files / "check-no-scipy.json"
    assert _modules(
        "from slogcensus.cli import main\n"
        f"assert main(['slog-check', '--out', {str(out)!r}]) == 0")[1] == "[]"
    assert _modules(
        "from slogcensus.abel import get_default_abel\n"
        "get_default_abel().trans_exp(0.5)")[1] == "[]"


def test_zeros_track_and_phi_free_eval_run_without_numpy(files):
    # gate 9's zeros and track and a phi-free eval print the same bytes
    # with numpy unimportable; a phi system still loads it and runs
    system = str(files / "circle_line.json")
    commands = [
        ["zeros", system, "--seed", "5"],
        ["track", system, str(files / "gate_9_path.json"), "--seed", "5"],
        ["eval", "exp(x1)*x2 + x1", "--at", "1,2", "--grad"]]
    for argv in commands:
        code = f"from slogcensus.cli import main\nassert main({argv!r}) == 0"
        printed, loaded = _modules("import slogcensus\n" + code, "numpy",
                                   blocked=True)
        assert loaded == "[]"
        assert printed == _modules(code, "numpy")[0]
    printed, loaded = _modules(
        "from slogcensus.cli import main\n"
        f"assert main(['zeros', {str(files / 'phi_level.json')!r}]) == 0",
        "numpy")
    assert json.loads(printed)["report"]["certified_count"] == 1
    assert "numpy" in loaded


def test_slog_check_rejects_corrupt_seed(files, abel):
    doc = json.loads(abel.to_json())
    doc["coeffs"][2] += 1e-3
    bad = files / "bad_seed.json"
    bad.write_text(json.dumps(doc))
    r = _run("slog-check", "--abel", str(bad))
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_slog_check_accepts_saved_seed(files, abel):
    good = files / "good_seed.json"
    abel.save(str(good))
    r = _run("slog-check", "--abel", str(good))
    assert r.returncode == 0


# ---------------------------------------------------------------------------
# eval

def test_eval_value_and_gradient():
    r = _run("eval", "x1*x1 + x2", "--at", "2,3", "--grad")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == 7.0
    assert doc["gradient"] == [4.0, 1.0]


def test_eval_saturates_exp_overflow():
    # exp overflows above ln(max double) ~ 709.7827; 709.79 used to raise
    r = _run("eval", "exp(x1)", "--at", "709.79", "--grad")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["value"] == doc["gradient"][0] == float("inf")


def test_eval_syntax_error():
    r = _run("eval", "x1 + * x2", "--at", "1,2")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_eval_short_point():
    r = _run("eval", "x1 + x2", "--at", "1")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# zeros

def test_zeros_certified(files):
    r = _run("zeros", str(files / "circle_line.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["certified_count"] == 2
    assert doc["radius_source"] == "file"
    assert doc["config"] == {"seed": 0}


def test_threads_flag_removed(files):
    r = _run("zeros", str(files / "circle_line.json"), "--threads", "1")
    assert r.returncode == 2
    assert "unrecognized arguments: --threads" in r.stderr


@pytest.mark.parametrize("argv, flag", [
    (["slog-check", "--depth", "3"], "--depth 3"),
    (["slog-check", "--seed", "1"], "--seed 1"),
    (["eval", "x1", "--at", "1", "--radius", "2"], "--radius 2"),
])
def test_flags_a_subcommand_does_not_read_are_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_order_beside_a_seed_file_is_refused(files, capsys):
    # a seed file has its own order, so --order would go unread
    argv = ["slog-check", "--abel", str(files / "seed.json"), "--order", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --order") and len(err.splitlines()) == 1


def test_zeros_radius_flag_overrides(files):
    r = _run("zeros", str(files / "circle_line.json"), "--radius", "3.0")
    doc = json.loads(r.stdout)
    assert doc["radius"] == 3.0
    assert doc["radius_source"] == "flag"


def test_zeros_growth_radius(files):
    r = _run("zeros", str(files / "phi_level.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["radius_source"] == "growth"
    assert doc["report"]["certified_count"] == 1


def test_zeros_singular_exits_three(files):
    r = _run("zeros", str(files / "lonely_square.json"))
    assert r.returncode == 3
    doc = json.loads(r.stdout)
    assert doc["report"]["certified_count"] == 0
    assert doc["report"]["unknown_boxes"]


def test_zeros_missing_file():
    r = _run("zeros", "/nonexistent/system.json")
    assert r.returncode == 2


def test_zeros_bad_term(files):
    r = _run("zeros", str(files / "broken.json"))
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# track

def test_track_constant(files):
    r = _run("track", str(files / "circle_line.json"),
             str(files / "const_path.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["verdict"] == "constant"
    assert doc["steps"] == 6


def test_track_steps_flag(files):
    r = _run("track", str(files / "circle_line.json"),
             str(files / "const_path.json"), "--steps", "4")
    doc = json.loads(r.stdout)
    assert doc["steps"] == 4
    assert len(doc["report"]["counts"]) == 5


# ---------------------------------------------------------------------------
# malformed input: a clean error and exit code 2, never a traceback

@pytest.mark.parametrize("argv", [
    ["eval", "x1", "--at", "a"],
    ["eval", "(" * 3000 + "x1" + ")" * 3000, "--at", "1"],
    ["eval", "1e999*x1", "--at", "1"],
    ["zeros", "number_equation.json"],
    ["zeros", "text_radius.json"],
    ["zeros", "text_param.json"],
    ["zeros", "array.json"],
    ["zeros", "deep.json"],
    ["zeros", "huge_constant.json"],
    ["track", "line.json", "text_steps_path.json"],
    ["track", "line.json", "ragged_path.json"],
    ["track", "line.json", "nan_target_path.json"],
    ["components", "array_formula.json", "--radius", "2"],
    ["slog-check", "--abel", "text_coeffs_seed.json"],
    ["eval", "x1", "--at", "1", "--abel", "number_coeffs_seed.json"],
    ["slog-check", "--abel", "huge_coeffs_seed.json"],
    ["eval", "x1", "--at", "1", "--abel", "huge_coeffs_seed.json"],
    ["zeros", "circle_line.json", "--depth", "-1"],
    ["track", "circle_line.json", "const_path.json", "--depth", "-1"],
    ["components", "circle_formula.json", "--depth", "-1"],
    ["gamma", "circle_formula.json", "--trials", "1", "--depth", "-1"],
    ["eval", "x1", "--at", "nan"],
    ["eval", "x1", "--at", "inf"],
    ["eval", "x1 + x2", "--at", "1,-inf"],
    ["eval", "x1", "--at", "1e999"],
    ["zeros", "string_radius.json"],
    ["zeros", "bool_radius.json"],
    ["zeros", "huge_radius.json"],
    ["zeros", "bool_vars.json"],
    ["zeros", "zero_vars.json"],
    ["zeros", "float_vars.json"],
    ["track", "string_radius.json", "const_path.json"],
    ["components", "string_radius_formula.json"],
    ["gamma", "bool_vars_formula.json", "--trials", "1"],
    ["zeros", "long_radius.json"],
    ["zeros", "deep_array.json"],
    ["components", "deep_array.json", "--radius", "2"],
    ["eval", "x1", "--at", "1", "--abel", "deep_array.json"],
    ["track", "line.json", "deep_array.json"],
    ["track", "line.json", "text_numbers_path.json"],
    ["track", "line.json", "fraction_steps_path.json"],
    ["track", "line.json", "numeric_text_steps_path.json"],
    ["zeros", "text_params.json"],
    ["zeros", "numeric_text_param.json"],
    ["track", "line.json", "nan_breakpoint_path.json"],
    ["track", "line.json", "number_params_path.json"],
    ["zeros", "nan_radius.json"],
    ["slog-check", "--abel", "inf_coeffs_seed.json"],
    ["zeros", "latin1.json"],
    ["slog-check", "--tol", "inf"],
    ["slog-check", "--abel", "seed.json", "--tol", "inf"],
    ["components", "deep_rel_formula.json"],
], ids=["eval-at-text", "eval-deep", "eval-overflow", "equation-number",
        "radius-text", "param-text", "system-array", "system-deep",
        "equation-overflow", "path-steps-text", "path-ragged",
        "path-nan-target", "formula-array", "seed-coeffs-text",
        "seed-coeffs-number", "seed-coeffs-huge-check",
        "seed-coeffs-huge-eval", "zeros-depth-negative", "track-depth-negative",
        "components-depth-negative", "gamma-depth-negative",
        "eval-at-nan", "eval-at-inf", "eval-at-minus-inf", "eval-at-1e999",
        "radius-string", "radius-bool", "radius-huge-int", "vars-bool",
        "vars-zero", "vars-float", "track-radius-string",
        "components-radius-string", "gamma-vars-bool", "radius-5000-digits",
        "system-deep-array", "formula-deep-array", "seed-deep-array",
        "path-deep-array", "path-text-numbers", "path-steps-fraction",
        "path-steps-numeric-text", "params-text", "params-numeric-text",
        "path-nan-breakpoint", "path-params-number", "radius-nan-literal",
        "seed-coeffs-infinity-literal", "system-not-utf8", "check-tol-inf",
        "check-seed-tol-inf", "formula-deep-relation"])
def test_malformed_input_exits_two(files, argv):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    r = _run(*argv)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
    # the error names what is wrong; it does not echo the input back
    assert len(r.stderr) <= 200, r.stderr[:300]


# ---------------------------------------------------------------------------
# components and gamma

def test_components_circle(files):
    r = _run("components", str(files / "circle_formula.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["component_bound"] == 2
    assert doc["report"]["critical_count"] == 4
    assert doc["report"]["oracle_components"] == 1


def test_gamma_small(files):
    r = _run("gamma", str(files / "circle_formula.json"),
             "--trials", "2", "--seed", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["estimate"] == 1
    assert doc["trials"] == 2
    assert doc["config"] == {"seed": 3}


def test_depth_flag_reaches_the_census(files):
    formula = str(files / "circle_formula.json")
    assert _run("components", formula, "--depth", "2").returncode == 3
    r = _run("gamma", formula, "--trials", "1", "--depth", "2")
    assert r.returncode == 3
    assert "no Morse rotation found" in r.stderr


# ---------------------------------------------------------------------------
# determinism and version

def test_zeros_byte_identical(files):
    a = files / "za.json"
    b = files / "zb.json"
    ra = _run("zeros", str(files / "circle_line.json"), "--out", str(a))
    rb = _run("zeros", str(files / "circle_line.json"), "--out", str(b))
    assert ra.returncode == rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert ra.stdout == rb.stdout


def test_version_flag():
    r = _run("--version")
    assert r.returncode == 0
    assert r.stdout.strip()
