import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import germ
from germ.cli import SessionError, execute, main, parse_session

RICH = (
    "# comment lines and blanks are skipped\n"
    "\n"
    "field Q\n"
    "jet 4\n"
    "source vars: x ideal: ()\n"
    "target vars: u ideal: ()\n"
    "filtration M = madic\n"
    "filtration Ch = chain[(x);(x^2)]\n"
    "map f = (x^2)\n"
    "map g = (2*x^2)\n"
    "aut P = (x+x^2)\n"
    "aut LP = (u+u^2)\n"
    "contact Ct = (u+x*u)\n"
    "vf xi = x^2 d/dx\n"
)

Q4 = (
    "field Q\n"
    "jet 4\n"
    "source vars: x ideal: ()\n"
    "target vars: u ideal: ()\n"
    "map f = (x^2)\n"
    "map ft = (x^2+2*x^3+x^4)\n"
    "map bad = (2*x^2)\n"
)

F3S = (
    "field F3\n"
    "jet 2\n"
    "source vars: x ideal: ()\n"
    "target vars: u ideal: ()\n"
    "map f = (x^2)\n"
    "map g = (2*x^2)\n"
)

F5S = (
    "field F5\n"
    "jet 2\n"
    "source vars: x ideal: ()\n"
    "target vars: u ideal: ()\n"
    "map f = (x^2)\n"
    "map g = (2*x^2)\n"
    "map h = (x^2+x)\n"
)

# compiled-system files for `solve -`: the R system of F3S (f, g) and of
# F5S (f, g), and two equations whose roots lie in F9 and in F27 only
SYS_F3 = '{"unknowns": ["a1", "a2", "z"], "equations": ["2*a1^2+2", "a1*z+2"]}'
SYS_F5 = '{"unknowns": ["a1", "a2", "z"], "equations": ["2*a1^2+4", "a1*z+4"]}'
ROOTS_F3 = ('{"unknowns": ["r", "w"], '
            '"equations": ["r^2+2*r+2", "w^3+2*w+2", "r*w+w+1"]}')
QUAD_F3 = '{"unknowns": ["r"], "equations": ["r^2+2*r+2"]}'
CUBIC_F3 = '{"unknowns": ["w"], "equations": ["w^3+2*w+2"]}'

# two variables over Q at jet 3: a singular target (the axes uv = 0) and a
# smooth one
SING = (
    "field Q\n"
    "jet 3\n"
    "source vars: x y ideal: ()\n"
    "target vars: u v ideal: (u*v)\n"
    "map f = (x^2, 0)\n"
    "map g = (x^2+x^3, 0)\n"
)

# SING with a target change, a source change and a contact element, each
# keeping the ideal (u*v), for `log` on the singular target
SING_LOG = SING + (
    "aut A = (u+u^3, v+u*v^2)\n"
    "aut P = (x+y^2, y+x*y)\n"
    "contact Ct = (u+x^2*u+u^3, v+x*v+v^2)\n"
)

SMOOTH2 = (
    "field Q\n"
    "jet 3\n"
    "source vars: x y ideal: ()\n"
    "target vars: u v ideal: ()\n"
    "map f = (x^2, y^2)\n"
    "map g = (x^2+x*y^2, y^2+x^3)\n"
)


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, text in [("rich", RICH), ("q4", Q4), ("f3", F3S)]:
        p = base / f"{name}.germ"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(base)
    return paths


def test_session_parse_and_name_lookup():
    sess = parse_session(
        "field Q\n"
        "jet 3\n"
        "source vars: x ideal: ()\n"
        "target vars: u ideal: ()\n"
        "map f = (x^2)\n"
    )
    assert sess.order == 3
    assert sess.source.xvars == ("x",)
    assert sorted(sess.maps) == ["f"]


def test_unbalanced_parenthesis_reports_the_line():
    with pytest.raises(SessionError) as exc:
        parse_session("map f = (x^2")
    assert "unbalanced parenthesis" in str(exc.value)
    assert exc.value.line == 1


def test_reducible_modulus_reports_the_line():
    with pytest.raises(SessionError) as exc:
        parse_session("field F3[b]/(b^2-1)\n")
    assert "reducible" in str(exc.value)
    assert exc.value.line == 1


def test_prime_field_above_the_limit_reports_the_line(tmp_path):
    text = "# 10^30 + 57 is prime\nfield F1000000000000000000000000000057\n"
    with pytest.raises(SessionError) as exc:
        parse_session(text)
    assert "3.3e24" in str(exc.value)
    assert exc.value.line == 2
    path = tmp_path / "big.germ"
    path.write_text(text)
    rep, code = execute(["session", str(path)])
    assert code == 1 and not rep["ok"] and rep["line"] == 2


def test_a_source_change_with_a_parameter_only_term_reports_the_line(tmp_path):
    path = tmp_path / "family.germ"
    path.write_text("field Q\n"
                    "jet 3\n"
                    "tjet 2 vars: t\n"
                    "source vars: x ideal: ()\n"
                    "target vars: u ideal: ()\n"
                    "map f = (x^2)\n"
                    "aut P = (x+t)\n")
    rep, code = execute(["act", "--session", str(path), "--group", "R", "--elem", "P",
                         "--map", "f"])
    assert code == 1 and not rep["ok"] and rep["line"] == 7
    assert "parameter-only term" in rep["error"]


@pytest.mark.parametrize("text, line, column, error", [
    ("# a syntax error in the minimal polynomial\nfield Q\nextend a^^2-2\n", 3, 3,
     "line 1, col 3: exponent must be a non-negative integer"),
    ("field Q\nextend a/0\n", 2, 2,
     "line 1, col 2: division not available here: inverse of zero"),
    ("\nfield F3[b]/(b^^2+1)\n", 2, 3,
     "line 1, col 3: exponent must be a non-negative integer"),
], ids=["extend-syntax", "extend-divide-by-zero", "field-syntax"])
def test_expression_errors_in_field_lines_report_the_session_line(tmp_path, text, line,
                                                                  column, error):
    path = tmp_path / "bad.germ"
    path.write_text(text + "jet 2\nsource vars: x\ntarget vars: u\n")
    rep, code = execute(["session", str(path)])
    assert code == 1 and not rep["ok"]
    assert (rep["line"], rep["column"], rep["error"]) == (line, column, error)


def test_canonical_form_is_a_parse_fixed_point():
    rich = parse_session(RICH)
    canon = rich.canonical()
    assert parse_session(canon).canonical() == canon
    assert "filtration Ch = chain[(x);(x^2)]" in canon
    assert "aut LP = (u+u^2)" in canon
    assert "vf xi = x^2 d/dx" in canon
    assert rich.aut_sides == {"P": "source", "LP": "target"}


def test_act_is_deterministic(sessions):
    args = ["act", "--session", sessions["rich"],
            "--group", "R", "--elem", "P", "--map", "f"]
    rep1, code1 = execute(args)
    rep2, code2 = execute(args)
    assert code1 == code2 == 0
    assert rep1["ok"] and rep1["result"]["verified"]
    assert rep1["result"]["text"] == ["x^2+2*x^3+x^4"]
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_session_report_is_reparse_stable(sessions):
    rep, code = execute(["session", sessions["rich"]])
    assert code == 0
    assert rep["result"]["reparse_stable"]
    assert rep["result"]["canonical"] == parse_session(RICH).canonical()


def test_tangent_report(sessions):
    rep, code = execute(["tangent", "--session", sessions["rich"],
                         "--group", "R", "--map", "f", "--level", "1"])
    assert code == 0
    assert rep["result"]["tangent"]["rank"] > 0


def test_exp_then_log_round_trip(sessions, tmp_path):
    rep, code = execute(["exp", "--session", sessions["rich"], "--vf", "xi"])
    assert code == 0
    assert rep["result"]["level"] >= 1
    comps = rep["result"]["automorphism"]["components"]
    chained = tmp_path / "log.germ"
    chained.write_text(RICH + "aut E = (" + ", ".join(comps) + ")\n")
    rep, code = execute(["log", "--session", str(chained),
                         "--group", "R", "--elem", "E"])
    assert code == 0
    rpart = rep["result"]["parts"]["R"]
    assert rpart["vector"]["coefficients"] == ["x^2"]
    assert rpart["level"] >= 1


def test_artin_rees_reports_an_integer_bound(sessions):
    rep, code = execute(["artin-rees", "--session", sessions["rich"],
                         "--group", "R", "--map", "f", "--level", "1"])
    assert code == 0
    assert isinstance(rep["result"]["comparison"]["bound"], int)


def test_descend_success(sessions):
    rep, code = execute(["descend", "--session", sessions["q4"],
                         "--group", "R", "--map", "f", "--map2", "ft",
                         "--level", "1"])
    assert code == 0
    assert rep["result"]["descended"]
    assert rep["result"]["certificate"]["verified"]


def test_descend_obstruction_is_exit_2(sessions):
    rep, code = execute(["descend", "--session", sessions["q4"],
                         "--group", "R", "--map", "f", "--map2", "bad",
                         "--level", "1"])
    assert code == 2
    assert "obstruction" in rep["result"]["reason"]


def test_descend_invalid_witness_is_exit_1(sessions):
    rep, code = execute(["descend", "--session", sessions["q4"],
                         "--group", "R", "--map", "f", "--map2", "bad",
                         "--level", "1", "--witness", "(x+x^2)"])
    assert code == 1
    assert rep["error"] == "witness action mismatch at coefficient x^2"


@pytest.mark.parametrize("field,order,f,ft,extra", [
    # x -> x+x^2 carries x^2 to x^2+x^4 over F2
    ("F2", 4, "x^2", "x^2+x^4", []),
    ("F3", 6, "x^3", "x^3+x^6", ["--ext", "b^2+1", "--witness", "(x+x^2)"]),
], ids=["F2", "F3-ext"])
def test_descend_failure_in_characteristic_p_is_exit_1(tmp_path, field, order, f, ft, extra):
    path = tmp_path / "charp.germ"
    path.write_text(f"field {field}\njet {order}\nsource vars: x ideal: ()\n"
                    f"target vars: u ideal: ()\nmap f = ({f})\nmap ft = ({ft})\n")
    rep, code = execute(["descend", "--session", str(path), "--group", "R",
                         "--map", "f", "--map2", "ft", "--level", "1"] + extra)
    assert code == 1
    assert rep["error"].startswith(f"undecided in characteristic {field[1:]}")
    assert "obstruction" not in rep["error"]


# x -> u over a parameter t: h and g differ from f at t = 0, so no element
# of t-adic level 1 carries f to either; ft is f moved by LP, which is the
# identity at t = 0
TADIC = (
    "field Q\njet 4\ntjet 2 vars: t\nsource vars: x ideal: ()\n"
    "target vars: u ideal: ()\nfiltration T = tadic\n"
    "map f = (x + t*x^2)\nmap h = (x + t*x^2 + x^3)\n"
    "map g = (x+x^2+x^2*t+2*x^3*t+x^4*t^2)\n"
)
TADIC2 = (
    "field Q\njet 4\ntjet 2 vars: t\nsource vars: x y ideal: ()\n"
    "target vars: u v ideal: ()\nfiltration T = tadic\n"
    "map f = (x^2+y^3, x*y)\naut LP = (u+t*u^2+t*v^2, v+t^2*u*v)\n"
)


@pytest.mark.parametrize("other", ["h", "g"])
@pytest.mark.parametrize("group", ["R", "Klin", "L", "LR", "C", "K"])
def test_descend_sees_a_change_at_parameter_zero(tmp_path, group, other):
    # the level-1 t-adic frame must not hold u^2 d/du: its exponential moves
    # the fibre t = 0
    path = tmp_path / "tadic.germ"
    path.write_text(TADIC)
    rep, code = execute(["descend", "--session", str(path), "--group", group, "--map", "f",
                         "--map2", other, "--level", "1", "--filtration", "T"])
    assert code == 2, rep
    assert "obstruction" in rep["result"]["reason"]


@pytest.mark.parametrize("group", ["L", "LR", "C", "K"])
def test_descend_finds_a_target_change_of_parameter_level_one(tmp_path, group):
    path = tmp_path / "tadic2.germ"
    path.write_text(TADIC2)
    rep, code = execute(["act", "--session", str(path), "--group", "L", "--elem", "LP",
                         "--map", "f"])
    assert code == 0
    path.write_text(TADIC2 + "map ft = ({})\n".format(", ".join(rep["result"]["text"])))
    rep, code = execute(["descend", "--session", str(path), "--group", group, "--map", "f",
                         "--map2", "ft", "--level", "1", "--filtration", "T"])
    assert code == 0, rep
    assert rep["result"]["descended"] and rep["result"]["certificate"]["verified"]


def test_orbits_over_a_huge_prime_field_fail_fast(tmp_path):
    # 10^18+3 is prime; q^2-1 keeps a composite cofactor with no factor
    # below the trial-division limit
    path = tmp_path / "huge.germ"
    path.write_text("field F1000000000000000003\njet 2\nsource vars: x ideal: ()\n"
                    "target vars: u ideal: ()\nmap f = (x^2)\n")
    start = time.perf_counter()
    rep, code = execute(["orbits", "--session", str(path), "--group", "R",
                         "--ext", "b^2+1", "--map", "f", "--cap", "5"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "not provably prime" in rep["error"]


@pytest.fixture(scope="module")
def compiled_system(sessions):
    out = sessions["dir"] + "/sys.json"
    rep, code = execute(["system", "--session", sessions["f3"],
                         "--group", "R", "--map", "f", "--map2", "g",
                         "--out", out])
    assert code == 0 and rep["result"]["written"] == out
    return out


def test_solve_without_solutions_is_exit_2(compiled_system):
    rep, code = execute(["solve", compiled_system, "--field", "F3"])
    assert code == 2
    assert rep["result"]["message"] == "no solutions"
    assert rep["result"]["solutions"] == []


def test_solve_over_the_extension_succeeds(compiled_system):
    rep, code = execute(["solve", compiled_system, "--field", "F3",
                         "--ext", "b^2+1"])
    assert code == 0
    assert rep["result"]["count"] >= 1


def test_solve_cap_bounds_the_search(compiled_system):
    # the F9 search space has 9^2 = 81 points
    rep, code = execute(["solve", compiled_system, "--field", "F3",
                         "--ext", "b^2+1", "--cap", "1"])
    assert code == 1
    assert rep["error"] == "search space of size 81 exceeds the cap 1"


@pytest.mark.parametrize("argv,error", [
    (["descend", "--session", "q4", "--group", "R", "--map", "f", "--map2", "ft",
      "--ext", "a^2-1"], "minimal polynomial a^2-1 is reducible"),
    (["orbits", "--session", "f3", "--group", "R", "--map", "f", "--ext", "b^2-1"],
     "minimal polynomial b^2+2 is reducible"),
    (["solve", "sys", "--field", "F4"], "4 is not prime"),
    (["solve", "sys", "--field", "F3", "--ext", "b^2-1"],
     "minimal polynomial b^2+2 is reducible"),
], ids=["descend-ext", "orbits-ext", "solve-field", "solve-ext"])
def test_field_errors_are_exit_1(sessions, compiled_system, argv, error):
    paths = dict(sessions, sys=compiled_system)
    rep, code = execute([paths.get(a, a) for a in argv])
    assert code == 1
    assert rep["error"] == error


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"equations": ["a"]}',
    '{"unknowns": ["a"], "equations": [1]}',
    '{"unknowns": "ab", "equations": ["a"]}',
], ids=["list", "no-unknowns", "equation-not-text", "unknowns-not-a-list"])
def test_a_malformed_system_file_is_exit_1(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rep, code = execute(["solve", str(path), "--field", "F3"])
    assert code == 1 and not rep["ok"]
    assert rep["error"].startswith("a system file is ")


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_solve_refuses_a_limit_below_one(compiled_system, limit):
    rep, code = execute(["solve", compiled_system, "--field", "F3", "--ext", "b^2+1",
                         "--limit", limit])
    assert code == 1
    assert rep["error"] == "the solution limit must be at least 1"


def test_system_refuses_a_negative_level(sessions):
    rep, code = execute(["system", "--session", sessions["f3"], "--group", "R",
                         "--map", "f", "--map2", "g", "--level", "-2"])
    assert code == 1
    assert rep["error"] == "level must be non-negative"


def test_deep_nesting_is_refused_at_its_token(tmp_path):
    path = tmp_path / "deep.germ"
    path.write_text("field Q\njet 3\nsource vars: x ideal: ()\ntarget vars: u ideal: ()\n"
                    "map f = (" + "(" * 3000 + "x" + ")" * 3000 + ")\n")
    rep, code = execute(["session", str(path)])
    assert code == 1 and not rep["ok"]
    assert (rep["line"], rep["column"]) == (5, 101)
    assert rep["error"] == "line 1, col 101: nested deeper than 100 levels"


def test_a_coefficient_too_long_to_print_is_exit_1(tmp_path):
    path = tmp_path / "huge.germ"
    path.write_text("field Q\njet 3\nsource vars: x ideal: ()\ntarget vars: u ideal: ()\n"
                    "map f = (2^20000*x)\n")
    rep, code = execute(["session", str(path)])
    assert code == 1 and not rep["ok"]
    assert "string conversion" in rep["error"]


def test_groebner_reports_consistency(compiled_system):
    rep, code = execute(["solve", compiled_system, "--field", "F3",
                         "--method", "groebner"])
    assert code == 0
    assert rep["result"]["groebner"]["status"] == "consistent"


def test_orbits_with_jet_override(sessions):
    rep, code = execute(["orbits", "--session", sessions["f3"],
                         "--group", "R", "--ext", "b^2+1", "--jet", "2",
                         "--map", "f"])
    assert code == 0
    census = rep["result"]["orbits"]
    assert census["extension_orbit_size"] == 4
    assert len(census["orbits"]) == 2
    assert all(len(o) == 1 for o in census["orbits"])


def test_orbits_cap_counts_group_actions(sessions):
    # the census of x^2 applies 3 generators over F9 to each of 4 members
    rep, code = execute(["orbits", "--session", sessions["f3"], "--group", "R",
                         "--ext", "b^2+1", "--map", "f", "--cap", "5"])
    assert code == 1
    assert rep["error"] == "orbit census exceeds the cap of 5 group actions"
    rep, code = execute(["orbits", "--session", sessions["f3"], "--group", "R",
                         "--ext", "b^2+1", "--map", "f", "--cap", "16"])
    assert code == 0
    assert rep["result"]["orbits"]["extension_orbit_size"] == 4


def test_entry_point_exit_code_and_byte_identical_output(compiled_system):
    cmd = [sys.executable, "-m", "germ.cli", "solve", compiled_system,
           "--field", "F3"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["result"]["message"] == "no solutions"
    again = subprocess.run(cmd, capture_output=True, text=True)
    assert again.stdout == proc.stdout


def test_entry_point_reads_the_session_from_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "germ.cli", "act", "--group", "R",
         "--elem", "P", "--map", "f"],
        input=RICH, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["text"] == ["x^2+2*x^3+x^4"]


def test_unknown_element_is_exit_1(sessions):
    rep, code = execute(["act", "--session", sessions["rich"],
                         "--group", "R", "--elem", "nope", "--map", "f"])
    assert code == 1
    assert not rep["ok"]


def test_a_closed_stdout_ends_quietly():
    # the reader is gone before the report is written, as in `germ ... | head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "germ.cli", "tangent", "--group", "K", "--map", "f"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(RICH)
    assert "Traceback" not in err, err
    assert proc.returncode == 1


def test_a_3000_term_chain_gets_a_json_answer():
    session = RICH.split("map f")[0] + "map f = (" + "+".join(["x"] * 3000) + ")\n"
    proc = subprocess.run([sys.executable, "-m", "germ.cli", "session"],
                          input=session, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["ok"]
    assert "map f = (3000*x)\n" in report["result"]["canonical"]


def test_missing_arguments_are_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "germ.cli", "act", "--group", "R"],
        capture_output=True, text=True)
    assert proc.returncode == 1


# sha256 of the whole stdout of `germ` with the session on stdin, recorded
# before group_level read its probe images off a power table.  The CLI
# output must stay byte-identical.
GOLDEN = [
    (RICH, 0, "d4725a7975c20e4ebf2a9413e5219ee4f5c0cd401235019038454b15f5a39f1e",
     "exp --vf xi"),
    (RICH, 0, "3e1cac0f643b6093ae6a7a9f86e3b57838718167ac750b84334162e9e6b5d06b",
     "exp --vf xi --filtration Ch"),
    (RICH, 0, "d6483b42d3cfe9900c774a180e50849fba79f7c64e73411335bf664bfbd413ac",
     "log --group R --elem P"),
    (RICH, 0, "b97578b654d0cf9834d203b9b2e32950ac766a381c790f2ee5e789c711c798e1",
     "log --group L --elem LP"),
    (RICH, 0, "76e1ee4f7df3f19b2cdee5e2614e321aceae75e663a4984f215e803c0b4b63f8",
     "log --group C --elem Ct"),
    (RICH, 0, "567246193b67b56b8dd5ead7d75505b9a44e14c064b577d2678ad3e646df5a66",
     "act --group R --elem P --map f"),
    (RICH, 0, "e58085f37448686dee44291e1b7100c4bc9bb53991213fb2f7e0f5138590bb4b",
     "act --group L --elem LP --map f"),
    (RICH, 0, "23e884ad0c3ac7da52c823feb1d5cddb3a34e896c8f819eae94c25e1272ee54c",
     "act --group C --elem Ct --map g"),
    (RICH, 0, "0648aef38d1fcb4aab1b467e4917e254630182c45496d446d78e31b506b3a1e2",
     "tangent --group R --map f --level 1"),
    (RICH, 0, "009a52a8e5a987e6f5498e367c41149c4a2f83fb0220e088822fbf5bcf9167d9",
     "tangent --group K --map g --level 1 --filtration Ch"),
    (Q4, 0, "21e6ca5db2458b22d0a99abe2365744e35d5da26baef4c156bdc11b8790cc811",
     "descend --group R --map f --map2 ft --level 1"),
    (Q4, 0, "58e9e46326699cf1b17fda498a0bee0195698aa6b2ce1b511f7622cc7ba8a323",
     "descend --group R --map f --map2 ft --level 1 --witness (x+x^2)"),
    (Q4, 0, "bbd558cf1f9f6973a9014e9843a514062225676b5c52c99fa0d1d6cb77dd9fa4",
     "descend --group LR --map f --map2 ft --level 1 --ext a^2-2 --witness (u)|(x+x^2)"),
    (Q4, 2, "75fd6d127f1dd78596fd3a33af0865e552f642f3fbe49b2c16f1c213b3c7432c",
     "descend --group R --map f --map2 bad --level 1"),
    # finite fields: extension elements in solutions, solution order and
    # orbit censuses over F9, F25 and F27, recorded before extension
    # elements were stored as tuples of raw base-field representations
    (F3S, 0,
     "444f0b44a6c09f7b29195bfd28c77413e47a8563c2d0fade8865484c2ceff292",
     "system --group R --map f --map2 g"),
    (F5S, 0,
     "2ae749d6bd63262a93ac8723b4c0ed775e37e2e8e688fb55fa5cac21598bc87d",
     "system --group L --map f --map2 g"),
    (F5S, 0,
     "8c2269e7f7a704f5e5f00ad3a46d5b05689377328ca3002cac940d56cde796c4",
     "system --group LR --map f --map2 h"),
    (SYS_F3, 2,
     "0acf5878b1090a038735f9db931a1b5ff026611a0ed2a792c60df199cbe7d2aa",
     "solve - --field F3"),
    (SYS_F3, 0,
     "db6df7a684afcb15547aca410ac3d9b1b83c4bc37ea04dbcafd49764f5719ffc",
     "solve - --field F3 --ext b^2+1"),
    (SYS_F3, 2,
     "92c5acf162d54e171ccad40b4ea58928a6c6602e4b5cca0fac071c490e2b83be",
     "solve - --field F3 --ext b^2+1 --base-points"),
    (SYS_F3, 2,
     "9f34b57689431681a0055ab575eaf3590c77f52b70bcdc2c1f3c0eed3f3477d5",
     "solve - --field F3 --ext c^3+2*c+1"),
    (SYS_F3, 0,
     "06ff2dc9066f79f6c9bb72c09d7cafde08a1140ed9245539c4cb7d1511e5072d",
     "solve - --field F3 --method groebner"),
    (SYS_F5, 0,
     "f4cbd1693df1d83d072ed0f980e7c3f18f9e99ea908eea9f375a671a7790cfdd",
     "solve - --field F5 --ext b^2+2"),
    (SYS_F5, 2,
     "38d534705fed62b97cde26cfba43cd7efa5b8612a4825a93b54aa2d70cbed0b7",
     "solve - --field F5 --ext b^2+2 --base-points"),
    (SYS_F5, 0,
     "251177f9854bf8fdfba5a843bba866aed345365501966a533d229d1ed965bb4f",
     "solve - --field F5 --method groebner"),
    (QUAD_F3, 0,
     "84fa4673a42cc46f83781092c10fcd98874752bde748d1cd0565371f586578ea",
     "solve - --field F3 --ext b^2+1"),
    (CUBIC_F3, 0,
     "19acaf7565ea69aee9940f5ffc88b01a972fc959cfb9515493f608177bfcd772",
     "solve - --field F3 --ext c^3+2*c+1"),
    (ROOTS_F3, 2,
     "16987660773151808a1e411d41ea233fa95d17e62c3dd150a07e13b4b326fc7e",
     "solve - --field F3 --method groebner"),
    (F3S, 0,
     "184741660f3accd09f79c95a1067bec46e99a6696f329c4b26c661ea5d927782",
     "orbits --group R --map f --ext b^2+1"),
    (F3S, 0,
     "acfa3f0931295ef5e483459ac3bc517f23d57ddfd0efd6c341cdb0adea9fb936",
     "orbits --group L --map g --ext c^3+2*c+1"),
    (F5S, 0,
     "260f2826a1186468445145f2d5ceb448bf4fa3af1a7b7f4aac791461d6748674",
     "orbits --group R --map f --ext b^2+2"),
    (F5S, 0,
     "f5011cd5e845ac1ed965138f90868801e51bac0fe008d2ec17261722d4921410",
     "orbits --group L --map g --ext b^2+2"),
    # systems and comparison bounds for every group on two-variable
    # sessions, recorded before compile_system built its unknown group data
    # as group elements and called their action
    (SING, 0,
     "45ba873eb6e8123b73c349016ed87b859576409e3694854b8e906856d2f57a78",
     "system --group L --map f --map2 g --level 1"),
    (SING, 0,
     "e96a273e4792de23f9f9a044d9355f15cc6168411750369564ad9fcdc53b5fe0",
     "system --group C --map f --map2 g --level 1"),
    (SING, 0,
     "87632322195c72a687a75e7a52f61ff494cd9961aa50a0be8f97476b3a0737c0",
     "system --group K --map f --map2 g --level 1"),
    (SMOOTH2, 0,
     "74e1dfa6ffdfebe763953873905213e1dc629261c5665c95676619ed4060be09",
     "system --group Klin --map f --map2 g --level 1"),
    (SMOOTH2, 0,
     "68864c607ad0edafba2f423abc3c540b42fc017288fd70253344da16bc0bc496",
     "system --group K --map f --map2 g --level 1"),
    (SMOOTH2, 0,
     "f419e626a78e8510279ae768583f8c9df5df156f51b7d6addbe739479d0928c6",
     "artin-rees --group R --map f --level 1"),
    (SMOOTH2, 0,
     "9350c84735e0f30bbd5372644c3e5c67685942807a50acb334444d56770c1b70",
     "artin-rees --group Klin --map f --level 1"),
    (SMOOTH2, 0,
     "e940b6253af0c51f01c8e7d6493580d6ccc0f74046b22b50217f75f21a4ac940",
     "artin-rees --group LR --map f --level 1"),
    (SING, 0,
     "809d440f9c0a0b93b2d40265ee824dd1ce7e340e9b3f33bfc4427fdbcd1f6222",
     "artin-rees --group K --map f --level 1"),
    (SING, 0,
     "9475ec95978d8a19c430dd0827b541c51a8b3b1a2b949943fec52587160d9eb2",
     "artin-rees --group L --map f --level 1"),
    (SING, 0,
     "a5cfd0324e967a542773deb6e86d8547fc938f0f1eefda010b4eec78331e712e",
     "artin-rees --group C --map f --level 1"),
    # logarithms and their vector levels on the singular target, recorded
    # before the target-side probe images were read off a power table
    (SING_LOG, 0,
     "ccc820cc739e67f9e30b0726b3ce1bf74771625462d88a2ce50c2d1f10d7fd04",
     "log --group L --elem A"),
    (SING_LOG, 0,
     "ccabbf8183452d81e40a45352905a13a4a568f47afe7badf5593fce1dd9bf34d",
     "log --group C --elem Ct"),
    (SING_LOG, 0,
     "7b9b68c15d713ce885f41fbd56abc93bc9970ff0ade1757c5dfdcd790d803b38",
     "log --group K --elem Ct,P"),
]


@pytest.mark.parametrize("session,code,digest,command", GOLDEN,
                         ids=[f"{i}-{g[3].split()[0]}" for i, g in enumerate(GOLDEN)])
def test_stdout_is_byte_identical_to_the_recorded_output(
        session, code, digest, command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_number_fields_and_ext_descent_run_without_sympy(tmp_path):
    (command,) = [g[3] for g in GOLDEN if "--ext a^2-2" in g[3]]
    session = tmp_path / "q4.germ"
    session.write_text(Q4)
    args = command.split() + ["--session", str(session)]
    script = textwrap.dedent(f"""
        import sys
        from germ import cli
        from germ.exactfield import Rationals, make_extension, make_field
        make_extension(Rationals(), "a^2-2")
        make_field("Q[a]/(a^3-2)")
        rep, code = cli.execute({args!r})
        assert code == 0 and rep["ok"], rep
        assert "sympy" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(germ.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_sympy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not any("sympy" in dep for dep in project.get("dependencies", []))
    extras = project["optional-dependencies"]
    assert [name for name, deps in extras.items()
            if any("sympy" in dep for dep in deps)] == ["test"]
