"""cli-sessions: every subcommand as a fresh ``python -m germ.cli`` process.

A round draws three small sessions from the seed: one over Q (session,
act, tangent, exp, log, artin-rees, descend), one over F3 and one over F5
(system, solve over the base field, over the quadratic extension and by
Groebner, orbits), plus one descent with an inline witness over Q(sqrt 2),
the only question that loads sympy.  Sessions and system files travel on
stdin, so no file is written.  Here the fixed cost of a run dominates:
interpreter start, imports, session parsing and the expression parser.

Each answer is checked by its exit code and the verdict in its JSON
report, against facts known by construction: the image of f under P, the
witness P of level 1, the quadratic character of w/u in F_p.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

from germ.cli import execute, parse_session
from germ.exactfield import Rationals
from germ.germs import MapGerm, RightAut
from germ.jets import JetRing
from germ.polysys import compile_system

from gen import small_rational

FIELD_EXT = {3: "b^2+1", 5: "b^2+2"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Question:
    argv: list
    stdin: str
    expect_code: int
    expect: dict


class Workload:
    name = "cli-sessions"
    trace_rounds = 3

    def __init__(self):
        # the rings of the rational session, where its maps are built
        self.Q = Rationals()
        self.X = JetRing(self.Q, ["x"], 4)
        self.U = JetRing(self.Q, ["u"], 4)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.in_process = False     # the traced run replays argv through execute

    def round(self, rng, index):
        qs = self._rational_session(rng)
        for p in FIELD_EXT:
            qs += self._finite_session(rng, p)
        rng.shuffle(qs)
        return qs

    def _rational_session(self, rng):
        X, U = self.X, self.U
        f = MapGerm(X, U, [X.from_expr("x^2") + X.from_expr("x^3").scale(
            small_rational(self.Q, rng))])
        P = RightAut(X, [X.var("x") + X.from_expr("x^2").scale(
            small_rational(self.Q, rng))])
        ft = P.act(f)
        text = (
            "field Q\njet 4\nsource vars: x ideal: ()\ntarget vars: u ideal: ()\n"
            f"map f = ({f.components[0]})\nmap ft = ({ft.components[0]})\n"
            f"aut P = ({P.comps[0]})\n"
            f"vf xi = ({small_rational(self.Q, rng)})*x^2 d/dx\n")
        s = ["--session", "-"]
        return [
            Question(["session", "-"], text, 0, {"reparse_stable": True}),
            Question(["act", *s, "--group", "R", "--elem", "P", "--map", "f"], text,
                     0, {"text": [str(ft.components[0])]}),
            Question(["tangent", *s, "--group", "R", "--map", "f", "--level", "1"],
                     text, 0, {}),
            Question(["exp", *s, "--vf", "xi"], text, 0, {"level": 1}),
            Question(["log", *s, "--group", "R", "--elem", "P"], text, 0, {}),
            Question(["artin-rees", *s, "--group", "R", "--map", "f", "--level", "1"],
                     text, 0, {}),
            Question(["descend", *s, "--group", "R", "--map", "f", "--map2", "ft",
                      "--level", "1"], text, 0, {"descended": True}),
            Question(["descend", *s, "--group", "R", "--map", "f", "--map2", "ft",
                      "--level", "1", "--ext", "a^2-2",
                      "--witness", f"({P.comps[0]})"], text, 0, {"descended": True}),
        ]

    def _finite_session(self, rng, p):
        u, w = rng.randrange(1, p), rng.randrange(1, p)
        text = (f"field F{p}\njet 2\nsource vars: x ideal: ()\n"
                f"target vars: u ideal: ()\nmap f = ({u}*x^2)\nmap g = ({w}*x^2)\n")
        sess = parse_session(text)
        system = compile_system("R", sess.map_named("f"), sess.map_named("g"))
        sys_json = json.dumps(system.describe())
        # x^2 -> (w/u) x^2 needs a square root of w/u
        square = pow(w * pow(u, p - 2, p) % p, (p - 1) // 2, p) == 1
        s = ["--session", "-"]
        solve = ["solve", "-", "--field", f"F{p}"]
        return [
            Question(["system", *s, "--group", "R", "--map", "f", "--map2", "g"],
                     text, 0, {}),
            Question(solve, sys_json, 0 if square else 2, {}),
            Question(solve + ["--ext", FIELD_EXT[p]], sys_json, 0, {}),
            Question(solve + ["--method", "groebner"], sys_json, 0, {}),
            Question(["orbits", *s, "--group", "R", "--map", "f",
                      "--ext", FIELD_EXT[p]], text, 0, {}),
        ]

    def answer(self, q):
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                old, sys.stdin = sys.stdin, io.StringIO(q.stdin)
                try:
                    report, code = execute(q.argv)
                finally:
                    sys.stdin = old
            return code, report
        # no timeout, which would make subprocess poll for the exit
        proc = subprocess.run([sys.executable, "-m", "germ.cli", *q.argv],
                              input=q.stdin, capture_output=True, text=True,
                              env=self.env, cwd=ROOT)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = {"stdout": proc.stdout[-200:], "stderr": proc.stderr[-400:]}
        return proc.returncode, report

    def check(self, q, a):
        code, report = a
        if code != q.expect_code:
            return f"{q.argv[0]}: exit {code}, expected {q.expect_code}: {report}"
        if code == 0 and report.get("ok") is not True:
            return f"{q.argv[0]}: report not ok"
        result = report.get("result", {})
        for key, want in q.expect.items():
            if result.get(key) != want:
                return f"{q.argv[0]}: {key} = {result.get(key)!r}, expected {want!r}"
        checks = {
            "tangent": lambda r: r["tangent"]["rank"] > 0,
            "artin-rees": lambda r: r["comparison"]["bound"] is not None,
            "log": lambda r: "R" in r["parts"],
            "solve": lambda r: ("groebner" in r and r["groebner"]["status"] == "consistent")
            or (r["count"] > 0) == (code == 0),
            "orbits": lambda r: len(r["orbits"]["orbits"]) == 2,
            "system": lambda r: r["system"]["equations"],
        }
        if q.argv[0] in checks and not checks[q.argv[0]](result):
            return f"{q.argv[0]}: verdict does not hold: {result}"
        return None
