"""descent-ext: descent questions over Q(sqrt 2).

Each question asks for a rational witness carrying f to f~ inside the
level-j subgroup, for the groups R, Klin and LR at levels 1 and 2 over the
seven maps of the acceptance descent pool.  Most questions carry an
extension witness (some twisted by an irrational stabilizer), some carry
none, and one cell in ten has a perturbation below order ord(f)+j, whose
correct answer is a jet-level obstruction.  The same (group, map, level)
cells, each with the same variant, recur every round.
"""

from __future__ import annotations

from dataclasses import dataclass

from germ.descent import DescentError, DescentProblem, descend, verify_witness
from germ.exactfield import Rationals, make_extension
from germ.germs import (
    ContactLinPair, LeftAut, LRPair, MapGerm, RightAut, extend_element,
    extend_ring,
)
from germ.jets import JetRing, filtration_make
from germ.tangent import DerVector, MatVector, TargetDerVector, exp_combination

from gen import min_degree, monomial_of_degree, random_jet, small_rational

MAPS = [
    (("x",), ("x^2",), 4),
    (("x",), ("x^3",), 4),
    (("x",), ("x^2+x^3",), 4),
    (("x",), ("x^2", "x^3"), 4),
    (("x", "y"), ("x^2+y^2",), 3),
    (("x", "y"), ("x*y", "x^2-y^2"), 3),
    (("x", "y"), ("x", "y^2+x*y"), 3),
]
TAGS = ("R", "Klin", "LR")
LEVELS = (1, 2)
# variant of the cell at position p is VARIANTS[p % 10], the same in every
# round, so rounds cost alike and only the seeded coefficients vary
VARIANTS = ("witness", "twisted", "none", "witness", "twisted",
            "witness", "obstruction", "twisted", "none", "witness")


@dataclass
class Question:
    tag: str
    cell: int
    level: int
    variant: str
    f: MapGerm
    ft: MapGerm
    witness: object


class Cell:
    def __init__(self, Q, ext, xv, exprs, order):
        tv = ("u", "v")[:len(exprs)]
        self.R = JetRing(Q, xv, order)
        self.T = JetRing(Q, tv, order)
        self.f = MapGerm(self.R, self.T, [self.R.from_expr(e) for e in exprs])
        self.madic = filtration_make(self.R, "madic")
        self.RK = extend_ring(self.R, ext)
        self.TK = extend_ring(self.T, ext)
        self.gen = self.RK.jet({self.RK.unit_mon: ext.top.generator_env()["a"]})
        self.ord_f = min_degree(self.f.components)


class Workload:
    name = "descent-ext"
    trace_rounds = 2

    def __init__(self):
        self.Q = Rationals()
        self.ext = make_extension(self.Q, "a^2-2")
        self.cells = [Cell(self.Q, self.ext, *m) for m in MAPS]
        self.strata = [(tag, c, j) for tag in TAGS
                       for c in range(len(self.cells)) for j in LEVELS]

    def round(self, rng, index):
        questions = []
        for pos, (tag, c, j) in enumerate(self.strata):
            variant = VARIANTS[pos % len(VARIANTS)]
            questions.append(self._question(rng, tag, c, j, variant))
        rng.shuffle(questions)
        return questions

    def _question(self, rng, tag, c, j, variant):
        cell = self.cells[c]
        g = _level_j_element(tag, cell.R, cell.T, j, rng)
        ft = g.act(cell.f)
        witness = None
        if variant == "obstruction":
            comps = list(ft.components)
            mon = monomial_of_degree(cell.R, rng, cell.ord_f, cell.ord_f + j - 1)
            comps[0] = comps[0] + cell.R.jet({mon: small_rational(self.Q, rng)})
            ft = MapGerm(cell.R, cell.T, comps)
        elif variant != "none":
            witness = extend_element(g, self.ext, cell.RK, cell.TK)
            if variant == "twisted" and cell.ord_f >= 2:
                witness = witness.compose(_irrational_stabilizer(tag, cell))
        return Question(tag, c, j, variant, cell.f, ft, witness)

    def answer(self, q):
        problem = DescentProblem(q.tag, q.f, q.ft, self.cells[q.cell].madic,
                                 q.level, ext=self.ext, witness=q.witness)
        try:
            return descend(problem)
        except DescentError as e:
            if "obstruction" in str(e):
                return e
            raise

    def check(self, q, a):
        if q.variant == "obstruction":
            if not isinstance(a, DescentError):
                return "expected an obstruction, got a witness"
            diff = [x - y for x, y in zip(q.ft.components, q.f.components)]
            # every level-j element moves f by order >= ord(f) + j
            if min_degree(diff) >= self.cells[q.cell].ord_f + q.level:
                return "obstruction reported for a difference of high order"
            return None
        if isinstance(a, DescentError):
            return f"unexpected obstruction: {a}"
        if not a.verified or not verify_witness(a.witness, q.f, q.ft)["ok"]:
            return "witness does not carry f to f~"
        orders = [s["residual_order"] for s in a.steps]
        if any(b - p < q.level for p, b in zip(orders, orders[1:])):
            return f"peel gap below the level: {orders}"
        return None


def _level_j_element(tag, R, T, j, rng):
    parts = {"R": DerVector(R, [random_jet(R, rng, j + 1) for _ in R.xvars])}
    if tag == "LR":
        parts["L"] = TargetDerVector(
            T, [random_jet(T, rng, j + 1) for _ in T.xvars])
    if tag == "Klin":
        m = len(T.xvars)
        parts["Mat"] = MatVector(
            R, T, [[random_jet(R, rng, j, density=0.3) for _ in range(m)]
                   for _ in range(m)])
    return exp_combination(tag, parts, R, T)


def _irrational_stabilizer(tag, cell):
    """x -> x + a*x^N fixes f modulo order N+1 when ord(f) >= 2."""
    RK, TK = cell.RK, cell.TK
    comps = [RK.var(n) for n in RK.xvars]
    comps[0] = comps[0] + cell.gen * RK.var(RK.xvars[0]) ** RK.order
    sigma = RightAut(RK, comps)
    if tag == "R":
        return sigma
    if tag == "LR":
        return LRPair(LeftAut.identity(TK), sigma)
    return ContactLinPair(RK, TK, ContactLinPair.identity(RK, TK).matrix, sigma)
