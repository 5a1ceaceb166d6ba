import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from germ.exactfield import make_field
from germ.polysys import PolyRing
from germ.jets import _mon_sort_key
from germ.jets import (
    JetRing,
    JetError,
    PowerTable,
    SubspaceBasis,
    VectorContext,
    filtration_make,
    ideal_span,
    jet_from_json,
    jet_to_json,
    membership,
    nullspace,
    rref,
    solve_columns,
)

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")



def _box_filtered_monomials(ring):
    """The enumeration that builds every exponent tuple up to order+torder
    in each variable and then keeps the in-range ones."""
    top = ring.order + (ring.torder or 0)
    mons = [m for m in itertools.product(range(top + 1), repeat=len(ring.variables))
            if ring._in_range(m)]
    return tuple(sorted(mons, key=_mon_sort_key))


@pytest.mark.parametrize("xvars,order,tvars,torder", [
    (["x"], 5, (), None),
    (["x", "y"], 4, (), None),
    (["x", "y", "z"], 3, (), None),
    (["a", "b", "c", "d"], 2, (), None),
    (["x"], 3, ["t"], 2),
    (["x", "y"], 2, ["t"], 0),
    (["x", "y"], 3, ["t", "s"], 1),
    (["x"], 1, ["t", "s"], 3),
])
def test_monomials_are_the_in_range_box_in_sort_key_order(xvars, order, tvars, torder):
    R = JetRing(Q, xvars, order, tvars=tvars, torder=torder)
    assert R.monomials == _box_filtered_monomials(R)
    if not tvars:
        assert len(R.monomials) == math.comb(len(xvars) + order, order)


def test_power_table_keeps_keys_beyond_the_jet_range():
    R = JetRing(Q, ["x"], 3, tvars=["t"], torder=2)
    phi = R.from_expr("x + t")
    table = PowerTable(R, [phi, R.var("t")])
    # x^4 is outside the jet range, (x+t)^4 = 4*x^3*t + 6*x^2*t^2 inside it
    assert table.power((4, 0)) == phi ** 4
    assert str(table.power((4, 0))) == "4*x^3*t+6*x^2*t^2"
    assert table.power((2, 1)) == phi ** 2 * R.var("t")
    f = R.from_expr("x^2 + 3*x*t - t^2")
    assert table.image(f) == R.from_expr("x^2 + 5*x*t + 3*t^2")


def test_truncated_arithmetic_and_printing():
    R = JetRing(Q, ["x"], 4)
    x = R.var("x")
    f = (x + x ** 2) ** 2
    assert str(f) == "x^2+2*x^3+x^4"
    assert str(R.from_expr("1/2*x^3 - x")) == "-x+(1/2)*x^3"
    assert (x ** 5).is_zero()
    assert (f - f).is_zero()
    assert f.degree_bound() == 4
    assert str(f.derivative("x")) == "2*x+6*x^2+4*x^3"


def test_printed_jets_reparse_to_themselves():
    R = JetRing(Q, ["x", "y"], 3)
    rng = random.Random(11)
    for _ in range(25):
        coeffs = {}
        for mon in R.monomials:
            if rng.random() < 0.3:
                coeffs[mon] = Q.from_int(rng.randrange(-6, 7))
        j = R.jet(coeffs)
        assert R.from_expr(str(j)) == j


def test_substitution_into_another_ring():
    R = JetRing(Q, ["x"], 4)
    R2 = JetRing(Q, ["x", "y"], 3)
    fx2 = R.from_expr("x^2")
    sub = fx2.substitute({"x": R2.from_expr("x + y^2")}, ring=R2)
    assert str(sub) == "x^2+2*x*y^2"


def test_substitution_rejects_constant_terms():
    R = JetRing(Q, ["x"], 4)
    R2 = JetRing(Q, ["x", "y"], 3)
    with pytest.raises(JetError, match="constant term"):
        R.from_expr("x^2").substitute({"x": R2.from_expr("1 + x")}, ring=R2)


def test_power_table_checks_its_arguments_once():
    R = JetRing(Q, ["x", "y"], 3, tvars=["t"], torder=1)
    x, y, t = R.var("x"), R.var("y"), R.var("t")
    # a variable without an argument is a JetError, not a TypeError from
    # multiplying by the missing argument
    table = PowerTable(R, [x + y, None, t])
    assert table.image(R.from_expr("x^2 + x*t")) == (x + y) ** 2 + (x + y) * t
    with pytest.raises(JetError, match="no substitution given for variable 'y'"):
        table.image(R.from_expr("x*y"))
    with pytest.raises(JetError, match="no substitution given for variable 'y'"):
        table.power((0, 1, 0))
    with pytest.raises(JetError, match="argument for 'x' has a constant term"):
        PowerTable(R, [1 + x, y, t])
    # ``at`` leaves every variable it is not given fixed, if the ring has it
    R2 = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    at = PowerTable.at(R, R2, {"x": R2.from_expr("x + x^2"), "y": R2.from_expr("x*t")})
    assert at.image(R.from_expr("x*t + y")) == R2.from_expr("x*t + x^2*t + x*t")
    with pytest.raises(JetError, match="no substitution given for variable 'y'"):
        PowerTable.at(R, R2, {"x": R2.var("x")}).image(R.var("y"))


def test_quotient_ring_reduction():
    RQ = JetRing(Q, ["x"], 3, ideal=[{(2,): Q.one}])
    assert RQ.ideal_basis.rank == 2
    x = RQ.var("x")
    assert (x * x).is_zero()
    assert str(RQ.from_expr("x + x^2 + x^3")) == "x"
    assert str(RQ.ideal_gen_jets()[0]) == "x^2"


def test_quotient_with_relation_between_variables():
    # ideal (x^2, y^2 - x): y^2 and x share one canonical form, x^2 dies
    RQ2 = JetRing(Q, ["x", "y"], 3,
                  ideal=[{(2, 0): Q.one}, {(0, 2): Q.one, (1, 0): Q.from_int(-1)}])
    u = RQ2.from_expr("y^2")
    assert u == RQ2.from_expr("x")
    assert (RQ2.from_expr("x") * RQ2.from_expr("x")).is_zero()


def test_span_and_membership():
    R = JetRing(Q, ["x"], 4)
    x = R.var("x")
    ctx = VectorContext(R, 1)
    span = SubspaceBasis.span(ctx, [ctx.to_vec(x + x ** 2),
                                    ctx.to_vec(x ** 2 + x ** 3)])
    assert span.rank == 2
    coords = membership(x - x ** 3, span)
    assert coords is not None
    v = ctx.to_vec(x - x ** 3)
    recon = [Q.zero] * len(v)
    for c, row in zip(coords, span.rows):
        recon = [a + c * b for a, b in zip(recon, row)]
    assert tuple(recon) == v
    assert membership(x, span) is None


def test_ideal_span_and_position_intersection():
    R = JetRing(Q, ["x"], 4)
    x = R.var("x")
    assert ideal_span([R.from_expr("x^2")], R).rank == 3  # x^2, x^3, x^4
    ctx = VectorContext(R, 1)
    span = SubspaceBasis.span(ctx, [ctx.to_vec(x + x ** 2),
                                    ctx.to_vec(x ** 2 + x ** 3)])
    inter = span.intersect_positions(ctx.positions_in({(2,), (3,), (4,)}))
    assert inter.rank == 1
    (row,) = inter.basis_jets()[0]
    assert str(row) == "x^2+x^3"


def test_nullspace_and_column_solving():
    R = JetRing(Q, ["x"], 4)
    x = R.var("x")
    rows = [[Q.one, Q.from_int(2), Q.from_int(3)]]
    ns = nullspace(rows, 3, Q)
    assert len(ns) == 2
    for vec in ns:
        assert (vec[0] + 2 * vec[1] + 3 * vec[2]).is_zero()
    ctx = VectorContext(R, 1)
    cols = [ctx.to_vec(x + x ** 2), ctx.to_vec(x ** 2 + x ** 3)]
    cs = solve_columns(cols, ctx.to_vec(x - x ** 3), Q)
    assert [str(c) for c in cs] == ["1", "-1"]
    assert solve_columns(cols, ctx.to_vec(x ** 4), Q) is None


def test_order_filtration():
    R = JetRing(Q, ["x"], 4)
    x = R.var("x")
    filt = filtration_make(R, "madic")
    assert filt.order_of(x ** 2 + x ** 3) == 2
    assert filt.order_of(R.zero) == math.inf
    assert filt.mon_order((4,)) == 4
    assert filt.vanishing_depth() == 5


def test_flag_chain_orders_differ_from_degree():
    RF = JetRing(Q, ["x1", "x2"], 2)
    flag = filtration_make(RF, [["x1", "x2"],
                                ["x2", "x1^2", "x1*x2", "x2^2"],
                                ["x1^2", "x1*x2", "x2^2"]])
    x1, x2 = RF.var("x1"), RF.var("x2")
    assert flag.order_of(x2) == 2
    assert flag.order_of(x1) == 1
    assert flag.order_of(x1 * x2) == 3
    assert filtration_make(RF, "madic").order_of(x2) == 1


def test_bad_chains_rejected():
    RF = JetRing(Q, ["x1", "x2"], 2)
    with pytest.raises(JetError, match="descending"):
        filtration_make(RF, [["x1^2"], ["x1"]])
    with pytest.raises(JetError, match="multiplicative"):
        filtration_make(RF, [["x1", "x2"], ["x1^2"]])


def test_family_ring_truncation_and_parameter_filtration():
    RT = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    x, t = RT.var("x"), RT.var("t")
    assert (t * t).is_zero()
    ft = x ** 2 + t * x ** 3
    phi = x - t * x ** 2 / 2
    assert ft.substitute({"x": phi, "t": t}, ring=RT) == x ** 2
    tad = filtration_make(RT, "tadic")
    assert tad.order_of(t * x) == 1
    assert tad.order_of(x) == 0
    assert tad.vanishing_depth() == 2
    assert filtration_make(RT, "madic").order_of(t * x) == 2


def test_product_sets_for_the_order_filtration():
    R = JetRing(Q, ["x"], 4)
    filt = filtration_make(R, "madic")
    # two test monomials in two slots, y1 * y2
    assert filt.product_set((1, 1), 1) == frozenset({(2,), (3,), (4,)})
    assert filt.product_set((1, 1), 2) == frozenset({(4,)})
    assert filt.product_set((1, 1, 1), 2) == frozenset()
    # one test monomial squared, y^2: x*x^2 is no square
    assert filt.product_set((2,), 1) == frozenset({(2,), (4,)})
    assert filt.product_set((0, 2), 2) == frozenset({(4,)})


def test_json_round_trip():
    R3 = JetRing(F3, ["x", "y"], 2)
    j = R3.from_expr("x + 2*x*y + y^2")
    data = jet_to_json(j)
    assert data == {"x": "1", "x*y": "2", "y^2": "1"}
    assert jet_from_json(R3, data) == j


# -- exact linear algebra against sympy's DomainMatrix ----------------------

# Entries are drawn as (numerator, denominator) pairs, read in Q or F5;
# duplicates, zero rows and sums of rows are mixed in so that rank
# deficiency is common.
ENTRIES = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4]),
                    st.sampled_from([1, 1, 2, 3]))


@st.composite
def matrices(draw, min_cols=0):
    field = draw(st.sampled_from([Q, F5]))
    ncols = draw(st.integers(min_cols, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "sum"]), max_size=2)):
        if kind == "zero" or not rows:
            rows.append([(0, 1)] * ncols)
        elif kind == "dup":
            rows.insert(draw(st.integers(0, len(rows))), rows[-1])
        else:
            rows.append([(a * d + b * c, c * d) for (a, c), (b, d) in zip(rows[0], rows[-1])])
    return field, ncols, [[_scalar(field, e) for e in row] for row in rows]


def _scalar(field, entry):
    num, den = entry
    return field.from_int(num) * field.from_int(den).inverse()


def _oracle(field, ncols, rows):
    """The same matrix as a sympy DomainMatrix over QQ or GF(5)."""
    if field is F5:
        dom = GF(5)
        elems = [[dom(e.rep) for e in row] for row in rows]
    else:
        dom = QQ
        elems = [[dom(e.rep.numerator, e.rep.denominator) for e in row] for row in rows]
    return DomainMatrix(elems, (len(rows), ncols), dom)


def _value(e):
    """A germ or sympy scalar of Q or F5 as a Fraction or a residue."""
    if hasattr(e, "rep"):
        return e.rep
    if hasattr(e, "denominator"):
        return Fraction(int(e.numerator), int(e.denominator))
    return int(e) % 5


def _span_basis(field, ncols, rows):
    ctx = VectorContext(JetRing(field, ["x"], ncols - 1), 1)
    return SubspaceBasis.span(ctx, rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices())
@example((Q, 3, []))
@example((F5, 0, [[], []]))
@example((Q, 3, [[Q.zero] * 3, [Q.zero] * 3]))
@example((F5, 2, [[F5.one, F5.from_int(2)]] * 3))
@example((Q, 3, [[Q.one, Q.zero, Q.zero], [Q.zero, Q.one, Q.zero],
                 [Q.zero, Q.zero, Q.from_int(7)]]))
def test_rref_matches_the_domain_matrix_oracle(case):
    field, ncols, rows = case
    got_rows, got_pivots = rref(rows, field)
    want, want_pivots = _oracle(field, ncols, rows).rref()
    assert list(got_pivots) == list(want_pivots)
    want_rows = want.to_list()[:len(want_pivots)]
    assert [[_value(e) for e in row] for row in got_rows] == \
        [[_value(e) for e in row] for row in want_rows]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices())
@example((Q, 3, []))
@example((F5, 4, [[F5.one] * 4] * 2))
def test_nullspace_is_annihilated_and_has_the_right_size(case):
    field, ncols, rows = case
    kernel = nullspace(rows, ncols, field)
    rank = _oracle(field, ncols, rows).rank()
    assert len(kernel) == ncols - rank
    if kernel:
        assert _oracle(field, ncols, kernel).rank() == len(kernel)
    for vec in kernel:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), field.zero).is_zero()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices(min_cols=2), st.lists(ENTRIES, min_size=6, max_size=6),
       st.lists(st.sampled_from([0, 1, -1, 2]), min_size=6, max_size=6))
@example((Q, 2, []), [(1, 1)] * 6, [0] * 6)
def test_membership_recombines_or_refuses(case, loose, weights):
    field, ncols, rows = case
    basis = _span_basis(field, ncols, rows)
    inside = [field.zero] * ncols
    for w, row in zip(weights, rows):
        inside = [a + field.from_int(w) * b for a, b in zip(inside, row)]
    outside = [_scalar(field, e) for e in loose[:ncols]]
    for vec in (inside, outside):
        coords = basis.membership(vec)
        grows = _oracle(field, ncols, rows + [vec]).rank() > len(basis.rows)
        if grows:
            assert coords is None
            continue
        assert coords is not None and len(coords) == len(basis.rows)
        total = [field.zero] * ncols
        for c, row in zip(coords, basis.rows):
            total = [a + c * b for a, b in zip(total, row)]
        assert total == vec


# -- the term-dict kernel ------------------------------------------------------

TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        st.integers(-3, 3), max_size=6)


def _terms(field, raw):
    coeffs = {mon: field.from_int(c) for mon, c in raw.items()}
    return {mon: c for mon, c in coeffs.items() if not c.is_zero()}


def _no_zero_coefficient(*values):
    return all(not c.is_zero() for v in values for c in v.coeffs.values())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["Q", "F5"]), TERMS, TERMS, st.integers(0, 5))
def test_jet_and_poly_arithmetic_share_one_kernel(fname, raw_a, raw_b, n):
    field = make_field(fname)
    ring = JetRing(field, ["x", "y"], 3)
    polys = PolyRing(field, ["x", "y"])
    a, b = _terms(field, raw_a), _terms(field, raw_b)
    pa, pb = polys.poly(a), polys.poly(b)
    ja, jb = ring.jet(a), ring.jet(b)
    assert ja + jb == ring.jet((pa + pb).coeffs)
    assert ja - jb == ring.jet((pa - pb).coeffs)
    assert ja * jb == ring.jet((pa * pb).coeffs)
    jet_power, poly_power = ring.one, polys.one
    for _ in range(n):
        jet_power, poly_power = jet_power * ja, poly_power * pa
    assert ja ** n == jet_power and pa ** n == poly_power
    assert _no_zero_coefficient(ja + jb, ja - jb, ja * jb, ja ** n, pa + pb, pa - pb,
                                pa * pb, pa ** n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["Q", "F5"]), st.sampled_from(["x^2-y^3", "x*y+y^2"]),
       TERMS, TERMS)
def test_the_product_in_a_quotient_is_the_reduced_raw_product(fname, gen, raw_a, raw_b):
    field = make_field(fname)
    raw = JetRing(field, ["x", "y"], 4)
    ring = JetRing(field, ["x", "y"], 4, ideal=[raw.from_expr(gen)])
    a, b = _terms(field, raw_a), _terms(field, raw_b)
    product = raw.jet(a) * raw.jet(b)
    reduced = ring._reduce_mod_ideal(dict(product.coeffs))
    assert (ring.jet(a) * ring.jet(b)).coeffs == reduced
    assert _no_zero_coefficient(ring.jet(a) * ring.jet(b))


# -- pair rows ------------------------------------------------------------------

def _pair_rows(rows):
    return [[(j, c) for j, c in enumerate(row) if not c.is_zero()] for row in rows]


def test_rref_refuses_ragged_dense_rows():
    with pytest.raises(JetError, match="row 1"):
        rref([[Q.zero, Q.zero, Q.one], [Q.one, Q.zero]], Q)
    # a pair row after dense rows is refused the same way
    with pytest.raises(JetError, match="row 2"):
        rref([[Q.one, Q.zero], [], [(0, Q.one)]], Q)
    # an empty row is a zero row of either form
    assert rref([[], [(2, Q.from_int(3))], []], Q) == ([((2, Q.one),)], [2])
    assert rref([[Q.zero, Q.from_int(2)], []], Q) == ([(Q.zero, Q.one)], [1])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices())
@example((Q, 3, []))
@example((F5, 0, [[], []]))
@example((Q, 3, [[Q.zero] * 3, [Q.zero] * 3]))
@example((F5, 4, [[F5.zero] * 4, [F5.zero, F5.zero, F5.one, F5.from_int(3)], [F5.zero] * 4]))
@example((F5, 2, [[F5.one, F5.from_int(2)]] * 3))
def test_pair_rows_reduce_to_the_dense_rows(case):
    field, ncols, rows = case
    dense_rows, dense_pivots = rref(rows, field)
    got_rows, got_pivots = rref(_pair_rows(rows), field)
    want, want_pivots = _oracle(field, ncols, rows).rref()
    assert list(got_pivots) == list(dense_pivots) == list(want_pivots)
    # pair rows come back sorted by column, with no zero entry
    assert got_rows == [tuple(pairs) for pairs in _pair_rows(dense_rows)]
    want_rows = want.to_list()[:len(want_pivots)]
    expanded = [[dict(row).get(j, field.zero) for j in range(ncols)] for row in got_rows]
    assert [[_value(e) for e in row] for row in expanded] == \
        [[_value(e) for e in row] for row in want_rows]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices(min_cols=2), st.lists(ENTRIES, min_size=6, max_size=6),
       st.lists(st.sampled_from([0, 1, -1, 2]), min_size=6, max_size=6))
@example((Q, 2, []), [(1, 1)] * 6, [0] * 6)
@example((F5, 3, [[F5.zero] * 3]), [(0, 1)] * 6, [1] * 6)
def test_membership_of_pair_and_dense_vectors_agrees(case, loose, weights):
    field, ncols, rows = case
    from_dense = _span_basis(field, ncols, rows)
    from_pairs = _span_basis(field, ncols, _pair_rows(rows))
    assert from_pairs == from_dense and from_pairs.rows == from_dense.rows
    inside = [field.zero] * ncols
    for w, row in zip(weights, rows):
        inside = [a + field.from_int(w) * b for a, b in zip(inside, row)]
    outside = [_scalar(field, e) for e in loose[:ncols]]
    for vec in (inside, outside):
        (pairs,) = _pair_rows([vec])
        coords = from_pairs.membership(pairs)
        assert coords == from_dense.membership(vec)
        grows = _oracle(field, ncols, rows + [vec]).rank() > from_dense.rank
        assert (coords is None) == grows
