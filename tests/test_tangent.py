import hashlib
import json

import pytest

from germ import jets, tangent
from germ.exactfield import make_extension, make_field
from germ.germs import (
    GROUP_TAGS,
    JetMatrix,
    MapGerm,
    RightAut,
    product_ring,
)
from germ.jets import JetRing, filtration_make, rref
from germ.tangent import (
    ContactVector,
    DerVector,
    MatVector,
    TangentError,
    TargetDerVector,
    _candidates,
    comparison_bound,
    der_log,
    exp_combination,
    log_element,
    tangent_space,
    vector_level,
)

Q = make_field("Q")
F2 = make_field("F2")
F5 = make_field("F5")


def test_exp_of_a_quadratic_field_is_the_geometric_tail():
    X = JetRing(Q, ["x"], 4)
    e = DerVector(X, [X.from_expr("x^2")]).exp()
    assert str(e.comps[0]) == "x+x^2+x^3+x^4"


def test_log_of_near_identity_changes():
    X3 = JetRing(Q, ["x"], 3)
    lg = log_element(RightAut(X3, [X3.from_expr("x + x^2")]))["R"]
    assert str(lg.comps[0]) == "x^2-x^3"
    lg2 = log_element(RightAut(X3, [X3.from_expr("x + x^3")]))["R"]
    assert str(lg2.comps[0]) == "x^3"


@pytest.mark.parametrize("text", ["x + x^2", "x + x^3 - x^4", "x - 2*x^2 + x^3"])
def test_exp_log_round_trip(text):
    X = JetRing(Q, ["x"], 4)
    g = RightAut(X, [X.from_expr(text)])
    assert log_element(g)["R"].exp().comps == g.comps


def test_exp_agrees_with_the_derivation_to_first_order():
    X = JetRing(Q, ["x"], 4)
    Y = JetRing(Q, ["y"], 4)
    mad = filtration_make(X, "madic")
    f = MapGerm(X, Y, [X.from_expr("x^2")])
    v = DerVector(X, [X.from_expr("x^3")])
    moved = v.exp().act(f)
    first = v.apply(f)[0]
    diff = moved.components[0] - f.components[0] - first
    assert mad.order_of(diff) > mad.order_of(first)


def test_exp_rejects_non_unipotent_or_bad_characteristic():
    X = JetRing(Q, ["x"], 4)
    with pytest.raises(TangentError):
        DerVector(X, [X.one]).exp()
    X2f = JetRing(F2, ["x"], 5)
    with pytest.raises(TangentError, match="characteristic"):
        DerVector(X2f, [X2f.from_expr("x^3")]).exp()  # the tail needs 1/2
    # small characteristic is fine when the series stops early
    X5s = JetRing(F5, ["x"], 4)
    e5 = DerVector(X5s, [X5s.from_expr("x^2")]).exp()
    assert str(e5.comps[0]) == "x+x^2+x^3+x^4"


def test_derivations_preserving_a_principal_ideal():
    XI = JetRing(Q, ["x"], 3, ideal=[{(2,): Q.one}])
    coeffs = sorted(str(d.comps[0]) for d in der_log(XI))
    assert coeffs == ["x", "x^2", "x^3"]


def test_derivations_preserving_a_normal_crossing():
    XY = JetRing(Q, ["x", "y"], 2, ideal=[{(1, 1): Q.one}])
    reprs = sorted(repr(d) for d in der_log(XY))
    assert "(x) d/dx" in reprs
    assert "(y) d/dy" in reprs


@pytest.fixture(scope="module")
def cusp3():
    X3 = JetRing(Q, ["x"], 3)
    Y3 = JetRing(Q, ["y"], 3)
    mad3 = filtration_make(X3, "madic")
    f3 = MapGerm(X3, Y3, [X3.from_expr("x^2")])
    return X3, Y3, mad3, f3


def test_source_frame_at_the_squared_coordinate(cusp3):
    X3, _, mad3, f3 = cusp3
    fr0 = tangent_space("R", f3, 0, mad3)
    assert fr0.rank == 2
    jets = sorted(str(row[0]) for row in fr0.basis.basis_jets())
    assert jets == ["x^2", "x^3"]
    fr1 = tangent_space("R", f3, 1, mad3)
    assert fr1.rank == 1
    assert str(fr1.basis.basis_jets()[0][0]) == "x^3"


def test_contact_frame_matches_the_source_frame_here(cusp3):
    _, _, mad3, f3 = cusp3
    fK = tangent_space("K", f3, 0, mad3)
    jets = sorted(str(row[0]) for row in fK.basis.basis_jets())
    assert jets == ["x^2", "x^3"]


def test_matrix_frame_on_two_components(cusp3):
    X3, _, mad3, _ = cusp3
    YV = JetRing(Q, ["u", "v"], 3)
    fv = MapGerm(X3, YV, [X3.from_expr("x^2"), X3.from_expr("x^3")])
    frk = tangent_space("Klin", fv, 1, mad3)
    assert frk.rank >= 2


def test_frame_solving_and_element_realization(cusp3):
    X3, _, mad3, f3 = cusp3
    fr0 = tangent_space("R", f3, 0, mad3)
    target = fr0.context.to_vec((X3.from_expr("3*x^3"),))
    coeffs = fr0.solve(target)
    assert coeffs is not None
    combo = fr0.combination(coeffs)
    assert str(combo["R"].apply(f3)[0]) == "3*x^3"
    el = fr0.element_from(coeffs)
    d1 = el.act(f3).components[0] - f3.components[0]
    assert mad3.order_of(d1) >= 3


def test_vector_levels():
    X4 = JetRing(Q, ["x", "y"], 4)
    Y4 = JetRing(Q, ["u", "v"], 4)
    mad4 = filtration_make(X4, "madic")
    assert vector_level(DerVector(X4, [X4.from_expr("x^3"), X4.zero]),
                        X4, Y4, mad4) == 2
    assert vector_level(TargetDerVector(Y4, [Y4.from_expr("u*v"), Y4.zero]),
                        X4, Y4, mad4) == 1


def test_depth_comparison_bound_for_the_squared_coordinate(cusp3):
    _, _, mad3, f3 = cusp3
    cb = comparison_bound("R", f3, 1, mad3)
    assert cb.found
    assert cb.bound == 3


def test_comparison_bound_needs_positive_order_for_pairs(cusp3):
    X3, Y3, mad3, _ = cusp3
    unit_order = MapGerm(X3, Y3, [X3.from_expr("x")])
    comparison_bound("LR", unit_order, 1, mad3)  # order 1 is fine
    # order-0 data degenerates only through the filtration, not the map
    flat = filtration_make(X3, [["x"], ["x"], ["x^2", "x^3"]])
    assert flat.order_of(unit_order.components) >= 1


# sha256 of json.dumps(comparison_bound(...).describe(), sort_keys=True) as
# computed with one intersect_positions (two row reductions) per depth, at
# jet order 6 on (x, y) -> (u, v): (group, components, level) -> (bound,
# certificate count, digest).
_RECORDED_BOUNDS = {
    ("R", ("x^2", "y^3"), 1):
        (4, 27, "409d3df54a2cf3429b16cada3a8ea9ea532e8a106474ab292900eab61224ab4a"),
    ("Klin", ("x", "y^3+x*y"), 2):
        (5, 26, "39d66fbfe81b657314077ba2825cd3e374144a6cc4a3c35b95e15ba7b0fe513c"),
    ("LR", ("x^2", "y^3"), 2):
        (7, 0, "fe01ae7bd1cf878ab9db071351032828e15bf9c984cf3a48b3f4c52ba709da07"),
    ("LR", ("x^2+3*x*y^2", "y^3-1/2*x^3"), 1):
        (5, 23, "42923dbf477d2972b6cf49ebf4a39929691ac96e51188940b67f1e715034300c"),
}


def _two_reduction_intersection(basis, allowed):
    """Reference: reduce with the positions outside ``allowed`` first, keep
    the rows whose pivot lies inside, and reduce those again in the
    original column order."""
    dim = basis.context.dim
    field = basis.context.ring.field
    perm = [j for j in range(dim) if j not in allowed] + sorted(allowed)
    inv = {old: new for new, old in enumerate(perm)}
    reduced, pivots = rref([[row[j] for j in perm] for row in basis.rows], field)
    keep = [tuple(row[inv[j]] for j in range(dim))
            for row, pivot in zip(reduced, pivots) if pivot >= dim - len(allowed)]
    return rref(keep, field)


@pytest.mark.parametrize("cell", sorted(_RECORDED_BOUNDS))
def test_comparison_bound_certificates_are_byte_identical(cell):
    tag, exprs, j = cell
    X = JetRing(Q, ["x", "y"], 6)
    Y = JetRing(Q, ["u", "v"], 6)
    mad = filtration_make(X, "madic")
    f = MapGerm(X, Y, [X.from_expr(e) for e in exprs])
    text = json.dumps(comparison_bound(tag, f, j, mad).describe(), sort_keys=True)
    report = json.loads(text)
    bound, count, digest = _RECORDED_BOUNDS[cell]
    assert (report["bound"], len(report["certificates"])) == (bound, count)
    assert hashlib.sha256(text.encode()).hexdigest() == digest

    basis = tangent_space(tag, f, 0, mad).basis
    ctx = basis.context
    grades = [mad.mon_order(mon) for _ in range(ctx.ncomp) for mon in X.monomials]
    order_at_least = basis.graded_intersections(grades)
    for d in range(1, mad.vanishing_depth() + 1):
        allowed = ctx.positions_in({m for m in X.monomials if mad.mon_order(m) >= d})
        rows, pivots = _two_reduction_intersection(basis, allowed)
        part = order_at_least(d)
        assert (part.rows, part.pivots) == (rows, pivots), d
        assert basis.intersect_positions(allowed).rows == rows, d


def test_log_and_exp_in_a_family_ring():
    XT = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    gt = RightAut(XT, [XT.from_expr("x + t*x^2")])
    lgt = log_element(gt)["R"]
    assert lgt.exp().comps == gt.comps
    assert log_element(lgt.exp())["R"].comps == lgt.comps


def test_exp_combination_assembles_pairs():
    X3 = JetRing(Q, ["x"], 3)
    YT3 = JetRing(Q, ["y"], 3)
    ec = exp_combination(
        "LR",
        {"L": TargetDerVector(YT3, [YT3.from_expr("y^2")]),
         "R": DerVector(X3, [X3.from_expr("x^2")])},
        X3, YT3)
    assert ec.tag == "LR"
    assert str(ec.outer.comps[0]) == "y+y^2+y^3"
    assert str(ec.right.comps[0]) == "x+x^2+x^3"


def test_matrix_log_recovers_the_matrix_vector():
    X = JetRing(Q, ["x"], 4)
    Y2 = JetRing(Q, ["u", "v"], 4)
    rows = [[X.from_expr("x^2"), X.zero], [X.from_expr("x^3"), X.zero]]
    mv = MatVector(X, Y2, rows)
    kl = mv.exp()
    assert isinstance(kl, JetMatrix)
    parts = log_element(kl)
    assert "Mat" in parts
    back = parts["Mat"]
    for got, want in zip(back.rows, rows):
        assert [str(a) for a in got] == [str(b) for b in want]


def test_a_matrix_nilpotent_beyond_the_jet_dimension_exponentiates():
    # B = S + x*I with S the 4x4 shift, at jet 1 (dim 2): B^4 = 4x*S^3 is
    # nonzero and B^5 = 0, past the dim + 1 bound of an operator on one jet
    X = JetRing(Q, ["x"], 1)
    Y4 = JetRing(Q, ["u", "v", "w", "z"], 1)
    x = X.var("x")
    rows = [[x if i == j else X.one if j == i + 1 else X.zero for j in range(4)]
            for i in range(4)]
    kl = MatVector(X, Y4, rows).exp()
    assert str(kl.rows[0][3]) == "1/6+(1/6)*x"  # (1 + x) exp(S)
    back = log_element(kl)["Mat"]
    assert [[str(e) for e in row] for row in back.rows] == \
        [[str(e) for e in row] for row in rows]
    with pytest.raises(TangentError, match="matrix direction is not nilpotent"):
        MatVector(X, Y4, [[X.one if i == j else X.zero for j in range(4)]
                          for i in range(4)]).exp()


def test_contact_vector_exponentiates_to_a_contact_element():
    X = JetRing(Q, ["x"], 3)
    Y = JetRing(Q, ["y"], 3)
    joint = product_ring(X, Y)
    cv = ContactVector(X, Y, [joint.from_expr("x*y")], joint=joint)
    C = cv.exp()
    back = log_element(C)["C"]
    assert [str(c) for c in back.comps] == ["x*y"]


# -- candidate levels against the probe images ------------------------------

F3 = make_field("F3")


def _oracle_shape(name, F):
    """(source, target, filtrations) for the candidate-level oracle."""
    if name.startswith("line"):
        X, Y = JetRing(F, ["x"], int(name[4:])), JetRing(F, ["u"], int(name[4:]))
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, [["x^2"]])]
    if name in ("plane", "curve"):
        order = 3 if name == "plane" else 4
        X = JetRing(F, ["x", "y"], order)
        Y = JetRing(F, ["u", "v"] if name == "plane" else ["u"], order)
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, [["x", "y^2"]])]
    if name == "family":
        X = JetRing(F, ["x"], 3, tvars=["t"], torder=2)
        Y = JetRing(F, ["u"], 3, tvars=["t"], torder=2)
        return X, Y, [filtration_make(X, f) for f in ("madic", "tadic", [["x^2"]])]
    if name == "axes":
        X = JetRing(F, ["x", "y"], 3)
        Y = JetRing(F, ["u", "v"], 3, ideal=[{(1, 1): F.one}])
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, [["x", "y^2"]])]
    if name == "double":
        X = JetRing(F, ["x"], 4)
        Y = JetRing(F, ["u"], 4, ideal=[{(2,): F.one}])
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, [["x^2"]])]
    raise ValueError(name)


SMOOTH_SHAPES = ["line4", "line6", "plane", "curve", "family"]


def _candidate_levels(F, shape):
    """(filtration kind, kind, vector, candidate level, ``vector_level``) for
    every candidate of every kind on every filtration of the shape; an inf
    candidate level reads as the jet range, where ``vector_level`` caps."""
    X, Y, filts = _oracle_shape(shape, F)
    kinds = ("R", "L", "C") + (() if Y.ideal_gens else ("Mat",))
    cap = X.order + (X.torder or 0)
    joint = product_ring(X, Y)
    return [(filt.kind, kind, vec, cap if level == float("inf") else level,
             vector_level(vec, X, Y, filt))
            for filt in filts for kind in kinds
            for level, vec in _candidates(kind, X, Y, joint, filt)]


@pytest.mark.parametrize("shape", SMOOTH_SHAPES)
def test_candidate_levels_are_the_levels_of_their_vectors(shape):
    # over Q on a smooth target the closed forms are exact, order-0 test
    # monomials of the t-adic and chain filtrations included
    wrong = [(kind, fk, repr(vec), level, exact)
             for fk, kind, vec, level, exact in _candidate_levels(Q, shape) if level != exact]
    assert wrong == []


@pytest.mark.parametrize("F", [Q, F2, F3, F5], ids=str)
@pytest.mark.parametrize("shape", SMOOTH_SHAPES + ["axes", "double"])
def test_candidate_levels_never_exceed_the_levels_of_their_vectors(shape, F):
    # the closed forms ignore the target ideal and a vanishing mu_i in
    # characteristic p, both of which can only raise the exact level
    high = [(kind, fk, repr(vec), level, exact)
            for fk, kind, vec, level, exact in _candidate_levels(F, shape) if level > exact]
    assert high == []


# -- the one-pass comparison bound against the d-by-d search -----------------

QA = make_extension(Q, "a^2-2").top


def _bound_by_search(tag, f, j, filt):
    """Reference: try d = 1, 2, ... below the vanishing depth, and take the
    first d at which every canonical basis row of (full tangent image) meet
    {order >= d} lies in the level-j image; the vanishing depth, with no
    certificates, if none does."""
    frame0, framej = tangent_space(tag, f, 0, filt), tangent_space(tag, f, j, filt)
    ctx = frame0.context
    grades = [filt.mon_order(mon) for _ in range(ctx.ncomp) for mon in ctx.ring.monomials]
    part = frame0.basis.graded_intersections(grades)
    top = filt.vanishing_depth()
    for d in range(1, top):
        rows = part(d).rows
        coords = [framej.basis.membership(row) for row in rows]
        if all(c is not None for c in coords):
            return d, [{"vector": [str(c) for c in ctx.to_jets(row)],
                        "coordinates": [str(c) for c in cs]}
                       for row, cs in zip(rows, coords)]
    return top, []


def _bound_shape(name, F):
    """(source, target, filtrations, map components) of one oracle shape;
    the coefficient c is the generator over Q(sqrt 2), else 2."""
    c = F.generator_env().get("a", F.from_int(2))
    if name == "line":
        X, Y = JetRing(F, ["x"], 5), JetRing(F, ["u"], 5)
        filts = [filtration_make(X, "madic"), filtration_make(X, [["x^2"]])]
        return X, Y, filts, [X.from_expr("x^2") + X.from_expr("x^3").scale(c)]
    if name == "plane":
        X, Y = JetRing(F, ["x", "y"], 3), JetRing(F, ["u", "v"], 3)
        filts = [filtration_make(X, "madic"), filtration_make(X, [["x", "y^2"]])]
        return X, Y, filts, [X.from_expr("x^2"), X.from_expr("y^2+x*y").scale(c)]
    if name == "family":
        X = JetRing(F, ["x"], 3, tvars=["t"], torder=2)
        Y = JetRing(F, ["u"], 3, tvars=["t"], torder=2)
        filts = [filtration_make(X, spec) for spec in ("madic", "tadic", [["x^2"]])]
        return X, Y, filts, [X.from_expr("x^2+t*x") + X.from_expr("x^3").scale(c)]
    if name == "axes":
        # maps into the union of the two axes, uv = 0
        X = JetRing(F, ["x", "y"], 3)
        Y = JetRing(F, ["u", "v"], 3, ideal=[{(1, 1): F.one}])
        return X, Y, [filtration_make(X, "madic")], [
            X.from_expr("x^2") + X.from_expr("x*y").scale(c), X.zero]
    if name == "quotient":
        # x*y reduces to y^2 + y^3
        X = JetRing(F, ["x", "y"], 3,
                    ideal=[{(1, 1): F.one, (0, 2): -F.one, (0, 3): -F.one}])
        Y = JetRing(F, ["u"], 3)
        return X, Y, [filtration_make(X, "madic")], [
            X.from_expr("x^2") + X.from_expr("y^2").scale(c)]
    raise ValueError(name)


@pytest.mark.parametrize("F", [Q, QA, F3], ids=["Q", "Qsqrt2", "F3"])
@pytest.mark.parametrize("shape", ["line", "plane", "family", "axes", "quotient"])
def test_one_pass_bound_matches_the_search_over_every_d(shape, F):
    X, Y, filts, comps = _bound_shape(shape, F)
    f = MapGerm(X, Y, comps)
    tags = [t for t in GROUP_TAGS if not (t == "Klin" and Y.ideal_gens)]
    seen = set()
    for filt in filts:
        for tag in tags:
            for j in (1, 2):
                if tag == "LR" and filt.order_of(f.components) < 1:
                    with pytest.raises(TangentError, match="positive filtration order"):
                        comparison_bound(tag, f, j, filt)
                    continue
                cb = comparison_bound(tag, f, j, filt)
                assert (cb.bound, cb.certificates) == _bound_by_search(tag, f, j, filt), \
                    (filt.kind, tag, j)
                seen.add("vacuous" if cb.bound == filt.vanishing_depth()
                         else "certified" if cb.certificates else "empty")
    # the shape reaches a bound inside the jet window with certificates
    assert "certified" in seen


def test_comparison_bound_reduces_three_times(monkeypatch):
    # the level-j span, the graded echelon of the full images and the one
    # canonical part that the certificates print
    X, Y = JetRing(Q, ["x", "y"], 6), JetRing(Q, ["u", "v"], 6)
    f = MapGerm(X, Y, [X.from_expr("x^2"), X.from_expr("y^3")])
    mad = filtration_make(X, "madic")
    calls = []

    def counting_rref(rows, field):
        calls.append(1)
        return rref(rows, field)

    monkeypatch.setattr(jets, "rref", counting_rref)
    cb = comparison_bound("R", f, 1, mad)
    assert (cb.bound, len(cb.certificates)) == (4, 27)
    assert len(calls) <= 3


def test_candidate_levels_are_computed_once_per_rings_and_filtration(monkeypatch):
    X, Y = JetRing(Q, ["x", "y"], 4), JetRing(Q, ["u", "v"], 4)
    mad = filtration_make(X, "madic")
    calls = []

    def counting_least_gain(*args):
        calls.append(1)
        return least_gain(*args)

    least_gain = tangent._least_gain
    monkeypatch.setattr(tangent, "_least_gain", counting_least_gain)
    first = MapGerm(X, Y, [X.from_expr("x^2"), X.from_expr("y^3")])
    second = MapGerm(X, Y, [X.from_expr("x^2+y^4"), X.from_expr("y^3+x*y")])
    comparison_bound("K", first, 1, mad)
    assert calls
    count = len(calls)
    again = comparison_bound("K", second, 1, mad)
    assert len(calls) == count
    # the cached levels give what a fresh filtration computes
    fresh = comparison_bound("K", second, 1, filtration_make(X, "madic"))
    assert again.describe() == fresh.describe()
    # a second target ring on the same filtration gets its own levels
    Y1 = JetRing(Q, ["u"], 4)
    count = len(calls)
    other = comparison_bound("K", MapGerm(X, Y1, [X.from_expr("x^2+y^3")]), 1, mad)
    assert len(calls) > count
    fresh = comparison_bound("K", MapGerm(X, Y1, [X.from_expr("x^2+y^3")]), 1,
                             filtration_make(X, "madic"))
    assert other.describe() == fresh.describe()


def _is_pair_row(row):
    return all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], int)
               and not e[1].is_zero() for e in row)


@pytest.mark.parametrize("shape", ["plane", "quotient"])
def test_comparison_bound_builds_no_dense_row(monkeypatch, shape):
    # rref gets pair rows only, and no dense vector is built or scanned on
    # the way from the tangent images to the certificates
    X, Y, filts, comps = _bound_shape(shape, Q)
    f = MapGerm(X, Y, comps)
    seen, dense = [], []

    def recording_rref(rows, field):
        rows = [list(row) for row in rows]
        seen.extend(rows)
        return rref(rows, field)

    def recording_pairs_of(row):
        if row and not isinstance(row[0], tuple):
            dense.append(row)
        return pairs_of(row)

    def recording_dense(ctx, row):
        dense.append(row)
        return to_dense(ctx, row)

    pairs_of, to_dense = jets.pairs_of, jets.VectorContext.dense
    monkeypatch.setattr(jets, "rref", recording_rref)
    monkeypatch.setattr(jets, "pairs_of", recording_pairs_of)
    monkeypatch.setattr(jets.VectorContext, "dense", recording_dense)
    bounds = [comparison_bound(tag, f, 1, filts[0]) for tag in GROUP_TAGS]
    assert any(cb.certificates for cb in bounds)
    assert any(seen)
    assert [row for row in seen if not _is_pair_row(row)] == []
    assert dense == []


@pytest.mark.parametrize("shape", ["plane", "quotient"])
def test_frame_images_are_the_dense_images_of_their_entries(shape):
    X, Y, filts, comps = _bound_shape(shape, Q)
    f = MapGerm(X, Y, comps)
    ctx = f.context()
    for tag in GROUP_TAGS:
        for j in (0, 1, 2):
            frame = tangent_space(tag, f, j, filts[0])
            assert len(frame.images) == len(frame.sparse_images) == len(frame.entries)
            for entry, image, pairs in zip(frame.entries, frame.images, frame.sparse_images):
                assert image == ctx.to_vec(entry.apply(f)) == ctx.dense(pairs)
                assert _is_pair_row(pairs)
    if shape == "quotient":
        # on xy = y^2 + y^3 the source vectors are kernel combinations of
        # the monomial candidates, not the candidates themselves
        frame = tangent_space("R", f, 1, filts[0])
        cands = {id(vec) for _, vec in _candidates("R", X, Y, None, filts[0])}
        assert any(id(e) not in cands for e in frame.entries)
