import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from germ.descent import central_fiber, element_t_slice
from germ.exactfield import make_extension, make_field
from germ.germs import (
    GROUP_TAGS,
    Contact,
    ContactLinPair,
    GermError,
    JetMatrix,
    LRPair,
    LeftAut,
    MapGerm,
    Pair,
    RightAut,
    extend_element,
    extend_map,
    extend_ring,
    _is_singular,
    group_level,
    identity_element,
    level_probes,
    product_ring,
    restrict_map,
)
from germ.jets import JetRing, filtration_make
from germ.tangent import ContactVector, DerVector, TargetDerVector, vector_level

Q = make_field("Q")


@pytest.fixture(scope="module")
def line4():
    X = JetRing(Q, ["x"], 4)
    Y = JetRing(Q, ["y"], 4)
    return X, Y, MapGerm(X, Y, [X.from_expr("x^2")])


def test_source_change_substitutes_into_the_map(line4):
    X, Y, f = line4
    phi = RightAut(X, [X.from_expr("x + x^2")])
    assert str(phi.act(f).components[0]) == "x^2+2*x^3+x^4"


def test_source_change_inverse_is_the_reverted_series(line4):
    X, _, _ = line4
    phi = RightAut(X, [X.from_expr("x + x^2")])
    inv = phi.inverse()
    assert str(inv.comps[0]) == "x-x^2+2*x^3-5*x^4"
    assert phi.compose(inv).is_identity()
    assert inv.compose(phi).is_identity()


def test_composition_is_an_action(line4):
    X, _, f = line4
    phi = RightAut(X, [X.from_expr("x + x^2")])
    psi = RightAut(X, [X.from_expr("x - x^3")])
    assert phi.compose(psi).act(f) == phi.act(psi.act(f))


def test_target_change_acts_by_postcomposition(line4):
    _, Y, f = line4
    lam = LeftAut(Y, [Y.from_expr("y + y^2")])
    assert str(lam.act(f).components[0]) == "x^2+x^4"
    lam2 = LeftAut(Y, [Y.from_expr("y - y^2")])
    assert lam.compose(lam2).act(f) == lam.act(lam2.act(f))
    assert lam.compose(lam.inverse()).is_identity()


def test_target_changes_compose_in_action_order():
    # a non-commuting pair: either composition order moves the map, and
    # only one of them matches the nested action
    Y = JetRing(Q, ["u", "v"], 4)
    X = JetRing(Q, ["x"], 4)
    f = MapGerm(X, Y, [X.from_expr("x"), X.from_expr("x^2")])
    lam = LeftAut(Y, [Y.from_expr("u+v^2"), Y.from_expr("v")])
    mu = LeftAut(Y, [Y.from_expr("u"), Y.from_expr("v+u^2")])
    assert lam.act(mu.act(f)) != mu.act(lam.act(f))
    assert lam.compose(mu).act(f) == lam.act(mu.act(f))
    assert mu.compose(lam).act(f) == mu.act(lam.act(f))


def test_paired_changes(line4):
    X, Y, f = line4
    lam = LeftAut(Y, [Y.from_expr("y + y^2")])
    phi = RightAut(X, [X.from_expr("x + x^2")])
    pair = Pair(lam, phi)
    assert pair.act(f) == lam.act(phi.act(f))
    assert pair.compose(pair.inverse()).is_identity()
    pair2 = Pair(LeftAut(Y, [Y.from_expr("y - y^2")]),
                 RightAut(X, [X.from_expr("x - x^3")]))
    assert pair.compose(pair2).act(f) == pair.act(pair2.act(f))


def test_two_variable_change_over_a_number_field():
    K = make_extension(Q, "a^2 - 2")
    QA = K.top
    X2 = JetRing(QA, ["x", "y"], 3)
    Y2 = JetRing(QA, ["u", "v"], 3)
    f2 = MapGerm(X2, Y2, [X2.from_expr("x + y^2"), X2.from_expr("y")])
    rot = RightAut(X2, [X2.from_expr("x + y^2"), X2.from_expr("y + a*y^3")])
    assert str(rot.act(f2).components[0]) == "x+2*y^2"
    assert rot.compose(rot.inverse()).is_identity()
    assert rot.inverse().compose(rot).is_identity()


def test_matrix_pair_acts_composes_and_inverts():
    X = JetRing(Q, ["x"], 4)
    Y2 = JetRing(Q, ["u", "v"], 4)
    M = [[X.from_expr("1 + x"), X.from_expr("x^2")],
         [X.zero, X.from_expr("1 - x")]]
    kl = Pair(JetMatrix(X, Y2, M), RightAut(X, [X.from_expr("x + x^3")]))
    fv = MapGerm(X, Y2, [X.from_expr("x^2"), X.from_expr("x^3")])
    out = kl.act(fv)
    assert str(out.components[0]) == "x^2+x^3+2*x^4"
    assert str(out.components[1]) == "x^3-x^4"
    assert kl.inverse().act(out) == fv
    kl2 = Pair(JetMatrix(X, Y2, [[X.one, X.from_expr("x")], [X.from_expr("x^2"), X.one]]),
               RightAut(X, [X.from_expr("x - x^2")]))
    assert kl.compose(kl2).act(fv) == kl.act(kl2.act(fv))


def test_earlier_pair_constructors_build_pairs():
    X = JetRing(Q, ["x"], 4)
    Y, Y2 = JetRing(Q, ["y"], 4), JetRing(Q, ["u", "v"], 4)
    phi = RightAut(X, [X.from_expr("x + x^2")])
    lam = LeftAut(Y, [Y.from_expr("y + y^2")])
    assert LRPair(lam, phi) == Pair(lam, phi)
    M = [[X.from_expr("1 + x"), X.zero], [X.from_expr("x"), X.one]]
    kl = ContactLinPair(X, Y2, M, phi)
    assert kl == Pair(JetMatrix(X, Y2, M), phi) and kl.tag == "Klin"
    one = ContactLinPair.identity(X, Y2)
    assert one.is_identity() and one.matrix == JetMatrix.identity(X, Y2).rows
    assert ContactLinPair(X, Y2, one.matrix, phi) == Pair(JetMatrix.identity(X, Y2), phi)


def test_contact_element_on_a_smooth_target():
    XC = JetRing(Q, ["x"], 3)
    YC = JetRing(Q, ["y"], 3)
    joint = product_ring(XC, YC)
    C = Contact(XC, YC, [joint.from_expr("y + x*y + y^2")])
    fc = MapGerm(XC, YC, [XC.from_expr("x^2")])
    cf = C.act(fc)
    assert str(cf.components[0]) == "x^2+x^3"
    D = C.inverse()
    assert C.compose(D).is_identity()
    assert D.compose(C).is_identity()
    assert D.act(cf) == fc


def test_contact_must_vanish_on_the_zero_section():
    XC = JetRing(Q, ["x"], 3)
    YC = JetRing(Q, ["y"], 3)
    joint = product_ring(XC, YC)
    with pytest.raises(GermError, match="zero section"):
        Contact(XC, YC, [joint.from_expr("x + y")])


def test_coordinate_changes_must_fix_the_origin_for_every_parameter():
    # x -> x + t moves the origin off itself at t != 0: no group element
    XT = JetRing(Q, ["x"], 3, tvars=["t"], torder=2)
    for cls in (RightAut, LeftAut):
        with pytest.raises(GermError, match="'x' has a parameter-only term"):
            cls(XT, [XT.from_expr("x + t")])
        with pytest.raises(GermError, match="'x' has a constant term"):
            cls(XT, [XT.from_expr("x + t + 1")])
        cls(XT, [XT.from_expr("x + t*x + x^2")])


def test_contact_pair_round_trip():
    XC = JetRing(Q, ["x"], 3)
    YC = JetRing(Q, ["y"], 3)
    joint = product_ring(XC, YC)
    C = Contact(XC, YC, [joint.from_expr("y + x*y + y^2")])
    fc = MapGerm(XC, YC, [XC.from_expr("x^2")])
    kp = Pair(C, RightAut(XC, [XC.from_expr("x + x^2")]))
    assert kp.inverse().act(kp.act(fc)) == fc
    kp2 = Pair(Contact(XC, YC, [joint.from_expr("y - x^2*y")]),
               RightAut(XC, [XC.from_expr("x - x^3")]))
    assert kp.compose(kp2).act(fc) == kp.act(kp2.act(fc))
    assert kp.compose(kp.inverse()).is_identity()


def test_contact_on_a_singular_target():
    YS = JetRing(Q, ["y"], 3, ideal=[{(2,): Q.one}])
    XS = JetRing(Q, ["x"], 3)
    fS = MapGerm(XS, YS, [XS.from_expr("x^2")])
    jointS = product_ring(XS, YS)
    CS = Contact(XS, YS, [jointS.from_expr("y + x*y")])
    assert str(CS.act(fS).components[0]) == "x^2+x^3"


def test_maps_must_respect_the_target_ideal():
    YS = JetRing(Q, ["y"], 3, ideal=[{(2,): Q.one}])
    XS = JetRing(Q, ["x"], 3)
    with pytest.raises(GermError, match="target ideal"):
        MapGerm(XS, YS, [XS.from_expr("x")])
    # out of a singular source the pullback dies in the quotient
    XQ = JetRing(Q, ["x"], 3, ideal=[{(2,): Q.one}])
    fq = MapGerm(XQ, YS, [XQ.from_expr("x")])
    assert fq.pullback(YS.ideal_gen_jets()[0]).is_zero()


def test_source_changes_must_preserve_the_ideal():
    XW = JetRing(Q, ["x", "y"], 3, ideal=[{(2, 0): Q.one}])
    RightAut(XW, [XW.from_expr("x + x*y"), XW.from_expr("y + y^2")])
    with pytest.raises(GermError, match="preserve"):
        RightAut(XW, [XW.from_expr("y"), XW.from_expr("x")])


def test_inverses_inside_a_quotient_ring():
    XQ3 = JetRing(Q, ["x", "y"], 3, ideal=[{(2, 0): Q.one}])
    aut = RightAut(XQ3, [XQ3.from_expr("x + x*y"), XQ3.from_expr("y + y^2")])
    assert aut.compose(aut.inverse()).is_identity()
    assert aut.inverse().compose(aut).is_identity()


def test_group_levels_for_the_order_filtration():
    X4 = JetRing(Q, ["x"], 4)
    Y4 = JetRing(Q, ["y"], 4)
    mad = filtration_make(X4, "madic")
    assert group_level(identity_element("R", X4, Y4), X4, Y4, mad) == 4
    assert group_level(RightAut(X4, [X4.from_expr("x + x^3")]), X4, Y4, mad) == 2
    assert group_level(RightAut(X4, [X4.from_expr("x + x^2")]), X4, Y4, mad) == 1
    assert group_level(RightAut(X4, [X4.from_expr("2*x")]), X4, Y4, mad) == 0


def test_group_level_sees_target_side_moves():
    Y22 = JetRing(Q, ["u", "v"], 3)
    X22 = JetRing(Q, ["x", "y"], 3)
    mad22 = filtration_make(X22, "madic")
    lam = LeftAut(Y22, [Y22.from_expr("u + u*v"), Y22.from_expr("v")])
    assert group_level(lam, X22, Y22, mad22) == 1
    X4 = JetRing(Q, ["x"], 4)
    Y4 = JetRing(Q, ["y"], 4)
    mad = filtration_make(X4, "madic")
    kl = Pair(JetMatrix(X4, Y4, [[X4.from_expr("1 + x^2")]]), RightAut.identity(X4))
    assert group_level(kl, X4, Y4, mad) == 2


def test_group_level_in_a_family_with_the_parameter_filtration():
    XT = JetRing(Q, ["x"], 3, tvars=["t"], torder=1)
    YT = JetRing(Q, ["y"], 3, tvars=["t"], torder=1)
    tad = filtration_make(XT, "tadic")
    assert group_level(RightAut(XT, [XT.from_expr("x + t*x^2")]), XT, YT, tad) == 1
    assert group_level(RightAut(XT, [XT.from_expr("x + x^2")]), XT, YT, tad) == 0


def test_scalar_extension_and_restriction(line4):
    X, Y, f = line4
    K = make_extension(Q, "a^2 - 2")
    XK = extend_ring(X, K)
    YK = extend_ring(Y, K)
    fK = extend_map(f, K, XK, YK)
    assert str(fK.components[0]) == "x^2"
    phi = RightAut(X, [X.from_expr("x + x^2")])
    phiK = extend_element(phi, K, XK, YK)
    down = restrict_map(phiK.act(fK), K, X, Y)
    assert down == phi.act(f)
    sq2 = RightAut(XK, [XK.from_expr("x + a*x^2")])
    assert restrict_map(sq2.act(fK), K, X, Y) is None


def _random_jet(rng, ring, min_deg, max_terms=3):
    coeffs = {}
    mons = [m for m in ring.monomials if sum(m) >= min_deg]
    for mon in rng.sample(mons, min(max_terms, len(mons))):
        coeffs[mon] = ring.field.from_int(rng.randrange(-3, 4))
    return ring.jet(coeffs)


def _random_right(rng, ring):
    comps = []
    for name in ring.xvars:
        comps.append(ring.var(name) + _random_jet(rng, ring, 2))
    return RightAut(ring, comps, validate=False)


@pytest.mark.parametrize("seed", range(6))
def test_action_axioms_hold_for_random_pairs(seed):
    rng = random.Random(seed)
    X = JetRing(Q, ["x", "y"], 3)
    Y = JetRing(Q, ["u"], 3)
    f = MapGerm(X, Y, [X.from_expr("x^2 + y^3")])
    g1, g2 = _random_right(rng, X), _random_right(rng, X)
    assert g1.compose(g2).act(f) == g1.act(g2.act(f))
    assert g1.compose(g1.inverse()).is_identity()
    l1 = LeftAut(Y, [Y.var("u") + _random_jet(rng, Y, 2)], validate=False)
    p1 = Pair(l1, g1)
    assert p1.inverse().act(p1.act(f)) == f
    # every group on every probe-set shape
    for shape, tag in SHAPE_TAGS:
        X, Y, _ = _shape(shape, Q)
        f = MapGerm(X, Y, [X.from_expr(e) for e in AXIOM_MAPS[shape]])
        g, h = _group_element(rng, tag, X, Y), _group_element(rng, tag, X, Y)
        assert g.compose(h).act(f) == g.act(h.act(f)), (shape, tag)
        assert g.inverse().act(g.act(f)) == f, (shape, tag)
        assert g.compose(g.inverse()).is_identity(), (shape, tag)


# -- group_level against the exhaustive per-probe action ---------------------

QA = make_extension(Q, "a^2 - 2").top


def _oracle_probes(source, target, linear):
    """Single monomials in one slot when ``linear``, otherwise every tuple
    of unit monomials that ``MapGerm`` validates against the target ideal."""
    units = [source.jet({mon: source.domain.one})
             for mon in source.monomials if sum(mon) > 0]
    units = [u for u in units if not u.is_zero()]
    m = target.nx
    if linear:
        return [tuple(u if i == slot else source.zero for i in range(m))
                for u in units for slot in range(m)]
    probes = []
    for comps in itertools.product([source.zero] + units, repeat=m):
        if all(c.is_zero() for c in comps):
            continue
        try:
            MapGerm(source, target, comps)
        except GermError:
            continue
        probes.append(comps)
    return probes


def _oracle_min_gain(images, source, filt):
    """min of ord(out) - ord(v) over the pairs (v, out) with out nonzero,
    capped by the jet range; -1 when it is below 0."""
    level = source.order + (source.torder or 0)
    for comps, out in images:
        if all(d.is_zero() for d in out):
            continue
        level = min(level, filt.order_of(out) - filt.order_of(comps))
        if level < 0:
            return -1
    return level


def _oracle_level(element, source, target, filt):
    """The level by acting with ``element.act`` on every test map: single
    monomials in one slot for R and Klin, otherwise every tuple of unit
    monomials that respects the target ideal."""
    def diff(comps):
        moved = element.act(MapGerm(source, target, comps, validate=False))
        return [a - b for a, b in zip(moved.components, comps)]

    probes = _oracle_probes(source, target, element.tag in ("R", "Klin"))
    return _oracle_min_gain(((v, diff(v)) for v in probes), source, filt)


def _shape(name, F):
    """(source, target, filtrations) of one probe-set shape over ``F``."""
    if name == "line":
        X, Y = JetRing(F, ["x"], 4), JetRing(F, ["u"], 4)
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, [["x^2"]])]
    if name == "plane":
        X, Y = JetRing(F, ["x", "y"], 3), JetRing(F, ["u", "v"], 3)
        return X, Y, [filtration_make(X, "madic")]
    if name == "family":
        X = JetRing(F, ["x"], 3, tvars=["t"], torder=2)
        Y = JetRing(F, ["u"], 3, tvars=["t"], torder=2)
        return X, Y, [filtration_make(X, "madic"), filtration_make(X, "tadic")]
    if name == "singular":
        # maps into the union of the two axes, uv = 0
        X = JetRing(F, ["x", "y"], 3)
        Y = JetRing(F, ["u", "v"], 3, ideal=[{(1, 1): F.one}])
        return X, Y, [filtration_make(X, "madic")]
    if name == "quotient":
        # x*y reduces to y^2 + y^3, so that probe is no single monomial
        X = JetRing(F, ["x", "y"], 3,
                    ideal=[{(1, 1): F.one, (0, 2): -F.one, (0, 3): -F.one}])
        Y = JetRing(F, ["u"], 3)
        return X, Y, [filtration_make(X, "madic")]
    raise ValueError(name)


SHAPE_TAGS = [(shape, tag) for shape in ("line", "plane", "family", "quotient")
              for tag in ("R", "L", "LR", "C", "K", "Klin")]
SHAPE_TAGS += [("singular", tag) for tag in ("R", "L", "LR", "C", "K")]


def _scalar(rng, F):
    c = F.from_int(rng.randrange(-2, 3))
    if F is QA and rng.random() < 0.5:
        c = c + F.from_int(rng.randrange(-2, 3)) * F.generator_env()["a"]
    return c


def _bump(rng, ring, min_deg, keep=lambda mon: True, terms=3):
    mons = [m for m in ring.monomials if sum(m) >= min_deg and keep(m)]
    picked = rng.sample(mons, min(terms, len(mons)))
    return ring.jet({m: _scalar(rng, ring.field) for m in picked})


def _random_element(rng, tag, source, target):
    """A random element of ``tag``; target-side parts keep the target
    ideal when it is the monomial ideal (u*v)."""
    def right():
        return RightAut(source, [source.var(n) + _bump(rng, source, rng.choice((1, 2, 3)))
                                 for n in source.xvars], validate=False)

    def fiberwise(ring, names):
        # y_k + y_k * h_k keeps (u*v); on a smooth target any term with a
        # target variable in it will do
        out = []
        for k, n in enumerate(names):
            y = ring.var(n)
            if target.ideal_gens:
                out.append(y + y * _bump(rng, ring, 1))
            else:
                pos = [ring.var_index[v] for v in names]
                out.append(y + _bump(rng, ring, rng.choice((1, 2)),
                                     keep=lambda mon: any(mon[p] for p in pos)))
        return out

    def left():
        return LeftAut(target, fiberwise(target, target.xvars), validate=False)

    def contact():
        joint = product_ring(source, target)
        return Contact(source, target, fiberwise(joint, target.xvars),
                       joint=joint, validate=False)

    if tag == "R":
        return right()
    if tag == "L":
        return left()
    if tag == "LR":
        return Pair(left(), right())
    if tag == "C":
        return contact()
    if tag == "K":
        return Pair(contact(), right())
    m = target.nx
    matrix = [[(source.one if i == j else source.zero)
               + _bump(rng, source, rng.choice((0, 1)), terms=2)
               for j in range(m)] for i in range(m)]
    return Pair(JetMatrix(source, target, matrix, validate=False), right())


AXIOM_MAPS = {
    "line": ["x^2 + x^3"],
    "plane": ["x^2 + y^3", "x*y"],
    "family": ["x^2 + t*x"],
    "singular": ["x^2 + y^3", "0"],
    "quotient": ["x^2 + y^3"],
}


def _with_right(g, right):
    """``g`` with its source change replaced by ``right``."""
    return right if g.tag == "R" else Pair(g.outer, right)


def _group_element(rng, tag, source, target):
    """A random element of ``_random_element`` with invertible linear parts
    whose source change keeps the truncation and the source ideal.

    x -> x + t does not keep the truncation of a family ring ((x+t)^4 has
    terms in range), so such draws are skipped.  On a quotient source the
    source change is exp(h * D) instead, D = dg/dy d/dx - dg/dx d/dy
    killing the generator g and h of order >= 1.
    """
    while True:
        g = _random_element(rng, tag, source, target)
        right = g if tag == "R" else getattr(g, "right", None)
        if right is not None and source.ideal_gens:
            gen = source.ideal_gen_jets()[0]
            dx, dy = (source.jet(gen.derivative(n).coeffs) for n in source.xvars)
            h = _bump(rng, source, 1)
            right = DerVector(source, [h * dy, -(h * dx)]).exp()
            g = _with_right(g, right)
        if any(_is_singular(p.linear_part(), source.field) for p in g.factors()):
            continue
        if right is None or all(sum(mon[:source.nx]) >= 1
                                for c in right.comps for mon in c.coeffs):
            return g


def test_the_quotient_shape_has_a_probe_that_is_no_single_monomial():
    X, _, _ = _shape("quotient", Q)
    assert str(X.from_expr("x*y")) == "y^2+y^3"


def test_group_level_keeps_powers_of_a_family_right_part_beyond_the_jet_range():
    X, Y, (madic, tadic) = _shape("family", Q)
    pair = Pair(LeftAut(Y, [Y.from_expr("u + u^2")], validate=False),
                RightAut(X, [X.from_expr("x + t")], validate=False))
    # (x+t)^4 = ... + 6*x^2*t^2 + ... is inside the jet range although x^4 is not
    for filt in (madic, tadic):
        assert group_level(pair, X, Y, filt) == _oracle_level(pair, X, Y, filt)


@pytest.mark.parametrize("F", [Q, QA], ids=["Q", "Qsqrt2"])
@pytest.mark.parametrize("shape,tag", SHAPE_TAGS)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(rng=st.randoms(use_true_random=False), which=st.integers(0, 1))
def test_group_level_matches_the_exhaustive_action(shape, tag, F, rng, which):
    X, Y, filts = _shape(shape, F)
    filt = filts[which % len(filts)]
    # a quotient source needs source changes that keep its ideal
    draw = _group_element if shape == "quotient" else _random_element
    g = draw(rng, tag, X, Y)
    assert group_level(g, X, Y, filt) == _oracle_level(g, X, Y, filt)


@pytest.mark.parametrize("shape", ["singular", "cusp", "singular-family"])
def test_tuple_probes_are_the_tuples_that_map_germ_validates(shape):
    if shape == "singular":
        X, Y, _ = _shape("singular", Q)
    elif shape == "cusp":
        # u^2 = v^3, with probes that vanish on it only by truncation
        X = JetRing(Q, ["x", "y"], 3)
        Y = JetRing(Q, ["u", "v"], 3, ideal=[{(2, 0): Q.one, (0, 3): -Q.one}])
    else:
        # u*v = t*u^2 over a parameter
        X = JetRing(Q, ["x", "y"], 2, tvars=["t"], torder=1)
        Y = JetRing(Q, ["u", "v"], 2, tvars=["t"], torder=1,
                    ideal=[{(1, 1, 0): Q.one, (2, 0, 1): -Q.one}])
    probes = list(level_probes(X, Y, False))
    assert probes == _oracle_probes(X, Y, False)
    assert len(probes) < len(X.monomials) ** 2 - 1


def _random_vector(rng, kind, source, target):
    """A random L or C vector with every coefficient in the target
    variables, so that it vanishes on the zero section."""
    ring = target if kind == "L" else product_ring(source, target)
    pos = [ring.var_index[n] for n in target.xvars]
    comps = [_bump(rng, ring, rng.choice((1, 2, 3)), keep=lambda mon: any(mon[p] for p in pos))
             for _ in target.xvars]
    if kind == "L":
        return TargetDerVector(target, comps)
    return ContactVector(source, target, comps, joint=ring)


@pytest.mark.parametrize("F", [Q, QA], ids=["Q", "Qsqrt2"])
@pytest.mark.parametrize("shape", ["plane", "family", "singular"])
@pytest.mark.parametrize("kind", ["L", "C"])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(rng=st.randoms(use_true_random=False), which=st.integers(0, 1))
def test_vector_level_matches_apply_comps_on_every_probe(kind, shape, F, rng, which):
    X, Y, filts = _shape(shape, F)
    filt = filts[which % len(filts)]
    vec = _random_vector(rng, kind, X, Y)
    images = ((v, vec.apply_comps(list(v), X)) for v in _oracle_probes(X, Y, False))
    assert vector_level(vec, X, Y, filt) == _oracle_min_gain(images, X, filt)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_extension_and_slicing_reach_every_stored_jet(tag, seed):
    rng = random.Random(seed)
    # extending the coefficients commutes with the action
    X, Y, _ = _shape("plane", Q)
    f = MapGerm(X, Y, [X.from_expr("x^2"), X.from_expr("y^2 + x*y")])
    g = _random_element(rng, tag, X, Y)
    K = make_extension(Q, "a^2 - 2")
    XK, YK = extend_ring(X, K), extend_ring(Y, K)
    gK = extend_element(g, K, XK, YK)
    assert type(gK) is type(g)
    assert gK.act(extend_map(f, K, XK, YK)) == extend_map(g.act(f), K, XK, YK)
    # the parameter-zero slice sets t = 0 in every stored jet, and setting
    # t = 0 commutes with acting on a map free of t
    XF, YF, _ = _shape("family", Q)
    h = _random_element(rng, tag, XF, YF)
    sliced = element_t_slice(h)
    assert type(sliced) is type(h)

    def drop_t(data):
        # jets describe as {monomial: coefficient}; drop the monomials with t
        if isinstance(data, dict):
            return {k: drop_t(v) for k, v in data.items()
                    if not (isinstance(v, str) and "t" in k.replace("^", "*").split("*"))}
        if isinstance(data, list):
            return [drop_t(v) for v in data]
        return data

    assert sliced.describe() == drop_t(h.describe())
    f0 = MapGerm(XF, YF, [XF.from_expr("x^2 + x^3")])
    assert sliced.act(f0) == central_fiber(h.act(f0))


def test_singular_linear_parts_are_rejected():
    f9 = make_field("F3[b]/(b^2+1)")
    X2 = JetRing(f9, ["x", "y"], 2)
    Y2 = JetRing(f9, ["u", "v"], 2)
    joint = product_ring(X2, Y2)
    RightAut(X2, [X2.from_expr("x+b*y"), X2.from_expr("b*x+y")])
    with pytest.raises(GermError, match="singular linear part"):
        RightAut(X2, [X2.from_expr("x+b*y"), X2.from_expr("b*x+2*y")])
    one, b = X2.one, X2.from_expr("b")
    JetMatrix(X2, Y2, [[one, b], [b, one]])
    with pytest.raises(GermError, match="singular at the base point"):
        JetMatrix(X2, Y2, [[one + X2.from_expr("x"), b], [b, 2 * one]])
    Contact(X2, Y2, [joint.from_expr("u+b*v"), joint.from_expr("b*u+v")])
    with pytest.raises(GermError, match="target-linear part is singular"):
        Contact(X2, Y2, [joint.from_expr("u+b*v+x*u"), joint.from_expr("b*u+2*v")])
