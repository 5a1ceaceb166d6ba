"""Command line front end.

A session file declares the coefficient field, truncation orders, the
source and target germ spaces, and named objects (maps, coordinate
changes, contact elements, filtrations, vector fields).  Subcommands act
on those objects and print a JSON report; the wall-clock time stays out
of the report so that output is byte-identical across runs.

Exit codes: 0 on success, 2 on a mathematically negative answer (no
solutions, obstructed descent), 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Optional

from .exactfield import make_extension, make_field
from .expr import ExprError, names_in, parse as parse_expr
from .jets import Filtration, JetRing, filtration_make
from .germs import (
    GROUP_FACTORS,
    GROUP_TAGS,
    MapGerm,
    extend_ring,
    factor_layout,
    from_factors,
    group_level,
    product_ring,
)
from .tangent import (
    DerVector,
    comparison_bound,
    log_element,
    tangent_space,
    vector_level,
)
from .descent import DescentError, DescentProblem, descend
from .polysys import (
    brute_solve,
    compile_system,
    groebner_inconsistent,
    orbit_split,
    system_from_json,
)


class CLIError(Exception):
    """Command failure carrying the process exit code."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class SessionError(CLIError):
    """Session text rejected; carries the offending line (and column)."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        super().__init__(message, 1)
        self.line = line
        self.column = column


def _split_tuple(text: str):
    """Components of a parenthesized tuple, split at top-level commas."""
    s = text.strip()
    if not s.startswith("("):
        raise ValueError("expected a parenthesized tuple")
    depth = 0
    items, buf = [], []
    end = -1
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                items.append("".join(buf).strip())
                end = i
                break
        elif ch == "," and depth == 1:
            items.append("".join(buf).strip())
            buf = []
            continue
        buf.append(ch)
    if end < 0:
        raise ValueError("unbalanced parenthesis")
    rest = s[end + 1:].strip()
    if rest:
        raise ValueError(f"unexpected text after tuple: {rest!r}")
    if items == [""]:
        return []
    if any(not it for it in items):
        raise ValueError("empty tuple component")
    return items


def _parse_vf_terms(text: str):
    """Split ``expr d/dx + expr d/dy`` into (coefficient text, variable)."""
    pieces = text.split("d/d")
    if len(pieces) < 2:
        raise ValueError("vector field terms look like 'expr d/dx'")
    coeff_texts = [pieces[0].strip()]
    variables = []
    for piece in pieces[1:]:
        piece = piece.lstrip()
        j = 0
        while j < len(piece) and (piece[j].isalnum() or piece[j] == "_"):
            j += 1
        if j == 0:
            raise ValueError("missing variable name after d/d")
        variables.append(piece[:j])
        rest = piece[j:].strip()
        if rest:
            if not rest.startswith("+"):
                raise ValueError(f"stray text {rest!r} after d/d{piece[:j]}")
            coeff_texts.append(rest[1:].strip())
    if len(coeff_texts) != len(variables):
        raise ValueError("dangling coefficient without a d/d variable")
    if any(not c for c in coeff_texts):
        raise ValueError("empty coefficient in vector field")
    return list(zip(coeff_texts, variables))


class Session:
    """Parsed session: field, rings, and the named objects."""

    def __init__(self):
        self.field = None
        self.ext = None
        self.order = None
        self.torder = None
        self.tvars = ()
        self.source = None
        self.target = None
        self.joint = None
        self.filtrations = {}
        self.filt_specs = {}
        self.maps = {}
        self.auts = {}
        self.aut_sides = {}
        self.contacts = {}
        self.vfs = {}
        self._names = {}

    # -- lookups used by the subcommands ------------------------------

    def map_named(self, name: str) -> MapGerm:
        if name not in self.maps:
            raise CLIError(f"no map named {name!r} in the session")
        return self.maps[name]

    def filtration_named(self, name: Optional[str]) -> Filtration:
        if name is None:
            return filtration_make(self.source, "madic")
        if name not in self.filtrations:
            raise CLIError(f"no filtration named {name!r} in the session")
        return self.filtrations[name]

    def joint_ring(self) -> JetRing:
        if self.joint is None:
            self.joint = product_ring(self.source, self.target)
        return self.joint

    def element_named(self, tag: str, spec: str):
        """Group element from comma-separated session names."""
        names = [s.strip() for s in spec.split(",")]

        def factor(kind, name):
            if kind == "C":
                if name not in self.contacts:
                    raise CLIError(f"no contact element named {name!r}")
                return self.contacts[name]
            side = "source" if kind == "R" else "target"
            if name not in self.auts:
                raise CLIError(f"no coordinate change named {name!r}")
            if self.aut_sides[name] != side:
                raise CLIError(
                    f"{name!r} is a {self.aut_sides[name]} coordinate change, "
                    f"a {side} one is needed here")
            return self.auts[name]

        if tag not in GROUP_FACTORS:
            raise CLIError(f"unknown group {tag!r}")
        kinds = GROUP_FACTORS[tag]
        if "Mat" in kinds:
            raise CLIError(
                "matrix factors cannot be written in a session file; "
                "use the library for Klin elements")
        if len(names) != len(kinds):
            raise CLIError(_NAMED_USAGE[tag])
        return from_factors([factor(k, n) for k, n in zip(kinds, names)])

    # -- canonical re-emission ----------------------------------------

    def canonical(self) -> str:
        out = [f"field {self.field!r}"]
        if self.ext is not None:
            out.append(f"extend {self.ext.top.minpoly_str()}")
        out.append(f"jet {self.order}")
        if self.tvars:
            out.append(f"tjet {self.torder} vars: {' '.join(self.tvars)}")
        for label, ring in (("source", self.source), ("target", self.target)):
            gens = ", ".join(str(g) for g in ring.ideal_gen_jets())
            out.append(f"{label} vars: {' '.join(ring.xvars)} ideal: ({gens})")
        for name in sorted(self.filtrations):
            kind, payload = self.filt_specs[name]
            if kind == "chain":
                groups = ";".join("(" + ", ".join(g) + ")" for g in payload)
                out.append(f"filtration {name} = chain[{groups}]")
            else:
                out.append(f"filtration {name} = {kind}")
        for name in sorted(self.maps):
            comps = ", ".join(str(c) for c in self.maps[name].components)
            out.append(f"map {name} = ({comps})")
        for name in sorted(self.auts):
            comps = ", ".join(str(c) for c in self.auts[name].comps)
            out.append(f"aut {name} = ({comps})")
        for name in sorted(self.contacts):
            comps = ", ".join(str(c) for c in self.contacts[name].comps)
            out.append(f"contact {name} = ({comps})")
        for name in sorted(self.vfs):
            vf = self.vfs[name]
            terms = [f"{c} d/d{v}"
                     for v, c in zip(vf.ring.xvars, vf.comps) if not c.is_zero()]
            if not terms:
                terms = [f"0 d/d{vf.ring.xvars[0]}"]
            out.append(f"vf {name} = {' + '.join(terms)}")
        return "\n".join(out) + "\n"

    def summary(self) -> dict:
        return {
            "field": repr(self.field),
            "extension": None if self.ext is None
            else self.ext.top.minpoly_str(),
            "jet": self.order,
            "tjet": self.torder,
            "source": list(self.source.xvars),
            "target": list(self.target.xvars),
            "filtrations": sorted(self.filtrations),
            "maps": sorted(self.maps),
            "auts": sorted(self.auts),
            "contacts": sorted(self.contacts),
            "vector_fields": sorted(self.vfs),
        }


# The session helpers below raise ValueError (FieldError, JetError, GermError,
# ExprError and the rest all subclass it); parse_session turns each into one
# SessionError at the offending line.

def _claim_name(sess: Session, name: str, kind: str):
    if not name.isidentifier():
        raise ValueError(f"bad name {name!r}")
    if name in sess._names:
        raise ValueError(f"name {name!r} already declared as a {sess._names[name]}")
    sess._names[name] = kind


def _require(sess: Session, what: str):
    missing = {
        "field": sess.field is None,
        "jet": sess.order is None,
        "source": sess.source is None,
        "target": sess.target is None,
    }
    if missing.get(what, False):
        raise ValueError(f"'{what}' must be declared first")


def _build_ring(sess: Session, xvars, gen_texts) -> JetRing:
    plain = JetRing(sess.field, xvars, sess.order, tvars=sess.tvars, torder=sess.torder)
    if not gen_texts:
        return plain
    gens = [plain.from_expr(t) for t in gen_texts]
    return JetRing(sess.field, xvars, sess.order, ideal=[dict(g.coeffs) for g in gens],
                   tvars=sess.tvars, torder=sess.torder)


def _germ_space_clause(rest: str):
    """Split ``vars: x y ideal: (...)`` into names and generator texts."""
    if not rest.startswith("vars:"):
        raise ValueError("expected 'vars:' after the space keyword")
    rest = rest[len("vars:"):]
    if "ideal:" in rest:
        var_part, _, ideal_part = rest.partition("ideal:")
    else:
        var_part, ideal_part = rest, None
    names = var_part.split()
    if not names:
        raise ValueError("at least one variable is required")
    return names, [] if ideal_part is None else _split_tuple(ideal_part)


def _aut_side(sess: Session, comp_texts) -> str:
    used = set()
    for t in comp_texts:
        used |= set(names_in(parse_expr(t, line=1, col=1)))
    used -= set(sess.field.generator_env())
    if used <= set(sess.source.variables):
        return "source"
    if used <= set(sess.target.variables):
        return "target"
    raise ValueError("coordinate change mixes source and target variables")


def _directive(sess: Session, keyword: str, rest: str) -> None:
    """Apply one session line, ``keyword rest``, to ``sess``."""
    if keyword == "field":
        if sess.field is not None:
            raise ValueError("field already declared")
        sess.field = make_field(rest)

    elif keyword == "extend":
        _require(sess, "field")
        if sess.ext is not None:
            raise ValueError("extension already declared")
        sess.ext = make_extension(sess.field, rest)

    elif keyword == "jet":
        if sess.order is not None:
            raise ValueError("jet order already declared")
        try:
            sess.order = int(rest)
        except ValueError:
            raise ValueError(f"jet order must be an integer, got {rest!r}") from None
        if sess.order < 1:
            raise ValueError("jet order must be at least 1")

    elif keyword == "tjet":
        if sess.source is not None:
            raise ValueError("tjet must come before the germ spaces")
        parts = rest.split()
        if not parts:
            raise ValueError("tjet needs a truncation order")
        try:
            sess.torder = int(parts[0])
        except ValueError:
            raise ValueError(f"parameter order must be an integer, got {parts[0]!r}") from None
        if sess.torder < 1:
            raise ValueError("parameter order must be at least 1")
        if len(parts) > 1:
            if parts[1] != "vars:" or len(parts) < 3:
                raise ValueError("expected 'vars:' and names after the order")
            sess.tvars = tuple(parts[2:])
        else:
            sess.tvars = ("t",)

    elif keyword in ("source", "target"):
        _require(sess, "field")
        _require(sess, "jet")
        if getattr(sess, keyword) is not None:
            raise ValueError(f"{keyword} already declared")
        names, gen_texts = _germ_space_clause(rest)
        other = sess.target if keyword == "source" else sess.source
        if other is not None:
            clash = set(names) & set(other.xvars)
            if clash:
                raise ValueError(f"source and target share variable names {sorted(clash)}")
            if set(names) & set(sess.tvars) or set(other.xvars) & set(sess.tvars):
                raise ValueError("germ variables clash with parameters")
        setattr(sess, keyword, _build_ring(sess, names, gen_texts))

    elif keyword == "filtration":
        name, eq, spec = rest.partition("=")
        name = name.strip()
        spec = spec.strip()
        if not eq:
            raise ValueError("expected 'filtration NAME = SPEC'")
        _require(sess, "source")
        _claim_name(sess, name, "filtration")
        if spec in ("madic", "tadic"):
            payload = (spec, None)
            arg = spec
        elif spec.startswith("chain[") and spec.endswith("]"):
            groups = [_split_tuple(part) for part in spec[len("chain["):-1].split(";")]
            canon = [[str(sess.source.from_expr(g)) for g in grp] for grp in groups]
            payload = ("chain", canon)
            arg = groups
        else:
            raise ValueError(f"unknown filtration spec {spec!r} "
                             "(expected madic, tadic, or chain[(...);(...)])")
        sess.filtrations[name] = filtration_make(sess.source, arg)
        sess.filt_specs[name] = payload

    elif keyword in ("map", "aut", "contact"):
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"expected '{keyword} NAME = (...)'")
        comp_texts = _split_tuple(body)
        _require(sess, "source")
        _require(sess, "target")
        _claim_name(sess, name, keyword)
        if keyword == "map":
            comps = [sess.source.from_expr(t) for t in comp_texts]
            sess.maps[name] = MapGerm(sess.source, sess.target, comps)
        else:
            kind = "C"
            if keyword == "aut":
                sess.aut_sides[name] = _aut_side(sess, comp_texts)
                kind = "R" if sess.aut_sides[name] == "source" else "L"
            ring, _, _, build = factor_layout(
                kind, sess.source, sess.target,
                sess.joint_ring() if kind == "C" else None)
            element = build([ring.from_expr(t) for t in comp_texts], True)
            (sess.contacts if kind == "C" else sess.auts)[name] = element

    elif keyword == "vf":
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError("expected 'vf NAME = expr d/dx + ...'")
        _require(sess, "source")
        _claim_name(sess, name, "vector field")
        terms = _parse_vf_terms(body)
        comps = [sess.source.zero] * sess.source.nx
        for coeff_text, var in terms:
            if var not in sess.source.xvars:
                raise ValueError(f"d/d{var} is not a source variable")
            i = sess.source.xvars.index(var)
            comps[i] = comps[i] + sess.source.from_expr(coeff_text)
        sess.vfs[name] = DerVector(sess.source, comps)

    else:
        raise ValueError(f"unknown directive {keyword!r}")


def parse_session(text: str) -> Session:
    """Parse session text; raise SessionError at the first bad line."""
    sess = Session()
    n = 0
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        try:
            _directive(sess, keyword, rest.strip())
        except ValueError as e:
            raise SessionError(str(e), n, getattr(e, "col", None)) from None

    for what in ("field", "jet", "source", "target"):
        if getattr(sess, {"field": "field", "jet": "order",
                          "source": "source", "target": "target"}[what]) is None:
            raise SessionError(f"session never declares '{what}'", n + 1)
    return sess


_NAMED_USAGE = {
    "R": "group R takes one source coordinate change",
    "L": "group L takes one target coordinate change",
    "LR": "group LR takes 'target_name,source_name'",
    "C": "group C takes one contact element",
    "K": "group K takes 'contact_name,source_name'",
}
_INLINE_USAGE = {
    "R": "an R element is a single tuple",
    "L": "an L element is a single tuple",
    "LR": "an LR element is '(target tuple)|(source tuple)'",
    "C": "a C element is a single tuple over both variable sets",
    "K": "a K element is '(joint tuple)|(source tuple)'",
}


def _element_from_text(tag: str, text: str, source: JetRing, target: JetRing):
    """Inline group element: tuples separated by '|' for composite groups."""
    parts = [p.strip() for p in text.split("|")]

    def comps(part, ring):
        try:
            items = _split_tuple(part)
        except ValueError as e:
            raise CLIError(f"bad element tuple: {e}")
        return [ring.from_expr(t) for t in items]

    def factor(kind, part):
        ring, _, _, build = factor_layout(kind, source, target)
        return build(comps(part, ring), True)

    kinds = GROUP_FACTORS.get(tag, ())
    if not kinds or "Mat" in kinds:
        raise CLIError(f"inline elements are not supported for group {tag!r}")
    if len(parts) != len(kinds):
        raise CLIError(_INLINE_USAGE[tag])
    return from_factors([factor(k, p) for k, p in zip(kinds, parts)])


# -- subcommand handlers -------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CLIError(f"cannot read {path}: {e.strerror or e}")


def _load_session(args) -> Session:
    return parse_session(_read_text(args.session))


def _group(args) -> str:
    if args.group not in GROUP_TAGS:
        raise CLIError(
            f"unknown group {args.group!r}; choose one of {', '.join(GROUP_TAGS)}")
    return args.group


def cmd_session(args):
    sess = parse_session(_read_text(args.file))
    text = sess.canonical()
    again = parse_session(text).canonical()
    stable = again == text
    result = dict(sess.summary(), canonical=text, reparse_stable=stable)
    return result, 0 if stable else 1


def cmd_act(args):
    sess = _load_session(args)
    tag = _group(args)
    elem = sess.element_named(tag, args.elem)
    f = sess.map_named(args.map)
    moved = elem.act(f)
    MapGerm(f.source, f.target, moved.components)  # revalidate the image
    result = {
        "group": tag,
        "map": moved.describe(),
        "text": [str(c) for c in moved.components],
        "verified": True,
    }
    return result, 0


def cmd_tangent(args):
    sess = _load_session(args)
    tag = _group(args)
    f = sess.map_named(args.map)
    filt = sess.filtration_named(args.filtration)
    frame = tangent_space(tag, f, args.level, filt)
    return {"tangent": frame.describe()}, 0


def cmd_exp(args):
    sess = _load_session(args)
    if args.vf not in sess.vfs:
        raise CLIError(f"no vector field named {args.vf!r}")
    vec = sess.vfs[args.vf]
    aut = vec.exp()
    filt = sess.filtration_named(args.filtration)
    lvl = group_level(aut, sess.source, sess.target, filt)
    result = {
        "automorphism": {"components": [str(c) for c in aut.comps]},
        "level": lvl,
    }
    return result, 0


def cmd_log(args):
    sess = _load_session(args)
    tag = _group(args)
    elem = sess.element_named(tag, args.elem)
    parts = log_element(elem)
    filt = sess.filtration_named(args.filtration)
    payload = {}
    for kind in sorted(parts):
        vec = parts[kind]
        payload[kind] = {
            "vector": vec.describe(),
            "level": vector_level(vec, sess.source, sess.target, filt),
        }
    return {"parts": payload}, 0


def cmd_artin_rees(args):
    sess = _load_session(args)
    tag = _group(args)
    f = sess.map_named(args.map)
    filt = sess.filtration_named(args.filtration)
    bound = comparison_bound(tag, f, args.level, filt)
    return {"comparison": bound.describe()}, 0


def cmd_descend(args):
    sess = _load_session(args)
    tag = _group(args)
    f = sess.map_named(args.map)
    g = sess.map_named(args.map2)
    filt = sess.filtration_named(args.filtration)
    ext = make_extension(sess.field, args.ext) if args.ext is not None else sess.ext

    witness = None
    if args.witness is not None:
        if "(" in args.witness:
            if ext is not None:
                src = extend_ring(sess.source, ext)
                tgt = extend_ring(sess.target, ext)
            else:
                src, tgt = sess.source, sess.target
            witness = _element_from_text(tag, args.witness, src, tgt)
        else:
            if ext is not None:
                raise CLIError(
                    "with an extension the witness must be written inline, "
                    "e.g. --witness '(x+a*x^2)'")
            witness = sess.element_named(tag, args.witness)

    problem = DescentProblem(tag, f, g, filt, args.level, ext=ext, witness=witness)
    try:
        cert = descend(problem)
    except DescentError as e:
        if "obstruction" in str(e):
            return {"descended": False, "reason": str(e)}, 2
        raise
    return {"descended": True, "certificate": cert.describe()}, 0


def cmd_system(args):
    sess = _load_session(args)
    tag = _group(args)
    f = sess.map_named(args.map)
    g = sess.map_named(args.map2)
    filt = sess.filtration_named(args.filtration) if (
        args.filtration or args.level) else None
    syst = compile_system(tag, f, g, level=args.level, filt=filt)
    desc = syst.describe()
    result = {"system": desc}
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(desc, indent=2, sort_keys=True) + "\n")
        except OSError as e:
            raise CLIError(f"cannot write {args.out}: {e.strerror or e}")
        result["written"] = args.out
    return result, 0


def cmd_solve(args):
    if args.session is not None:
        field = parse_session(_read_text(args.session)).field
    elif args.field is not None:
        field = make_field(args.field)
    else:
        raise CLIError("solve needs --field or --session for the coefficients")
    try:
        data = json.loads(_read_text(args.file))
    except json.JSONDecodeError as e:
        raise CLIError(f"bad system file: {e}")
    system = system_from_json(data, field)
    cap = {} if args.cap is None else {"cap": args.cap}

    if args.method == "groebner":
        report = groebner_inconsistent(system, **cap)
        result = {"groebner": report.describe()}
        if report.inconsistent is True:
            result["message"] = "no solutions"
            return result, 2
        return result, 0

    ext = make_extension(field, args.ext) if args.ext is not None else None
    domain = None
    if args.base_points:
        if ext is None:
            raise CLIError("--base-points needs --ext")
        domain = [ext.embed(e) for e in field.elements()]
    sols = brute_solve(system, field=ext.top if ext else None, domain=domain,
                       limit=args.limit, **cap)
    listed = [{name: str(v) for name, v in sorted(sol.items())} for sol in sols]
    result = {"solutions": listed, "count": len(listed)}
    if not listed:
        result["message"] = "no solutions"
        return result, 2
    return result, 0


def cmd_orbits(args):
    sess = _load_session(args)
    tag = _group(args)
    if args.jet is not None and args.jet != sess.order:
        lines = [f"jet {args.jet}" if ln.startswith("jet ") else ln
                 for ln in sess.canonical().splitlines()]
        sess = parse_session("\n".join(lines) + "\n")
    if args.ext is not None:
        ext = make_extension(sess.field, args.ext)
    elif sess.ext is not None:
        ext = sess.ext
    else:
        raise CLIError("orbit census needs an extension (--ext or 'extend')")
    f = sess.map_named(args.map)
    census = orbit_split(tag, f, ext, cap=args.cap)
    return {"orbits": census.describe()}, 0


# -- dispatch ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for mathematically negative answers
    def error(self, message):
        raise CLIError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="germ",
        description="Jet-level germ equivalence: act, descend, solve.")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for any randomized auxiliary choices")
    p.add_argument("--time", action="store_true",
                   help="print elapsed wall time to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def with_session(sp):
        sp.add_argument("--session", default="-", metavar="FILE",
                        help="session file, '-' for stdin (default)")

    sp = sub.add_parser("session", help="parse a session and re-emit it")
    sp.add_argument("file", nargs="?", default="-")
    sp.set_defaults(func=cmd_session)

    sp = sub.add_parser("act", help="apply a group element to a map")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--elem", required=True,
                    help="session element names, comma-separated for pairs")
    sp.add_argument("--map", required=True)
    sp.set_defaults(func=cmd_act)

    sp = sub.add_parser("tangent", help="tangent frame of an orbit at a map")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--filtration")
    sp.set_defaults(func=cmd_tangent)

    sp = sub.add_parser("exp", help="exponentiate a vector field")
    with_session(sp)
    sp.add_argument("--vf", required=True)
    sp.add_argument("--filtration")
    sp.set_defaults(func=cmd_exp)

    sp = sub.add_parser("log", help="logarithm of a group element")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--elem", required=True)
    sp.add_argument("--filtration")
    sp.set_defaults(func=cmd_log)

    sp = sub.add_parser("artin-rees",
                        help="certified comparison bound for orbit depths")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--filtration")
    sp.set_defaults(func=cmd_artin_rees)

    sp = sub.add_parser("descend",
                        help="carry an equivalence down to the base field")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--map2", required=True)
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--filtration")
    sp.add_argument("--ext", help="extension minimal polynomial, e.g. 'a^2-2'")
    sp.add_argument("--witness",
                    help="session element name, or inline tuples like '(x+x^2)'")
    sp.set_defaults(func=cmd_descend)

    sp = sub.add_parser("system",
                        help="compile equivalence into a polynomial system")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--map2", required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--filtration")
    sp.add_argument("--out", metavar="FILE", help="also write the system JSON here")
    sp.set_defaults(func=cmd_system)

    sp = sub.add_parser("solve", help="solve a compiled system file")
    sp.add_argument("file", help="system JSON file, '-' for stdin")
    sp.add_argument("--session", default=None, metavar="FILE",
                    help="take the coefficient field from this session")
    sp.add_argument("--field", help="coefficient field, e.g. F3 or Q[a]/(a^2-2)")
    sp.add_argument("--ext", help="search over this extension of the field")
    sp.add_argument("--base-points", action="store_true",
                    help="restrict the search to embedded base-field values")
    sp.add_argument("--method", choices=("brute", "groebner"), default="brute")
    sp.add_argument("--limit", type=int, default=None,
                    help="stop after this many solutions")
    sp.add_argument("--cap", type=int, default=None,
                    help="work cap for the chosen method: searched points for "
                         "brute (default 10^8), S-pairs for groebner (default 20000)")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("orbits",
                        help="rational orbit census under an extension")
    with_session(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--ext", help="extension minimal polynomial, e.g. 'b^2+1'")
    sp.add_argument("--jet", type=int, default=None,
                    help="re-truncate the session to this jet order")
    sp.add_argument("--cap", type=int, default=10 ** 7,
                    help="most group actions the census may apply while it "
                         "closes the orbits (default 10^7)")
    sp.set_defaults(func=cmd_orbits)

    return p


def _echo_arguments(args) -> dict:
    skip = {"func", "time"}
    out = {}
    for key, value in vars(args).items():
        if key in skip or value is None or key == "command":
            continue
        out[key] = value
    return out


def execute(argv):
    """Run one command; return (report dict, exit code) without printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CLIError as e:
        return {"command": None, "ok": False, "error": str(e)}, 1
    random.seed(args.seed)
    report = {"command": args.command, "arguments": _echo_arguments(args)}
    try:
        result, code = args.func(args)
    except SessionError as e:
        report["ok"] = False
        report["error"] = str(e)
        report["line"] = e.line
        if e.column is not None:
            report["column"] = e.column
        return report, 1
    except CLIError as e:
        report["ok"] = False
        report["error"] = str(e)
        return report, e.exit_code
    except ValueError as e:
        # every germ error, and Python's own (an int too long to print)
        report["ok"] = False
        report["error"] = str(e)
        if isinstance(e, ExprError):
            report["line"], report["column"] = e.line, e.col
        return report, 1
    report["ok"] = True
    report["result"] = result
    return report, code


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    report, code = execute(argv)
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader has gone (``germ ... | head``): point stdout at devnull,
        # so that the flush at exit cannot fail again, and end as an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    args_time = "--time" in argv
    if args_time:
        print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
