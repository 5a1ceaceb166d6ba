"""Recursive-descent parser for polynomial-style expressions.

The grammar is deliberately small: integer literals, names, ``+ - * / ^``,
and parentheses.  ``^`` takes a non-negative integer exponent.  There is no
implicit multiplication: ``2x`` is a syntax error, ``2*x`` is not.

Parsing produces a tiny AST (nested tuples) which is then evaluated against
an environment mapping names to arbitrary Python objects; all arithmetic is
delegated to the objects' operators.  The same parser therefore serves for
scalars, truncated jets and multivariate polynomials.
"""

from __future__ import annotations

import operator
from typing import Any, Callable


class ExprError(ValueError):
    """Syntax or evaluation error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_SYMBOLS = "+-*/^(),"
_MAX_NESTING = 100  # factors in factors; each level costs parser stack
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def tokenize(text: str, line: int = 1, col: int = 1):
    """Split ``text`` into (kind, value, line, col) tuples.

    Kinds: ``int``, ``name``, one of the symbol characters, ``end``.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            # a division keeps its position, for a failure at evaluation
            node = ("mul", node, rhs) if op[0] == "*" else ("div", node, rhs, op[2], op[3])
        return node

    def parse_factor(self):
        # every parenthesis and sign nests one factor deeper
        tok = self.peek()
        if self.depth == _MAX_NESTING:
            raise ExprError(f"nested deeper than {_MAX_NESTING} levels", tok[2], tok[3])
        self.depth += 1
        if tok[0] in ("+", "-"):
            self.next()
            inner = self.parse_factor()
            node = inner if tok[0] == "+" else ("neg", inner)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ExprError("exponent must be a non-negative integer", tok[2], tok[3])
            base = ("pow", base, tok[1])
        return base

    def parse_atom(self):
        tok = self.next()
        if tok[0] == "int":
            return ("int", tok[1])
        if tok[0] == "name":
            return ("name", tok[1], tok[2], tok[3])
        if tok[0] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExprError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse(text: str, line: int = 1, col: int = 1):
    """Parse ``text`` into an AST, raising ExprError on bad syntax."""
    parser = _Parser(tokenize(text, line, col))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail[0] != "end":
        raise ExprError(f"unexpected trailing token {tail[1]!r}", tail[2], tail[3])
    return node


def evaluate(node, env: dict, make_int: Callable[[int], Any]):
    """Evaluate an AST against ``env``; integer literals go through make_int.

    A chain (a sum, a product or a power tower) nests to the left as deep
    as it is long, so its left spine is walked down in a loop and its
    operations applied on the way back up, left to right.
    """
    spine = []
    while node[0] in ("add", "sub", "mul", "div", "pow"):
        spine.append(node)
        node = node[1]
    kind = node[0]
    if kind == "int":
        value = make_int(node[1])
    elif kind == "name":
        name = node[1]
        if name not in env:
            raise ExprError(f"unknown name {name!r}", node[2], node[3])
        value = env[name]
    elif kind == "neg":
        value = -evaluate(node[1], env, make_int)
    else:
        raise AssertionError(f"bad node {kind}")
    for op in reversed(spine):
        if op[0] == "pow":
            value = value ** op[2]
        elif op[0] != "div":
            value = _BINARY[op[0]](value, evaluate(op[2], env, make_int))
        else:
            den = evaluate(op[2], env, make_int)
            try:
                value = value / den
            except (TypeError, ZeroDivisionError) as exc:
                raise ExprError(f"division not available here: {exc}", op[3], op[4]) from exc
    return value


def names_in(node):
    """Collect the variable names appearing in an AST, in order of first
    appearance (walked with a stack, as chains nest deep)."""
    acc, stack = [], [node]
    while stack:
        node = stack.pop()
        if node[0] == "name":
            if node[1] not in acc:
                acc.append(node[1])
        elif node[0] != "int":
            # the operands of a sign, a power or a binary operation, left first
            stack.extend(c for c in reversed(node[1:3]) if isinstance(c, tuple))
    return acc


def eval_str(text: str, env: dict, make_int: Callable[[int], Any]):
    return evaluate(parse(text), env, make_int)
