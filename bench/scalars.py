"""Micro timings of the public scalar operations of germ.exactfield.

Timing every field operation inside the traced run would swamp the other
spans, so the scalar layer is timed here on its own: FieldElem
multiplication and inverse, on seeded operands of small height from each
field family the workloads use.
"""

from __future__ import annotations

import statistics
import time

FIELDS = {
    "Q": "Q",
    "Qsqrt2": "Q[a]/(a^2-2)",
    "F9": "F3[b]/(b^2+1)",
    "F27": "F3[c]/(c^3+2*c+1)",
    "F25": "F5[b]/(b^2+2)",
    "F3s": "F3(s)",
}
PAIRS = 200
REPEATS = 5


def _operand(field, rng):
    """A nonzero element: any element of a finite field; c0 + c1*g with
    small rational c0, c1 over Q and Q(sqrt 2); and (s^2 + c1*s + c0) /
    (s + d) over F_p(s)."""
    if field.is_finite():
        return rng.choice([e for e in field.elements() if not e.is_zero()])

    def c():
        return field.from_int(rng.randint(-3, 3)) / field.from_int(rng.choice((1, 2)))

    gens = list(field.generator_env().values())
    if not gens:
        e = c()
    elif field.char == 0:
        e = c() + c() * gens[0]
    else:
        s = gens[0]
        e = (s * s + c() * s + c()) / (s + field.from_int(rng.randint(1, 2)))
    return e if not e.is_zero() else field.one


def _per_op_us(op, operands):
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in operands:
            op(a, b)
        runs.append((time.perf_counter() - t0) / len(operands) * 1e6)
    return statistics.median(runs)


def micro_timings(rng) -> dict:
    from germ.exactfield import make_field

    out = {}
    for label, text in FIELDS.items():
        field = make_field(text)
        operands = [(_operand(field, rng), _operand(field, rng)) for _ in range(PAIRS)]
        out[f"exactfield.mul_us.{label}"] = _per_op_us(lambda a, b: a * b, operands)
        out[f"exactfield.inv_us.{label}"] = _per_op_us(lambda a, b: a.inverse(), operands)
    return out
