"""Seeded input generators shared by the workloads.

Every generator takes a ``random.Random`` so that one seed fixes the whole
question stream.  They run outside the timed region.
"""

from __future__ import annotations

_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_DENOMINATORS = (1, 2, 3)


def small_rational(field, rng):
    return field.from_int(rng.choice(_NUMERATORS)) / field.from_int(
        rng.choice(_DENOMINATORS))


def random_jet(ring, rng, min_deg, density=0.5):
    """A jet with small rational coefficients on monomials of degree >=
    ``min_deg``; never zero."""
    field = ring.field
    coeffs = {mon: small_rational(field, rng) for mon in ring.monomials
              if sum(mon) >= min_deg and rng.random() < density}
    if not coeffs:
        mon = next(m for m in ring.monomials if sum(m) == min_deg)
        coeffs[mon] = small_rational(field, rng)
    return ring.jet(coeffs)


def monomial_of_degree(ring, rng, low, high):
    """A random monomial with total degree in [low, high]."""
    return rng.choice([m for m in ring.monomials if low <= sum(m) <= high])


def min_degree(jets):
    """The least total degree present in a tuple of jets (None if all zero)."""
    degrees = [sum(m) for j in jets for m in j.coeffs]
    return min(degrees) if degrees else None
