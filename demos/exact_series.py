"""Tour of the exact series layer.

Integer polynomials are plain tuples of int, low degree first, and so are
the expansions of rational functions with denominator constant term 1; only
a truncated series, whose logarithm divides, holds Fraction. Nothing is
floating point, so every printed digit is exact.
"""
from fractions import Fraction

from zassenhaus.series import (
    RationalFunction,
    TruncSeries,
    expand_rational,
    format_poly,
    product_identity_rhs,
)

# Rational functions reduce themselves on construction; num and den are
# coefficient tuples.
rf = RationalFunction([2, 0, -2], [2, -2])
print("(2 - 2t^2)/(2 - 2t) reduces to:",
      f"({format_poly(rf.num)}) / ({format_poly(rf.den)})")

# Taylor expansion by the denominator recurrence, a tuple of int.
# 1/(1 - 3t + t^2) hides the odd-indexed Fibonacci numbers.
fib = expand_rational(RationalFunction([1], [1, -3, 1]), 8)
print("1/(1 - 3t + t^2):", list(fib))

# Logarithms stay exact: log 1/(1-2t) has coefficients 2^n / n.
geo = TruncSeries(6, expand_rational(RationalFunction([1], [1, -2]), 6))
logs = geo.log()
print("log 1/(1-2t):", [logs[k] for k in range(7)])
assert logs[3] == Fraction(8, 3)

# Powers with astronomical exponents cost only a handful of binomials.
million = (TruncSeries(4, [1, 1]) ** 10**6)
print("(1+t)^1000000 starts:", million.int_coeffs()[:3])

# The product identity: layer dimensions at n = 1, 2, 4 telescope,
# prod (1-t^2n)/(1-t^n) over those n collapses to (1-t^8)/(1-t). It is
# built in int and returns the coefficients as a tuple of int.
rhs = product_identity_rhs([1, 1, 0, 1, 0, 0, 0], 2, 7)
print("telescoping product:", list(rhs))
