"""Basic polynomial sequences, built five independent ways.

Every delta operator (a shift-invariant operator Q with Qx a nonzero
constant) owns a unique basic sequence p_0, p_1, ... with Q p_n = n p_{n-1}.
This package builds the coefficient triangle of that sequence by five
unrelated algorithms -- transfer, Steffensen, recurrence, generating
function, and the operator closed form -- and they must agree entry by
entry, exactly, over the rationals.
"""

from fractions import Fraction as F

from umbra import (
    BASIC_ROUTES,
    Triangle,
    basic_set,
    family,
    is_binomial_type,
    tri_compose,
    tri_invert,
)

N = 6


def show(title, tri):
    print(f"\n{title}")
    for row in tri.rows:
        print("   ", "  ".join(str(v) for v in row))


# The forward difference Delta = E - 1 has the falling factorials as its
# basic sequence; the triangle is the signed Stirling numbers of the first
# kind.  Watch all five routes produce the same rows.
delta = family("falling").delta(N + 2)
print("five routes for the forward difference:")
triangles = {name: basic_set(delta, N, name) for name in BASIC_ROUTES}
for name, tri in triangles.items():
    print(f"  {name:11s} row 4 ->", [str(v) for v in tri.rows[4]])
assert len({tri for tri in triangles.values()}) == 1

show("falling factorials (signed Stirling-1)", triangles["transfer"])

# Inverting the triangle swaps Stirling kinds: the inverse rows are the
# Stirling numbers of the second kind (the Touchard/exponential polynomials).
show("inverse = Stirling-2 / Touchard", tri_invert(triangles["transfer"]))

# The logistic derivative D(1-D) encodes Catalan numbers: its basic rows
# have the closed form C(2n-k-1, n-1) (n-1)!/(k-1)!.
show("Catalan polynomials for D(1-D)", family("catalan").basic(N))

# Abel polynomials x(x-an)^{n-1} for the shifted derivative D E^a.
show("Abel polynomials (a = 1)", family("abel", a=1).basic(N))

# Connection constants: expanding rising factorials in falling factorials
# produces the unsigned Lah numbers; their triangle is falling^{-1} o rising.
rising = family("rising").basic(N)
falling = family("falling").basic(N)
show("Lah numbers = connection(rising -> falling)", tri_compose(tri_invert(falling), rising))

# The binomial-type detector accepts every basic triangle and rejects
# anything Sheffer-but-not-basic or perturbed.
print("\nbinomial-type detector:")
print("   falling factorials:", is_binomial_type(falling))
rows = [list(r) for r in falling.rows]
rows[4][2] += F(1, 3)
print("   perturbed copy    :", is_binomial_type(Triangle(tuple(tuple(r) for r in rows))))
