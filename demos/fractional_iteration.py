"""Fractional iterates and the iterative logarithm, exactly in Q.

A unitary series f = x + ... embeds in a one-parameter composition flow
f^s with f^r o f^s = f^{r+s}.  The flow's infinitesimal generator is the
iterative logarithm f_* = d/ds f^s |_{s=0}.  Everything below is computed
with exact rational coefficients and cross-checked two ways internally.
"""

from fractions import Fraction as F

from umbra import (
    compose,
    expm1,
    family,
    frac_iterate,
    itlog,
    jabotinsky,
    koszul_numbers,
    phi_pow,
    tri_compose,
    tri_from_form,
)

f = expm1(12)  # e^x - 1, the forward-difference indicator

half = frac_iterate(f, F(1, 2), 1, 12)
print("half-iterate of e^x - 1:")
print("  ", half)
print("   composed with itself == e^x - 1:", compose(half, half) == f)

third = frac_iterate(f, F(1, 3), 1, 12)
print("   third-iterate composed three times:", compose(third, compose(third, third)) == f)

# negative and mixed exponents follow the same group law
inv = frac_iterate(f, -1, 1, 12)
print("   f^{-1} is log(1+x):", [str(inv[n]) for n in range(5)])

print("\niterative logarithm of e^x - 1 (EGF of the Koszul numbers):")
print("  ", itlog(f))
print("   Koszul numbers:", [str(v) for v in koszul_numbers(8)[2:]])

# The same flow acts on umbral operators: phi^s for the forward difference
# interpolates between the Stirling triangles of both kinds.
Q = family("falling").delta(14)
half_form = phi_pow(Q, F(1, 2), 6)
half_tri = tri_from_form(half_form)
print("\nsquare root of the falling-factorial triangle, row 4:")
print("   ", [str(v) for v in half_tri.rows[4]])
print("   squared back:", tri_compose(half_tri, half_tri) == tri_from_form(family("falling").basic(6)))
print("   phi^{-1} row 4 (Stirling-2):", [str(v) for v in tri_from_form(phi_pow(Q, -1, 6)).rows[4]])

jab = jabotinsky(half_form)
print("\nJabotinsky rescaling k!/n! of the half-power triangle, row 4:")
print("   ", [str(v) for v in jab[4]])
