"""The expression front-end: exact series from text, with operator division.

The grammar covers rationals, x/D, + - * /, integer and parenthesized
rational exponents, and exp/log/sqrt.  Division follows operator-division
semantics: a divisor of positive order k cancels a shared x^k factor, so
indicators like D/(e^D - 1) evaluate exactly, while 1/D is rejected.
"""

from umbra import ParseError, eval_expr
from umbra.errors import DivisionOrderError

EXAMPLES = [
    ("log(1+D)", 5),
    ("D/(1-D)", 5),
    ("D/(exp(D)-1)", 6),
    ("(1-sqrt(1-4*D))/2", 6),
    ("x*exp(x)", 5),
    ("(1+x)^(-1/2)", 4),
]

for text, order in EXAMPLES:
    print(f"{text:22s} ->", eval_expr(text, order))

print("\nother spellings of (1-sqrt(1-4*D))/2 give the same exact series:")
catalan = eval_expr("(1-sqrt(1-4*D))/2", 6)
for other in ("( 1 - sqrt((1 - 4*D)) ) / 2", "1/2 - sqrt(1-4*D)/2", "D/(1/2 + sqrt(1-4*D)/2)"):
    print(f"   {other!r}:", eval_expr(other, 6) == catalan)

print("\nerrors carry byte offsets:")
for bad in ("1/D", "exp(x", "2 + * 3"):
    try:
        eval_expr(bad, 4)
    except (ParseError, DivisionOrderError) as exc:
        print(f"   {bad!r}: {exc}")
