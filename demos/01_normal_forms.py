"""Normal forms in the two free metabelian weakly-Novikov algebras.

Every element of the algebra without right symmetry ("wlc") is a linear
combination of monomials x_i L[...] R[...]; with right symmetry ("wnov")
the basis splits into seven structured kinds.  This script parses a few
expressions, reduces them in both algebras, and shows how the same word
collapses differently depending on the identity set.
"""

from metanov import WlcElement, WnElement, evaluate, parse_expr, render
from metanov.fields import GF


def show(expr: str) -> None:
    f = parse_expr(expr)
    print(f"  input : {expr}")
    print(f"  wlc   : {render(evaluate(f, WlcElement))}")
    print(f"  wnov  : {render(evaluate(f, WnElement))}")
    print()


print("Basic products.  The left factor of a generator product becomes an")
print("L-operator: x2*x1 reads 'x1 hit by L_{x2}'.\n")
show("x2*x1")
show("(x2*x1)*x3")
show("x3*(x2*x1)")

print("Left-normed words of degree 4.  Without right symmetry they stay")
print("monomial; with it they expand over associator-type elements.\n")
show("((x1*x2)*x3)*x4")
show("x1*(x2*(x3*x4))")

print("The Teichmueller combination (xy,z,t)-(y,xz,t)-2(x,yz,t) is a")
print("six-word magma polynomial, yet with right symmetry it evaluates to")
print("a single basis element:\n")
f = parse_expr("T(x1,x2,x3,x4)")
print(f"  raw expansion : {render(f)}")
print(f"  wnov          : {render(evaluate(f, WnElement))}\n")

print("Identities vanish identically.  Metabelianity kills any product of")
print("two degree->=2 factors in both algebras:\n")
show("(x1*x2)*(x3*x4)")

print("Coefficients live in an exact field: Q by default, or any odd")
print("prime field.\n")
f = parse_expr("x1*(x2*(x3*x4))", GF(7))
print(f"  over GF(7): {render(evaluate(f, WnElement))}")
