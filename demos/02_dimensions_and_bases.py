"""Multidegree component dimensions of relatively free algebras.

The oracle works from first principles: it enumerates every bracketed
word of a multidegree, generates all T-ideal consequence rows of an
identity set (substitutions composed with one-hole contexts), and
computes the quotient dimension by exact sparse elimination — fraction
free over Q, lead-normalized over GF(p).  The structured normal-form
bases are computed independently, so agreement of the two counts is a
genuine cross-check.
"""

from metanov import (
    preset,
    quotient_basis,
    quotient_dimension,
    wlc_basis,
    wn_basis,
)
from metanov.fields import GF, QQ

print("Multilinear dimensions, identity set {right symmetry, weak Novikov,")
print("metabelian} ('wnov2') vs {weak Novikov, metabelian} ('wlc2'):\n")
print("  degree   wnov2  |basis|   wlc2  |basis|")
for n in range(2, 6):
    md = {i: 1 for i in range(1, n + 1)}
    field = GF(1009) if n == 5 else QQ
    d1 = quotient_dimension(preset("wnov2"), md, field)
    d2 = quotient_dimension(preset("wlc2"), md, field)
    print(f"  {n:>6}   {d1:>5}  {len(wn_basis(md)):>7}   {d2:>4}  {len(wlc_basis(md)):>7}")

print("\nThe dimension drop 16 -> 5 from degree 4 to 5 is the quantitative")
print("shadow of left nilpotency: only R-words survive at high degree.\n")

md = {1: 1, 2: 1, 3: 1}
print(f"Representative words spanning the (1,1,1) component of wnov2:")
for w in quotient_basis(preset("wnov2"), md):
    print(f"  {w!r}")

print("\nPresets compose with '+', and extra identities shrink components:")
for name in ("wlc2", "wlc2+flex", "wlc2+lie-nilp:2"):
    d = quotient_dimension(preset(name), {1: 1, 2: 1, 3: 1})
    print(f"  dim_(1,1,1) {name:<16} = {d}")
