"""Normal forms for the free metabelian algebra satisfying both right
symmetry and the weakly-Novikov identity.

Basis element kinds (degree in parentheses):

  GEN      x                         (1)
  PAIR     x*y, ordered              (2)
  LPROD    x(yz), ordered            (3)
  ASSOC    (x,t1,t2), t1 <= t2       (3)
  MIDASSOC (x, y*t1, t2), t1 <= t2   (4)   spans the annihilator
  TEICH    Tch(x,t1,t2,t3), sorted   (4)
  RWORD    (x*t1)R_{t2}..R_{tk}, all t's interchangeable and sorted,
           k >= 4                    (k+1 >= 5)

``KINDS``, the kind table, states each kind's symmetry once: its degree
and the number of its leading ordered indices, the rest being
interchangeable and stored sorted.  An element's degree is its number of
indices; ``canonicalize`` is the table's rule and ``wn_basis`` its image.

``WnElement`` is the ``LinComb`` of these keys; its product is ``wn_mul``
extended bilinearly, and the normal form of a magma polynomial p is
``magma.evaluate(p, WnElement)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .fields import QQ
from .lincomb import LinComb
from .multisets import distinct_permutations, md_letters, md_total

GEN = "gen"
PAIR = "pair"
LPROD = "lprod"
ASSOC = "assoc"
MIDASSOC = "midassoc"
TEICH = "teich"
RWORD = "rword"

# kind -> (degree, number of leading ordered indices), in basis order.
# R-words are the only kind of degree >= 5; their entry holds the least.
KINDS = {
    GEN: (1, 1),
    PAIR: (2, 2),
    LPROD: (3, 3),
    ASSOC: (3, 1),
    MIDASSOC: (4, 2),
    TEICH: (4, 1),
    RWORD: (5, 1),
}
_KIND_ORDER = {kind: i for i, kind in enumerate(KINDS)}


def _table_degree(n: int) -> int:
    """The degree column of ``KINDS`` that elements of degree n match."""
    return min(n, KINDS[RWORD][0])


@dataclass(frozen=True, slots=True)
class WnBasisElement:
    kind: str
    args: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        a = self.args
        if self.kind == GEN:
            return f"x{a[0]}"
        if self.kind == PAIR:
            return f"(x{a[0]}*x{a[1]})"
        if self.kind == LPROD:
            return f"(x{a[0]}*(x{a[1]}*x{a[2]}))"
        if self.kind == ASSOC:
            return f"A(x{a[0]},x{a[1]},x{a[2]})"
        if self.kind == MIDASSOC:
            return f"A(x{a[0]}, x{a[1]}*x{a[2]}, x{a[3]})"
        if self.kind == TEICH:
            return f"T(x{a[0]},x{a[1]},x{a[2]},x{a[3]})"
        tail = ",".join(f"x{t}" for t in a[2:])
        return f"(x{a[0]}*x{a[1]}) R[{tail}]"


def canonicalize(kind: str, args) -> WnBasisElement:
    """The element of a raw descriptor: its interchangeable indices sorted."""
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    args = tuple(args)
    degree, ordered = KINDS[kind]
    if _table_degree(len(args)) != degree:
        more = " or more" if kind == RWORD else ""
        raise ValueError(f"{kind} elements take {degree}{more} indices, "
                         f"got {len(args)}")
    return WnBasisElement(kind, args[:ordered] + tuple(sorted(args[ordered:])))


class WnElement(LinComb):
    """Linear combination of canonical WnBasisElement keys."""

    @staticmethod
    def _key_order(e: WnBasisElement):
        return (e.degree, _KIND_ORDER[e.kind], e.args)

    @staticmethod
    def _basis_product(a: WnBasisElement, b: WnBasisElement, field):
        # a call-time global lookup: a rebinding of ``wn.wn_mul`` is seen
        return wn_mul(a, b, field).terms

    @classmethod
    def gen(cls, i: int, field=QQ) -> "WnElement":
        return cls.basis(WnBasisElement(GEN, (i,)), field)


def wn_mul(a: WnBasisElement, b: WnBasisElement, field=QQ) -> WnElement:
    """Product of two basis elements.

    Nonzero products are generator left actions on elements of degree <= 3
    and generator right actions on non-annihilator elements; everything
    else, including anything touching the annihilator span, is zero.
    """
    if a.kind == GEN:
        q = a.args[0]
        if b.kind == GEN:
            return WnElement.basis(WnBasisElement(PAIR, (q, b.args[0])), field)
        if b.kind == PAIR:
            y, z = b.args
            return WnElement.basis(WnBasisElement(LPROD, (q, y, z)), field)
        if b.kind == LPROD:
            # q * x(yz) = -(q, y*x, z)
            x_, y, z = b.args
            return WnElement.from_ints(((-1, canonicalize(MIDASSOC, (q, y, x_, z))),),
                                       field)
        if b.kind == ASSOC:
            # q * (x,t1,t2) = (x, q*t1, t2)
            x_, t1, t2 = b.args
            return WnElement.basis(canonicalize(MIDASSOC, (x_, q, t1, t2)), field)
        return WnElement.zero(field)
    if b.kind == GEN:
        y = b.args[0]
        if a.kind == PAIR:
            # xz * y = (x,z,y) + x(zy)
            x_, z = a.args
            return WnElement.from_ints((
                (1, canonicalize(ASSOC, (x_, z, y))),
                (1, WnBasisElement(LPROD, (x_, z, y))),
            ), field)
        if a.kind == LPROD:
            # x(zt) * y = (x,[z,t],y) + (z, x*t, y)
            x_, z, t = a.args
            return WnElement.from_ints((
                (1, canonicalize(MIDASSOC, (x_, z, t, y))),
                (-1, canonicalize(MIDASSOC, (x_, t, z, y))),
                (1, canonicalize(MIDASSOC, (z, x_, t, y))),
            ), field)
        if a.kind == ASSOC:
            # (x,t1,t2) * y = Tch(x,t1,t2,y) + (x, t1 o t2, y)
            x_, t1, t2 = a.args
            return WnElement.from_ints((
                (1, canonicalize(TEICH, (x_, t1, t2, y))),
                (1, canonicalize(MIDASSOC, (x_, t1, t2, y))),
                (1, canonicalize(MIDASSOC, (x_, t2, t1, y))),
            ), field)
        if a.kind in (TEICH, RWORD):
            # Tch(x,t1,t2,t3) * y and R-words * y append R_y
            return WnElement.basis(canonicalize(RWORD, a.args + (y,)), field)
    return WnElement.zero(field)


def wn_basis(md: Mapping[int, int]) -> list[WnBasisElement]:
    """All canonical basis elements of the given multidegree: the images
    under ``canonicalize`` of every ordering of md's letters, for every
    kind of md's degree."""
    deg = md_total(md)
    if deg < 1:
        raise ValueError("total degree must be >= 1")
    kinds = [k for k, (d, _) in KINDS.items() if d == _table_degree(deg)]
    perms = list(distinct_permutations(md_letters(md)))
    return sorted({canonicalize(k, p) for k in kinds for p in perms},
                  key=WnElement._key_order)
