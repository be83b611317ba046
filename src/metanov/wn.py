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

``WnElement`` is the ``LinComb`` of these keys; its product is ``wn_mul``
extended bilinearly, and the normal form of a magma polynomial p is
``magma.evaluate(p, WnElement)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .fields import QQ
from .lincomb import LinComb
from .multisets import distinct_permutations, md_letters, md_sub, md_total

GEN = "gen"
PAIR = "pair"
LPROD = "lprod"
ASSOC = "assoc"
MIDASSOC = "midassoc"
TEICH = "teich"
RWORD = "rword"

_KIND_ORDER = {GEN: 0, PAIR: 1, LPROD: 2, ASSOC: 3, MIDASSOC: 4, TEICH: 5, RWORD: 6}


@dataclass(frozen=True, slots=True)
class WnBasisElement:
    kind: str
    args: tuple[int, ...]

    @property
    def degree(self) -> int:
        if self.kind == GEN:
            return 1
        if self.kind == PAIR:
            return 2
        if self.kind in (LPROD, ASSOC):
            return 3
        if self.kind in (MIDASSOC, TEICH):
            return 4
        return len(self.args)  # RWORD: x plus k tail indices, degree k+1

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
    """Sort the symmetric index subsets of a raw element descriptor."""
    args = tuple(args)
    if kind == GEN:
        (g,) = args
        return WnBasisElement(GEN, (g,))
    if kind == PAIR:
        a, b = args
        return WnBasisElement(PAIR, (a, b))
    if kind == LPROD:
        x, y, z = args
        return WnBasisElement(LPROD, (x, y, z))
    if kind == ASSOC:
        x, t1, t2 = args
        return WnBasisElement(ASSOC, (x,) + tuple(sorted((t1, t2))))
    if kind == MIDASSOC:
        # (x, y*t1, t2) = (x, y*t2, t1)
        x, y, t1, t2 = args
        return WnBasisElement(MIDASSOC, (x, y) + tuple(sorted((t1, t2))))
    if kind == TEICH:
        x, t1, t2, t3 = args
        return WnBasisElement(TEICH, (x,) + tuple(sorted((t1, t2, t3))))
    if kind == RWORD:
        x, ts = args[0], args[1:]
        if len(ts) < 4:
            raise ValueError("R-words need at least 4 interchangeable indices")
        return WnBasisElement(RWORD, (x,) + tuple(sorted(ts)))
    raise ValueError(f"unknown element kind {kind!r}")


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


def _lin(field, *pairs) -> WnElement:
    out: dict[WnBasisElement, object] = {}
    for coeff, elem in pairs:
        c = field.add(out.get(elem, field.zero), field.coerce(coeff))
        if c == field.zero:
            out.pop(elem, None)
        else:
            out[elem] = c
    return WnElement(out, field)


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
            return _lin(field, (-1, canonicalize(MIDASSOC, (q, y, x_, z))))
        if b.kind == ASSOC:
            # q * (x,t1,t2) = (x, q*t1, t2)
            x_, t1, t2 = b.args
            return _lin(field, (1, canonicalize(MIDASSOC, (x_, q, t1, t2))))
        return WnElement.zero(field)
    if b.kind == GEN:
        y = b.args[0]
        if a.kind == PAIR:
            # xz * y = (x,z,y) + x(zy)
            x_, z = a.args
            return _lin(
                field,
                (1, canonicalize(ASSOC, (x_, z, y))),
                (1, WnBasisElement(LPROD, (x_, z, y))),
            )
        if a.kind == LPROD:
            # x(zt) * y = (x,[z,t],y) + (z, x*t, y)
            x_, z, t = a.args
            return _lin(
                field,
                (1, canonicalize(MIDASSOC, (x_, z, t, y))),
                (-1, canonicalize(MIDASSOC, (x_, t, z, y))),
                (1, canonicalize(MIDASSOC, (z, x_, t, y))),
            )
        if a.kind == ASSOC:
            # (x,t1,t2) * y = Tch(x,t1,t2,y) + (x, t1 o t2, y)
            x_, t1, t2 = a.args
            return _lin(
                field,
                (1, canonicalize(TEICH, (x_, t1, t2, y))),
                (1, canonicalize(MIDASSOC, (x_, t1, t2, y))),
                (1, canonicalize(MIDASSOC, (x_, t2, t1, y))),
            )
        if a.kind == TEICH:
            x_, t1, t2, t3 = a.args
            return WnElement.basis(
                canonicalize(RWORD, (x_, t1, t2, t3, y)), field
            )
        if a.kind == RWORD:
            return WnElement.basis(
                canonicalize(RWORD, a.args + (y,)), field
            )
        return WnElement.zero(field)
    return WnElement.zero(field)


def is_annihilator(e: WnElement) -> bool:
    """True iff every term is an (x, y*t1, t2) element (or e = 0)."""
    return all(k.kind == MIDASSOC for k in e.terms)


def wn_basis(md: Mapping[int, int]) -> list[WnBasisElement]:
    """All canonical basis elements of the given multidegree."""
    deg = md_total(md)
    if deg < 1:
        raise ValueError("total degree must be >= 1")
    letters = md_letters(md)
    out: list[WnBasisElement] = []
    if deg == 1:
        out.append(WnBasisElement(GEN, (letters[0],)))
    elif deg == 2:
        out.extend(
            WnBasisElement(PAIR, p) for p in distinct_permutations(letters)
        )
    elif deg == 3:
        for p in distinct_permutations(letters):
            out.append(WnBasisElement(LPROD, p))
        seen = set()
        for x_ in sorted(set(letters)):
            rest = tuple(md_letters(md_sub(md, {x_: 1})))
            e = WnBasisElement(ASSOC, (x_,) + rest)
            if e not in seen:
                seen.add(e)
                out.append(e)
    elif deg == 4:
        seen = set()
        for x_ in sorted(set(letters)):
            rest3 = md_sub(md, {x_: 1})
            for y in sorted(set(md_letters(rest3))):
                tpair = tuple(md_letters(md_sub(rest3, {y: 1})))
                e = WnBasisElement(MIDASSOC, (x_, y) + tpair)
                if e not in seen:
                    seen.add(e)
                    out.append(e)
            e = WnBasisElement(TEICH, (x_,) + tuple(md_letters(rest3)))
            if e not in seen:
                seen.add(e)
                out.append(e)
    else:
        seen = set()
        for x_ in sorted(set(letters)):
            ts = tuple(md_letters(md_sub(md, {x_: 1})))
            e = WnBasisElement(RWORD, (x_,) + ts)
            if e not in seen:
                seen.add(e)
                out.append(e)
    out.sort(key=WnElement._key_order)
    return out
