"""Normal forms for the free metabelian algebra with the weakly-Novikov
identity only (no right symmetry imposed).

Basis monomials have the shape ``x_i L_{j1}..L_{jn} R_{k1}..R_{kt}``; for
n >= 4 the L-indices are only defined up to even permutations, so one
canonical representative per alternating-group orbit is stored.

``WlcElement`` is the ``LinComb`` of these monomials; its product is
``wlc_mul`` extended bilinearly, and the normal form of a magma
polynomial p is ``magma.evaluate(p, WlcElement)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .fields import QQ
from .lincomb import LinComb
from .multisets import distinct_permutations, md_letters, md_sub, md_total, sub_multisets


@dataclass(frozen=True, slots=True)
class WlcMonomial:
    base: int
    lpart: tuple[int, ...]
    rpart: tuple[int, ...]

    def __post_init__(self):
        if self.degree >= 2 and not self.lpart:
            raise ValueError("monomials of degree >= 2 must carry an L-part")
        if self.lpart != canonicalize_L(self.lpart):
            raise ValueError(f"L-part {self.lpart} is not canonical")

    @property
    def degree(self) -> int:
        return 1 + len(self.lpart) + len(self.rpart)

    def __repr__(self) -> str:
        s = f"x{self.base}"
        if self.lpart:
            s += " L[" + ",".join(f"x{j}" for j in self.lpart) + "]"
        if self.rpart:
            s += " R[" + ",".join(f"x{k}" for k in self.rpart) + "]"
        return s


def _inversions(seq: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


def canonicalize_L(seq: Iterable[int]) -> tuple[int, ...]:
    """Canonical representative of an L-index sequence.

    Sequences shorter than 4 are free (returned unchanged).  From length 4
    on, even permutations of the sequence denote the same monomial: the
    even orbit is represented by the sorted sequence, the odd orbit by the
    sorted sequence with its last two entries transposed.  A repeated index
    merges the two orbits.
    """
    seq = tuple(seq)
    if len(seq) < 4:
        return seq
    s = tuple(sorted(seq))
    if len(set(seq)) < len(seq):
        return s
    if _inversions(seq) % 2 == 0:
        return s
    return s[:-2] + (s[-1], s[-2])


def _mono(base: int, lpart, rpart) -> WlcMonomial:
    return WlcMonomial(base, canonicalize_L(tuple(lpart)), tuple(rpart))


class WlcElement(LinComb):
    """Linear combination of canonical WlcMonomial keys."""

    @staticmethod
    def _key_order(m: WlcMonomial):
        return (m.degree, m.base, m.lpart, m.rpart)

    @staticmethod
    def _basis_product(a: WlcMonomial, b: WlcMonomial, field):
        # a call-time global lookup: a rebinding of ``wlc.wlc_mul`` is seen
        return wlc_mul(a, b, field).terms

    @classmethod
    def gen(cls, i: int, field=QQ) -> "WlcElement":
        return cls.basis(WlcMonomial(i, (), ()), field)


def wlc_mul(a: WlcMonomial, b: WlcMonomial, field=QQ) -> WlcElement:
    """Product of two basis monomials, per the multiplication table.

    Products not matching a table row are zero; in particular any product
    of two factors of degree >= 2.
    """
    da, db = a.degree, b.degree
    if da == 1 and db == 1:
        # x_j * x_i = x_i L_{x_j}
        return WlcElement.basis(_mono(b.base, (a.base,), ()), field)
    if db == 1:
        # (any monomial of degree >= 2) * x_q appends R_q
        return WlcElement.basis(
            WlcMonomial(a.base, a.lpart, a.rpart + (b.base,)), field
        )
    if da == 1:
        if not b.rpart:
            # x_q * (pure-L monomial) appends L_q
            return WlcElement.basis(
                _mono(b.base, b.lpart + (a.base,), ()), field
            )
        if len(b.lpart) == 1 and len(b.rpart) == 1:
            # x_q * (x_i L_j R_k) = x_k L_i L_j L_q - x_k L_q L_i L_j
            q, (i,), (k,) = a.base, b.lpart, b.rpart
            i0 = b.base
            return WlcElement.from_ints(((1, _mono(k, (i0, i, q), ())),
                                         (-1, _mono(k, (q, i0, i), ()))), field)
        return WlcElement.zero(field)
    return WlcElement.zero(field)


def wlc_basis(md: Mapping[int, int]) -> list[WlcMonomial]:
    """All canonical basis monomials of the given multidegree: for each
    base letter and split of the other letters into L- and R-letters, the
    ``canonicalize_L`` images of the orderings of the L-letters times the
    orderings of the R-letters."""
    if md_total(md) < 1:
        raise ValueError("total degree must be >= 1")
    out: list[WlcMonomial] = []
    for b in sorted(md):
        rest = md_sub(md, {b: 1})
        for lset in sub_multisets(rest):
            if rest and not lset:
                continue  # monomials of degree >= 2 carry an L-part
            rletters = md_letters(md_sub(rest, lset))
            lparts = {canonicalize_L(p) for p in distinct_permutations(md_letters(lset))}
            for lp in lparts:
                for rp in distinct_permutations(rletters):
                    out.append(WlcMonomial(b, lp, rp))
    out.sort(key=WlcElement._key_order)
    return out
