"""The one linear-combination type: finite maps basis key -> nonzero scalar.

Magma polynomials and the normal-form elements of both table algebras are
``LinComb`` subclasses.  A subclass gives only its key order and its basis
product; the linear structure and the bilinear product live here.

Coefficients are checked and coerced once, where they enter: by
``LinComb(terms, field)`` for arbitrary scalars, and by ``from_ints`` for
the (int coefficient, key) pairs of a table row, which both multiplication
tables build their products from.  Every other constructor (``basis``,
``zero``, and the arithmetic through ``_of``) takes coefficients already in
the field, and shares the field's ``zero`` and ``one`` constants.
"""

from __future__ import annotations

from typing import Mapping

from .fields import QQ


def add_scaled(out: dict, terms: Mapping, c, field) -> None:
    """out += c * terms in place, for a nonzero scalar c.

    A key whose sum is zero is dropped, and comes back at the end of the
    insertion order if a later term hits it.
    """
    zero = field.zero
    for k, x in terms.items():
        s = field.add(out.get(k, zero), field.mul(x, c))
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s


class LinComb:
    """Finite map key -> nonzero scalar over an exact field.

    Immutable by convention: no method mutates ``self``; zero coefficients
    are never stored.  Subclasses give ``_key_order`` (key -> sort key) and
    ``_basis_product`` ((key, key, field) -> map key -> scalar), which
    ``*`` extends bilinearly.
    """

    __slots__ = ("field", "terms")

    def __init__(self, terms: Mapping | None = None, field=QQ):
        self.field = field
        clean = {}
        if terms:
            for k, c in terms.items():
                c = field.coerce(c)
                if c != field.zero:
                    clean[k] = c
        self.terms = clean

    @classmethod
    def zero(cls, field=QQ):
        return cls._of({}, field)

    @classmethod
    def basis(cls, key, field=QQ):
        return cls._of({key: field.one}, field)

    @classmethod
    def from_ints(cls, pairs, field=QQ):
        """The sum of c * key over (int c, key) pairs.

        Repeated keys are added up as ints, each sum is coerced into
        ``field`` once, and a sum that vanishes there is dropped.  Keys keep
        the order of their first pair.
        """
        sums: dict = {}
        for c, k in pairs:
            sums[k] = sums.get(k, 0) + c
        coerce, zero = field.coerce, field.zero
        return cls._of({k: x for k, s in sums.items() if (x := coerce(s)) != zero},
                       field)

    @classmethod
    def _of(cls, terms: dict, field):
        """The element with these terms, already nonzero and in ``field``."""
        res = cls.__new__(cls)
        res.field = field
        res.terms = terms
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: type(self)._key_order(t[0]))

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{k!r}" for k, c in self.sorted_terms())
        return f"{type(self).__name__}({body})"

    def _check(self, other):
        if type(self) is not type(other) or self.field != other.field:
            raise ValueError("incompatible operands")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_scaled(out, other.terms, self.field.one, self.field)
        return self._of(out, self.field)

    def __neg__(self):
        f = self.field
        return self._of({k: f.neg(c) for k, c in self.terms.items()}, f)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return type(self).zero(f)
        return self._of({k: f.mul(cv, c) for k, cv in self.terms.items()}, f)

    def __rmul__(self, c):
        return self.scaled(c)

    def __mul__(self, other):
        """Bilinear extension of the basis product."""
        self._check(other)
        f = self.field
        product = type(self)._basis_product
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                add_scaled(out, product(a, b, f), f.mul(ca, cb), f)
        return self._of(out, f)
