"""Exact scalar fields: the rationals and prime fields of odd characteristic.

Every coefficient in the package is either a ``Fraction`` (over Q) or an
int in ``[0, p)`` (over GF(p)).  Floating point is never used.  A field's
``zero`` and ``one`` are plain class constants, shared by every element
that holds them: both scalar types are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Rationals:
    """The field Q, with exact ``Fraction`` arithmetic."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self) -> str:
        return "Q"

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField:
    """GF(p) for an odd prime p.  Elements are ints reduced mod p.

    p = 2 is rejected: halving must be defined (the varieties under study
    live over fields of characteristic distinct from 2).
    """

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported (division by 2 required)")
        self.p = p
        self.char = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return int(x) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


QQ = Rationals()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(spec: str):
    """Parse a field spec as used by the CLI: ``q`` or ``fp:<p>``."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        return GF(int(s[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<p>')")
