"""Free nonassociative words (binary trees over generators) and their
exact-coefficient linear combinations.

Leaves are either generators ``x<k>`` or formal identity variables ``v<k>``;
the two index spaces are disjoint, so substitution never captures.

This module owns the word order (``word_key``).  Within one multidegree
it is the product of two sorted factors, ``shape_preorders`` and
``leaf_sequences``, which the oracle uses to index words without
building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from .fields import QQ
from .multisets import distinct_permutations


@dataclass(frozen=True, slots=True)
class Atom:
    kind: str  # "x" (generator) or "v" (formal identity variable)
    index: int

    def __post_init__(self):
        if self.kind not in ("x", "v"):
            raise ValueError(f"bad atom kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("atom index must be nonnegative")

    def __repr__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True, slots=True)
class Node:
    left: "MagmaWord"
    right: "MagmaWord"

    def __repr__(self) -> str:
        return f"({self.left!r}*{self.right!r})"


MagmaWord = Atom | Node


def degree(w: MagmaWord) -> int:
    if isinstance(w, Atom):
        return 1
    return degree(w.left) + degree(w.right)


def leaves(w: MagmaWord) -> tuple[Atom, ...]:
    if isinstance(w, Atom):
        return (w,)
    return leaves(w.left) + leaves(w.right)


def shape_preorder(w: MagmaWord) -> tuple[int, ...]:
    """Preorder traversal of w's tree: 0 = leaf, 1 = internal node."""
    if isinstance(w, Atom):
        return (0,)
    return (1,) + shape_preorder(w.left) + shape_preorder(w.right)


_KIND_ORDER = {"x": 0, "v": 1}


def word_key(w: MagmaWord):
    """Total order on words: (degree, shape preorder, leaf sequence)."""
    return (
        degree(w),
        shape_preorder(w),
        tuple((_KIND_ORDER[a.kind], a.index) for a in leaves(w)),
    )


def multidegree(w: MagmaWord) -> dict[int, int]:
    """Generator multiplicities of a word; rejects formal variables."""
    md: dict[int, int] = {}
    for a in leaves(w):
        if a.kind != "x":
            raise ValueError(f"word contains non-generator leaf {a!r}")
        md[a.index] = md.get(a.index, 0) + 1
    return md


class MagmaPoly:
    """Finite map MagmaWord -> scalar over an exact field.

    Immutable by convention: no method mutates ``self``; zero coefficients
    are never stored.
    """

    __slots__ = ("field", "terms")

    def __init__(self, terms: Mapping[MagmaWord, object] | None = None, field=QQ):
        self.field = field
        clean: dict[MagmaWord, object] = {}
        if terms:
            for w, c in terms.items():
                c = field.coerce(c)
                if c != field.zero:
                    clean[w] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(field=QQ) -> "MagmaPoly":
        return MagmaPoly({}, field)

    @staticmethod
    def word(w: MagmaWord, field=QQ) -> "MagmaPoly":
        return MagmaPoly({w: field.one}, field)

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MagmaPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "MagmaPoly(0)"
        body = " + ".join(f"{c}*{w!r}" for w, c in self.sorted_terms())
        return f"MagmaPoly({body})"

    # -- linear structure --------------------------------------------

    def _check(self, other: "MagmaPoly"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "MagmaPoly") -> "MagmaPoly":
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = f.add(out.get(w, f.zero), c)
            if s == f.zero:
                out.pop(w, None)
            else:
                out[w] = s
        res = MagmaPoly.zero(f)
        res.terms = out
        return res

    def __neg__(self) -> "MagmaPoly":
        f = self.field
        res = MagmaPoly.zero(f)
        res.terms = {w: f.neg(c) for w, c in self.terms.items()}
        return res

    def __sub__(self, other: "MagmaPoly") -> "MagmaPoly":
        return self + (-other)

    def scaled(self, c) -> "MagmaPoly":
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return MagmaPoly.zero(f)
        res = MagmaPoly.zero(f)
        res.terms = {w: f.mul(cv, c) for w, cv in self.terms.items()}
        return res

    def __rmul__(self, c) -> "MagmaPoly":
        return self.scaled(c)

    # -- multiplication ----------------------------------------------

    def __mul__(self, other: "MagmaPoly") -> "MagmaPoly":
        """Bilinear extension of the tree-join product of words."""
        self._check(other)
        f = self.field
        out: dict[MagmaWord, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = Node(w1, w2)
                s = f.add(out.get(w, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        res = MagmaPoly.zero(f)
        res.terms = out
        return res


def x(i: int, field=QQ) -> MagmaPoly:
    return MagmaPoly.word(Atom("x", i), field)


def v(i: int, field=QQ) -> MagmaPoly:
    return MagmaPoly.word(Atom("v", i), field)


# -- derived operations ("sugar") ------------------------------------


def associator(a: MagmaPoly, b: MagmaPoly, c: MagmaPoly) -> MagmaPoly:
    """(a,b,c) = (ab)c - a(bc)."""
    return (a * b) * c - a * (b * c)


def commutator(a: MagmaPoly, b: MagmaPoly) -> MagmaPoly:
    """[a,b] = ab - ba."""
    return a * b - b * a


def circle(a: MagmaPoly, b: MagmaPoly) -> MagmaPoly:
    """a o b = ab + ba."""
    return a * b + b * a


def tch(a: MagmaPoly, b: MagmaPoly, c: MagmaPoly, d: MagmaPoly) -> MagmaPoly:
    """The Teichmueller combination (ab,c,d) - (b,ac,d) - 2(a,bc,d)."""
    two = a.field.coerce(2)
    return (
        associator(a * b, c, d)
        - associator(b, a * c, d)
        - associator(a, b * c, d).scaled(two)
    )


_SUGAR = {
    "A": (3, associator),
    "C": (2, commutator),
    "O": (2, circle),
    "T": (4, tch),
}


def expand_sugar(name: str, args: list[MagmaPoly]) -> MagmaPoly:
    """Expand a named derived operation applied to polynomial arguments."""
    if name not in _SUGAR:
        raise ValueError(f"unknown derived operation {name!r}")
    arity, fn = _SUGAR[name]
    if len(args) != arity:
        raise ValueError(f"{name} expects {arity} arguments, got {len(args)}")
    return fn(*args)


# -- substitution ----------------------------------------------------


def replace_leaves(w: MagmaWord, mapping: Mapping[Atom, MagmaWord]) -> MagmaWord:
    """Replace leaves by single words (used when every image is a word)."""
    if isinstance(w, Atom):
        return mapping.get(w, w)
    return Node(replace_leaves(w.left, mapping), replace_leaves(w.right, mapping))


def substitute(f: MagmaPoly, assignment: Mapping[int, MagmaPoly]) -> MagmaPoly:
    """Simultaneously substitute polynomials for the formal variables of f.

    Every ``v<k>`` occurring in f must be assigned; generators pass through.
    """
    field = f.field

    def eval_word(w: MagmaWord) -> MagmaPoly:
        if isinstance(w, Atom):
            if w.kind == "v":
                if w.index not in assignment:
                    raise ValueError(f"unassigned variable v{w.index}")
                g = assignment[w.index]
                if g.field != field:
                    raise ValueError("field mismatch in substitution")
                return g
            return MagmaPoly.word(w, field)
        return eval_word(w.left) * eval_word(w.right)

    out = MagmaPoly.zero(field)
    for w, c in f.terms.items():
        out = out + eval_word(w).scaled(c)
    return out


def poly_variables(f: MagmaPoly) -> tuple[int, ...]:
    """Sorted indices of the formal variables occurring in f."""
    vs: set[int] = set()
    for w in f.terms:
        for a in leaves(w):
            if a.kind == "v":
                vs.add(a.index)
    return tuple(sorted(vs))


def is_multilinear(f: MagmaPoly) -> bool:
    """True if every term contains each of f's variables exactly once."""
    vs = poly_variables(f)
    if not vs:
        return False
    for w in f.terms:
        seen: dict[int, int] = {}
        for a in leaves(w):
            if a.kind == "v":
                seen[a.index] = seen.get(a.index, 0) + 1
        if tuple(sorted(seen)) != vs or any(m != 1 for m in seen.values()):
            return False
    return True


# -- word enumeration ------------------------------------------------
#
# Word i * len(seqs) + j of ``enumerate_words(md)`` is shape i of
# ``shape_preorders(n)`` filled with sequence j of ``seqs =
# leaf_sequences(md)``.


@lru_cache(maxsize=None)
def shape_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """Preorders (1 = node, 0 = leaf) of all binary trees with n leaves, sorted."""
    if n == 1:
        return ((0,),)
    return tuple(sorted((1,) + l + r for i in range(1, n)
                        for l in shape_preorders(i)
                        for r in shape_preorders(n - i)))


def leaf_sequences(md: Mapping[int, int]) -> list[tuple[int, ...]]:
    """All distinct sequences of generator indices with multidegree md, sorted."""
    letters: list[int] = []
    for g in sorted(md):
        if md[g] < 1:
            raise ValueError("multiplicities must be >= 1")
        letters.extend([g] * md[g])
    if not letters:
        raise ValueError("total degree must be >= 1")
    return list(distinct_permutations(letters))


def _build(shape: Iterator[int], letters: Iterator[Atom]) -> MagmaWord:
    """The word whose preorder is ``shape`` and whose leaves are ``letters``."""
    if next(shape):
        left = _build(shape, letters)
        return Node(left, _build(shape, letters))
    return next(letters)


def enumerate_words(md: Mapping[int, int]) -> list[MagmaWord]:
    """All words of the given generator multidegree, sorted by word_key.

    Count = Catalan(n-1) * (multinomial coefficient of md), n = total degree.
    The words are built in that order (shapes by preorder, then leaf
    sequences) rather than sorted: at degree 6, per-word sort keys are a
    burst of about 17 MiB of short-lived small tuples, which fragments
    the small-object allocator's arenas for the calls that follow and
    makes a later call's peak memory some 7 MiB higher than the first's.
    """
    seqs = leaf_sequences(md)
    atoms = {g: Atom("x", g) for g in md}
    return [_build(iter(shape), map(atoms.__getitem__, seq))
            for shape in shape_preorders(len(seqs[0])) for seq in seqs]
