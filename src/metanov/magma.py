"""Free nonassociative words (binary trees over generators) and their
exact-coefficient linear combinations.

Leaves are either generators ``x<k>`` or formal identity variables ``v<k>``;
the two index spaces are disjoint, so substitution never captures.

``MagmaPoly`` is the ``LinComb`` of words, multiplied by tree join.
``evaluate`` is the one bottom-up walk from words to values:
substitution, relabeling and the normal forms of magma polynomials in
the table algebras are calls to it.

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
from .lincomb import LinComb, add_scaled
from .multisets import distinct_permutations, md_letters


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
        len(leaves(w)),
        shape_preorder(w),
        tuple((_KIND_ORDER[a.kind], a.index) for a in leaves(w)),
    )


def poly_multidegree(f: MagmaPoly, kind: str) -> dict[int, int]:
    """The multiplicities of the ``kind`` leaves ("x": generators, "v":
    formal variables) that every term of f shares.  A zero or
    inhomogeneous f, or a leaf of the other kind, is refused."""
    md = None
    for w in f.terms:
        cur: dict[int, int] = {}
        for a in leaves(w):
            if a.kind != kind:
                other = "generator" if a.kind == "x" else "formal-variable"
                raise ValueError(f"term {w!r} has a {other} leaf {a!r}; "
                                 f"expected {kind}-leaves only")
            cur[a.index] = cur.get(a.index, 0) + 1
        if md is None:
            md = cur
        elif cur != md:
            raise ValueError("polynomial is not multihomogeneous")
    if md is None:
        raise ValueError("the zero polynomial has no multidegree")
    return md


class MagmaPoly(LinComb):
    """Linear combination of words, in ``word_key`` order; the product of
    two words is their tree join."""

    _key_order = staticmethod(word_key)

    @staticmethod
    def _basis_product(a: MagmaWord, b: MagmaWord, field) -> dict:
        return {Node(a, b): field.one}


def x(i: int, field=QQ) -> MagmaPoly:
    return MagmaPoly.basis(Atom("x", i), field)


def v(i: int, field=QQ) -> MagmaPoly:
    return MagmaPoly.basis(Atom("v", i), field)


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


# -- evaluation ------------------------------------------------------


def evaluate(f: MagmaPoly, element: type[LinComb], leaf=None) -> LinComb:
    """The linear extension of a bottom-up evaluation of f's words.

    A leaf ``a`` takes the value ``leaf(a)``, an ``element``; a product
    word takes the product of its factors' values, and its right factor is
    not evaluated when the left one is zero.  Without ``leaf``, a generator
    x_i takes ``element.gen(i)`` and a formal variable is refused: this is
    the normal form of f in the table algebra of ``element``.
    """
    field = f.field
    if leaf is None:
        def leaf(a: Atom):
            if a.kind != "x":
                raise ValueError(f"cannot evaluate formal variable {a!r}")
            return element.gen(a.index, field)

    out: dict = {}
    for w, c in f.terms.items():
        add_scaled(out, _value(w, leaf).terms, c, field)
    return element._of(out, field)


def _value(w: MagmaWord, leaf):
    """The value of one word in ``evaluate``; a module function, not a
    recursive closure, so that a call leaves no reference cycle behind."""
    if isinstance(w, Atom):
        return leaf(w)
    l = _value(w.left, leaf)
    return l if l.is_zero() else l * _value(w.right, leaf)


def substitute(f: MagmaPoly, assignment: Mapping[int, MagmaPoly]) -> MagmaPoly:
    """Simultaneously substitute polynomials for the formal variables of f.

    Generators pass through.  A formal variable whose value is read must
    be assigned; as in ``evaluate``, a product with a zero left factor does
    not read its right one.
    """
    field = f.field

    def leaf(a: Atom) -> MagmaPoly:
        if a.kind == "x":
            return MagmaPoly.basis(a, field)
        g = assignment.get(a.index)
        if g is None:
            raise ValueError(f"unassigned variable v{a.index}")
        if g.field != field:
            raise ValueError("field mismatch in substitution")
        return g

    return evaluate(f, MagmaPoly, leaf)


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
    if any(m < 1 for m in md.values()):
        raise ValueError("multiplicities must be >= 1")
    letters = md_letters(md)
    if not letters:
        raise ValueError("total degree must be >= 1")
    return list(distinct_permutations(letters))


def _build(shape: Iterator[int], letters: Iterator[Atom]) -> MagmaWord:
    """The word whose preorder is ``shape`` and whose leaves are ``letters``."""
    if next(shape):
        left = _build(shape, letters)
        return Node(left, _build(shape, letters))
    return next(letters)


def build_word(shape: tuple[int, ...], seq: tuple[int, ...]) -> MagmaWord:
    """The word whose preorder is ``shape`` and whose leaves are x_i for i
    in ``seq``: word i * len(seqs) + j of ``enumerate_words``, built alone."""
    return _build(iter(shape), (Atom("x", g) for g in seq))


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
