"""Brute-force T-ideal oracle.

For a set of polynomial identities and a target multidegree, builds the
sparse exact matrix of all identity consequences lying in that component
(disjoint-block substitutions of bracketed words, wrapped in one-hole
bracketed contexts) and computes dimensions, bases, and membership by
exact elimination: fraction-free integer pivoting over Q, modular
elimination over GF(p).  The largest column of a row leads, so quotient
bases are made of the earliest words under ``word_key``.

Rows are stamped from patterns, never built on ``Node`` trees.  A word is
a pair (shape preorder, leaf sequence) with ``magma``'s column: its shape's
rank in ``shape_preorders`` times the number of leaf sequences, plus its
sequence's rank in ``leaf_sequences``.  A pattern (an identity, a shape per
block, and a one-hole context shape with its hole position) read at a
letter sequence s (the context's letters left of the hole, each block's,
then the rest) is a consequence.  Each live term of a pattern is a column
offset and the map tau of positions that takes s to the term's leaf
sequence, so one rank table per tau stamps the pattern at every s.
Coefficients are ints: each identity is scaled to integers over Q and
reduced mod p over GF(p).

Dead shapes are derived bottom-up by degree, from the identities alone.
At degree k a shape is dead if a monomial pattern has an instance in it:
an identity left with one term, such as (v1v2)(v3v4), or a shape found
dead below k (pattern leaves match any subtree).  Then, until nothing
changes, a pattern of degree k with exactly one live term kills that
term's shape: its row is a unit vector at every s.  A T-ideal is closed
under substitution and context, so a shape killed at k is a monomial
pattern above k, in every characteristic and multidegree.  Every word of
a dead shape is a dead column, in no row; ``RelationMatrix.dead`` holds
the dead shape ranks, and the elimination takes their columns as
implicit pivots.  The other rows are built on live words only, with
terms on dead words dropped.

Presets, in the identity-file grammar of ``exprs`` (each ``= 0``); ``+``
combines them, as in ``wlc2+flex``:

    rs           A(v1,v2,v3) - A(v1,v3,v2)          right symmetry
    wn           v1*A(v2,v3,v4) - A(v2,v3,v1*v4)    weakly Novikov
    lc           v1*(v2*v3) - v2*(v1*v3)            left commutativity
    met          (v1*v2)*(v3*v4)                    metabelian
    flex         A(v1,v2,v3) + A(v3,v2,v1)
    antiflex     A(v1,v2,v3) - A(v3,v2,v1)
    weak-flex:+  A(v1*v2,v3,v4) - A(v4,v3,v1*v2)
    weak-flex:-  A(v1*v2,v3,v4) + A(v4,v3,v1*v2)
    wlc2 = wn, met;  wnov2 = rs, wn, met;  nov2 = rs, wn, lc, met
    lie-nilp:n, jordan-nilp:n   (v1*v2), then n-1 times w -> w*v - v*w,
                 resp. w -> w*v + v*w, v a fresh variable
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping

from .exprs import parse_identity, render
from .fields import QQ
from .magma import (
    Atom,
    MagmaPoly,
    MagmaWord,
    build_word,
    leaf_sequences,
    leaves,
    poly_multidegree,
    shape_preorder,
    shape_preorders,
    substitute,
    v,
)
from .multisets import md_total

DEFAULT_DEGREE_CAP = 6


class DegreeCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class IdentitySet:
    """A named set of polynomial identities over formal variables (= 0 each)."""

    name: str
    identities: tuple[MagmaPoly, ...]

    def union(self, other: "IdentitySet", name: str | None = None) -> "IdentitySet":
        return IdentitySet(
            name or f"{self.name}+{other.name}",
            self.identities + other.identities,
        )


# -- identity presets --------------------------------------------------

_RS = "A(v1,v2,v3) - A(v1,v3,v2)"
_WN = "v1*A(v2,v3,v4) - A(v2,v3,v1*v4)"
_LC = "v1*(v2*v3) - v2*(v1*v3)"
_MET = "(v1*v2)*(v3*v4)"

_PRESETS = {
    "rs": [_RS],
    "wn": [_WN],
    "lc": [_LC],
    "met": [_MET],
    # full linearization of (x,y,x) = 0, valid away from characteristic 2
    "flex": ["A(v1,v2,v3) + A(v3,v2,v1)"],
    "antiflex": ["A(v1,v2,v3) - A(v3,v2,v1)"],
    "weak-flex:+": ["A(v1*v2,v3,v4) - A(v4,v3,v1*v2)"],
    "weak-flex:-": ["A(v1*v2,v3,v4) + A(v4,v3,v1*v2)"],
    "wlc2": [_WN, _MET],
    "wnov2": [_RS, _WN, _MET],
    "nov2": [_RS, _WN, _LC, _MET],
}


def _op_chain(n: int, sign: int) -> MagmaPoly:
    # (v1 v2) followed by n-1 operators H (sign=-1) or Theta (sign=+1)
    w = v(1) * v(2)
    for i in range(3, n + 2):
        w = w * v(i) + (v(i) * w).scaled(sign)
    return w


def _identities(name: str, lines) -> IdentitySet:
    """The identity set ``name`` written in ``lines``: one ``<expr over
    v-vars> [= 0]`` per line, ``#`` starting a comment."""
    ids = tuple(parse_identity(body) for line in lines
                if (body := line.split("#", 1)[0].strip()))
    if not ids:
        raise ValueError(f"no identities found in {name}")
    return IdentitySet(name, ids)


@functools.cache
def _named_preset(key: str) -> IdentitySet:
    return _identities(key, _PRESETS[key])  # parsed once per process


def preset(name: str) -> IdentitySet:
    """The preset identity set ``name`` (see the module docstring)."""
    # a "+" right after ":" is the sign of "weak-flex:+", not a combiner
    parts = [p.strip() for p in re.split(r"(?<!:)\+", name)]
    if not all(parts):
        raise ValueError(f"empty preset name in {name!r}")
    if len(parts) > 1:
        return IdentitySet(name, sum((preset(p).identities for p in parts), ()))
    key = parts[0]
    if key in _PRESETS:
        return _named_preset(key)
    if key.startswith(("lie-nilp:", "jordan-nilp:")):
        try:
            n = int(key.partition(":")[2])
        except ValueError:
            raise ValueError(f"{key}: the nilpotency order must be an integer") from None
        if n < 1:
            raise ValueError(f"{key}: the nilpotency order must be >= 1")
        return IdentitySet(key, (_op_chain(n, -1 if key.startswith("lie") else +1),))
    raise ValueError(f"unknown identity preset {name!r}")


def load_identity_file(path: str) -> IdentitySet:
    """Read an identity set file: one ``<expr over v-vars> = 0`` per line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _identities(path, fh)


# -- linearization -----------------------------------------------------


def linearize(f: MagmaPoly) -> MagmaPoly:
    """Full multilinearization of a multihomogeneous identity.

    Variables are renumbered to v1..vn.  Over Q, or GF(p) with p larger
    than every variable's multiplicity, the multilinear consequences are
    unchanged; ``relation_rows`` refuses smaller p.
    """
    vmd = poly_multidegree(f, "v")
    assignment, nxt = {}, 1
    for k in sorted(vmd):
        assignment[k] = MagmaPoly({Atom("v", i): 1 for i in range(nxt, nxt + vmd[k])},
                                  f.field)
        nxt += vmd[k]
    allvars = list(range(1, nxt))
    out = {w: c for w, c in substitute(f, assignment).terms.items()
           if sorted(a.index for a in leaves(w)) == allvars}
    if not out:
        raise ValueError("identity linearizes to zero")
    return MagmaPoly._of(out, f.field)


# -- relation matrix ---------------------------------------------------


@dataclass
class RelationMatrix:
    ncols: int  # column i is word i of ``enumerate_words(md)``
    rows: list[tuple[tuple[int, int], ...]]  # sparse (col, int coeff), sorted
    field: object
    # dead shape ranks: columns rank * nseq .. (rank + 1) * nseq - 1, each
    # with an implied unit row
    dead: frozenset[int] = frozenset()
    nseq: int = 1  # leaf sequences per shape

    @property
    def nrows(self) -> int:
        return len(self.rows) + len(self.dead) * self.nseq


def _normalized(r: dict[int, int], field) -> dict[int, int]:
    """The canonical multiple of a nonzero integer vector (entries in
    ``[1, p)`` over GF(p)), its largest column leading: content-stripped
    with positive lead over Q, lead 1 over GF(p).  May return r itself."""
    lead = max(r)
    p = field.char
    if not p:
        g = gcd(*r.values())
        g = -g if r[lead] < 0 else g
        return r if g == 1 else {col: c // g for col, c in r.items()}
    inv = pow(r[lead], -1, p)
    return r if inv == 1 else {col: c * inv % p for col, c in r.items()}


def _coefficients(lin: MagmaPoly, field, f: MagmaPoly,
                  where: str) -> tuple[list[int], int]:
    """The coefficients of ``lin`` (f itself, or its linearization) as ints,
    and the denominator they were cleared of: over Q scaled by the lcm of
    their denominators, over GF(p) reduced mod p (denominator 1).  A
    denominator that vanishes mod p raises, naming f, ``where`` it is
    used, and p."""
    cs = [Fraction(c) for c in lin.terms.values()]
    p = field.char
    if not p:
        den = lcm(*(c.denominator for c in cs))
        return [int(c * den) for c in cs], den
    for c in cs:
        if c.denominator % p == 0:
            raise ValueError(f"identity {render(f)} = 0 {where} has the "
                             f"coefficient {c}, whose denominator vanishes "
                             f"mod {p}")
    return [c.numerator * pow(c.denominator, -1, p) % p for c in cs], 1


def _templates(lin: MagmaPoly, coeffs: list[int]) -> list[tuple]:
    """The terms of a linearized identity with a nonzero int coefficient,
    cut at their leaves: (the preorder segment in front of each leaf, the
    block index each leaf takes, coefficient)."""
    out = []
    for w, c in zip(lin.terms, coeffs):
        if c:
            shape = shape_preorder(w)
            cuts = [-1] + [i for i, t in enumerate(shape) if not t]
            out.append((tuple(shape[a + 1:b] for a, b in itertools.pairwise(cuts)),
                        tuple(a.index - 1 for a in leaves(w)), c))  # v1 is block 0
    return out


def _instance_at(pattern: tuple[int, ...], shape: tuple[int, ...], i: int) -> bool:
    """Whether the subtree of ``shape`` at preorder position i is an instance
    of ``pattern``, a leaf of which matches any subtree."""
    for t in pattern:
        if t:
            if not shape[i]:
                return False
            i += 1
        else:
            need = 1  # skip the subtree at i
            while need:
                need += 1 if shape[i] else -1
                i += 1
    return True


def _patterns(identities, n: int, live, alive):
    """Each consequence pattern of degree n: an identity, a live shape per
    block (``live[k]``: the live shapes of degree k < n) and a live one-hole
    context.  Yields (hole position h, block width, terms), where terms are
    the pattern's (full shape, block positions, c) whose full shape is in
    ``alive``; a term whose shape is dead below n is dead in every context."""
    members = {k: set(shapes) for k, shapes in live.items()}
    contexts = {r: [(h, shape[:i], shape[i + 1:]) for shape in live[r + 1]
                    for h, i in enumerate(i for i, t in enumerate(shape) if not t)]
                for r in range(n - 1)}
    for templates in identities:
        m = len(templates[0][1])  # >= 2: a multilinear identity in one variable is v1
        for sizes in itertools.product(range(1, n), repeat=m):
            width = sum(sizes)
            if width > n:
                continue
            starts = list(itertools.accumulate(sizes, initial=0))
            term_live = members[width] if width < n else alive
            for blocks in itertools.product(*(live[k] for k in sizes)):
                terms = []
                for segs, slots, c in templates:
                    shape = sum((seg + blocks[k] for seg, k in zip(segs, slots)), ())
                    if shape in term_live:
                        terms.append((shape, [i for k in slots
                                              for i in range(starts[k], starts[k + 1])], c))
                for h, pre, post in contexts[n - width] if terms else ():
                    yield h, width, [(full, pos, c) for shape, pos, c in terms
                                     if (full := pre + shape + post) in alive]


def _live_shapes(monomials: list, identities: list, n: int) -> dict[int, list]:
    """{k: the live shapes of degree k} for k = 1..n, of an identity set
    given by its single-term ``monomials`` (preorders) and its other
    ``identities`` (int templates).  The field enters only through these:
    over GF(p) the coefficients are reduced mod p.

    At each degree k, bottom-up, a shape is dead if a monomial pattern has
    an instance in it; then, until nothing changes, a consequence pattern
    of degree k with exactly one live term kills that term's whole shape
    (its row is a unit vector at every letter sequence s, and s -> s o tau
    is a bijection).  A T-ideal is closed under substitution and context,
    so each shape killed at k is a monomial pattern for every higher
    degree, in every characteristic.  Reads the identities only, never a
    table.
    """
    patterns, live = list(monomials), {}
    for k in range(1, n + 1):
        alive = {shape for shape in shape_preorders(k)
                 if not any(_instance_at(pat, shape, i)
                            for pat in patterns for i in range(len(shape)))}
        shapes = [[full for full, _, _ in terms]
                  for _, _, terms in _patterns(identities, k, live, alive)]
        dead: set[tuple[int, ...]] = set()
        while new := {units[0] for terms in shapes
                      if len(units := [s for s in terms if s not in dead]) == 1}:
            dead |= new
        patterns += sorted(dead)
        live[k] = sorted(alive - dead)
    return live


def relation_rows(ids: IdentitySet, md: Mapping[int, int], field=QQ,
                  cap: int = DEFAULT_DEGREE_CAP) -> RelationMatrix:
    """All T-ideal consequence rows of ``ids`` in the ``md`` component,
    stamped from patterns on the live shapes (see the module docstring);
    column i is word i of ``enumerate_words(md)``.  Dead columns are not in
    any row."""
    n = md_total(md)
    if n > cap:
        raise DegreeCapExceeded(f"degree {n} exceeds cap {cap}")
    if 0 in md:
        raise ValueError("generator index 0 is reserved")
    p = field.char
    monomials, identities = [], []
    for f in ids.identities:
        vmd = poly_multidegree(f, "v")
        if 0 < p <= max(vmd.values()):
            raise ValueError(f"{ids.name} repeats a variable {p} or more "
                             f"times: linearization loses information in "
                             f"characteristic {p}")
        if md_total(vmd) > n:
            continue
        lin = linearize(f)
        templates = _templates(lin, _coefficients(lin, field, f, f"of {ids.name}")[0])
        if len(templates) == 1:
            monomials.append(sum((seg + (0,) for seg in templates[0][0]), ()))
        elif templates:
            identities.append(templates)
    live = _live_shapes(monomials, identities, n)

    seqs = leaf_sequences(md)
    nseq = len(seqs)
    shapes = shape_preorders(n)
    kept = set(live[n])
    offset = {shape: i * nseq for i, shape in enumerate(shapes) if shape in kept}
    dead = frozenset(i for i, shape in enumerate(shapes) if shape not in kept)
    seq_rank = {seq: i for i, seq in enumerate(seqs)}
    rows: dict[tuple[tuple[int, int], ...], None] = {}

    @functools.cache
    def ranks(tau: tuple[int, ...]) -> list[int]:  # seq_rank[s o tau] for each s
        return list(map(seq_rank.__getitem__, map(itemgetter(*tau), seqs)))

    def stamp(terms: list[tuple[int, tuple[int, ...], int]]) -> None:
        """Add a pattern's rows at every s, from its live terms (offset, tau, c)."""
        cs = [c for _, _, c in terms]
        # norms[i]: cs normalized with term i leading, its key the largest
        norms = [list(_normalized({(j == i, j): c for j, c in enumerate(cs)}, field).values())
                 for i in range(len(cs))]
        cols_at = [map(off.__add__, ranks(tau)) for off, tau, _ in terms]
        check = len({off for off, _, _ in terms}) < len(terms)  # terms may meet
        for cols in zip(*cols_at):
            if check and len(set(cols)) < len(cols):  # terms met in a column
                row: dict[int, int] = {}
                for col, c in zip(cols, cs):
                    row[col] = (row.get(col, 0) + c) % p if p else row.get(col, 0) + c
                row = {col: c for col, c in row.items() if c}
                if row:
                    rows[tuple(sorted(_normalized(row, field).items()))] = None
            else:
                rows[tuple(sorted(zip(cols, norms[cols.index(max(cols))])))] = None

    for h, width, terms in _patterns(identities, n, live, offset):
        if terms:
            stamp([(offset[full], (*range(h), *[h + i for i in pos], *range(h + width, n)), c)
                   for full, pos, c in terms])
    return RelationMatrix(len(shapes) * nseq, list(rows), field, dead, nseq)


# -- exact elimination ---------------------------------------------------


class Echelon:
    """Incremental sparse row echelon form; the largest column of a row leads.

    Rows are dicts of nonzero entries: integers over Q, combined
    fraction-free, and ints in ``[1, p)`` over GF(p).  Pivots are kept
    ``_normalized``.  Reduction updates one residual dict in place.  The
    columns of the ``dead`` shape ranks (``nseq`` columns each) are implicit
    pivots: they count in the rank, and ``reduce`` drops their entries.

    A residual with two entries also has its tail reduced, down the chain
    of two-entry pivots below it.  Most relation rows are binomials
    (e_u - c e_u', u' a permutation of u's leaves), and without this their
    pivots form chains that later rows walk one step at a time.
    """

    def __init__(self, field, dead: frozenset[int] = frozenset(), nseq: int = 1):
        self.field = field
        self.dead, self.nseq = dead, nseq
        self.pivots: dict[int, dict[int, object]] = {}

    @property
    def rank(self) -> int:
        return len(self.dead) * self.nseq + len(self.pivots)

    def reduce(self, row) -> dict[int, object]:
        """Residual of a vector (a dict or (col, coeff) pairs) after reduction
        against the current pivots, its entries on dead columns dropped."""
        return self._residual({col: c for col, c in dict(row).items()
                               if col // self.nseq not in self.dead})

    def add_row(self, row) -> None:
        """Add a relation row.  Rows are stamped on live shapes only, so no
        entry lies on a dead column and ``reduce``'s filter is skipped."""
        r = self._residual(dict(row))
        if r:
            self.pivots[max(r)] = r

    def _residual(self, r: dict) -> dict[int, object]:
        """Reduce r in place against the current pivots; return it normalized."""
        pivots, p = self.pivots, self.field.char
        while r:
            col = max(r)
            piv = pivots.get(col)
            if piv is None:  # the lead is new: reduce a binomial's tail
                if len(r) != 2:
                    break
                col = min(r)
                piv = pivots.get(col)
                if piv is None or len(piv) != 2:
                    break
            b = r[col]
            if p:  # piv's lead is col, with coefficient 1: r <- r - b*piv cancels r[col]
                for k, c in piv.items():
                    s = (r.get(k, 0) - b * c) % p
                    if s:
                        r[k] = s
                    else:
                        del r[k]
            else:  # r <- ma*r - mb*piv cancels r[col]
                g = gcd(piv[col], b)
                ma, mb = piv[col] // g, b // g
                if ma != 1:
                    for k in r:
                        r[k] *= ma
                for k, c in piv.items():
                    s = r.get(k, 0) - mb * c
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        return _normalized(r, self.field) if r else r


def _echelon(matrix: RelationMatrix) -> Echelon:
    ech = Echelon(matrix.field, matrix.dead, matrix.nseq)
    live_cols = matrix.ncols - len(matrix.dead) * matrix.nseq
    for row in sorted(matrix.rows, key=lambda r: (len(r), r[0][0])):
        if len(ech.pivots) == live_cols:
            break
        ech.add_row(row)
    return ech


def quotient_dimension(ids: IdentitySet, md: Mapping[int, int], field=QQ,
                       cap: int = DEFAULT_DEGREE_CAP) -> int:
    """dim of the md-component of the relatively free algebra of ``ids``."""
    matrix = relation_rows(ids, md, field, cap)
    return matrix.ncols - _echelon(matrix).rank


def quotient_basis(ids: IdentitySet, md: Mapping[int, int], field=QQ,
                   cap: int = DEFAULT_DEGREE_CAP) -> list[MagmaWord]:
    """Words whose classes form a basis of the md-component: the non-pivot
    columns, which (the largest column of a row leading) are the basis picked
    greedily from the smallest word under ``word_key`` up.  Only these words
    are built."""
    ech = _echelon(relation_rows(ids, md, field, cap))
    seqs = leaf_sequences(md)
    nseq = len(seqs)
    return [build_word(shape, seq)
            for i, shape in enumerate(shape_preorders(md_total(md))) if i not in ech.dead
            for j, seq in enumerate(seqs) if i * nseq + j not in ech.pivots]


def membership(f: MagmaPoly, ids: IdentitySet, field=None,
               cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff f lies in the T-ideal of ``ids`` (f = 0 in the free algebra)."""
    field = field if field is not None else f.field
    coeffs, _ = _coefficients(f, field, f, "tested for membership")
    row = {w: c for w, c in zip(f.terms, coeffs) if c}  # c may vanish mod p
    if not row:
        return True
    md = poly_multidegree(MagmaPoly(row, field), "x")
    ech = _echelon(relation_rows(ids, md, field, cap))
    seqs = leaf_sequences(md)
    seq_rank = {seq: i for i, seq in enumerate(seqs)}
    shape_rank = {shape: i for i, shape in enumerate(shape_preorders(md_total(md)))}
    return not ech.reduce((shape_rank[shape_preorder(w)] * len(seqs)
                           + seq_rank[tuple(a.index for a in leaves(w))], c)
                          for w, c in row.items())

