"""Brute-force T-ideal oracle.

For a set of polynomial identities and a target multidegree, builds the
sparse exact matrix of all identity consequences lying in that component
(disjoint-block substitutions of bracketed words, wrapped in one-hole
bracketed contexts) and computes dimensions, bases, and membership by
exact elimination: fraction-free integer pivoting over Q, modular
elimination over GF(p).  The largest column of a row leads, so quotient
bases are made of the earliest words under ``word_key``.

Rows are built on flat words, never on ``Node`` trees: a word is a pair
(shape preorder, leaf sequence), each identity term a template of the
preorder segments between its leaves, and composing words is tuple
concatenation.  The column order is ``magma``'s: a word's column is its
shape's rank in ``shape_preorders`` times the number of leaf sequences,
plus its sequence's rank in ``leaf_sequences``.  Coefficients are ints:
each identity is scaled to integers over Q and reduced mod p over GF(p).

An identity left with one term, such as (v1v2)(v3v4), kills every word
with a subtree of that term's shape (pattern leaves match any subtree).
Dead columns get unit rows, in column order, first; the other rows are
built on live words only, with terms on dead words dropped.

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
from typing import Mapping

from .exprs import parse_identity, render
from .fields import QQ
from .magma import (
    Atom,
    MagmaPoly,
    MagmaWord,
    enumerate_words,
    leaf_sequences,
    leaves,
    poly_multidegree,
    poly_variables,
    shape_preorder,
    shape_preorders,
    substitute,
    v,
)
from .multisets import md_total, ordered_partitions

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

    @property
    def nrows(self) -> int:
        return len(self.rows)


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


def _template(w: MagmaWord, vs: tuple[int, ...]):
    """A term of a linearized identity, cut at its leaves: the preorder
    segment in front of each leaf, and the block index each leaf takes."""
    shape, atoms = shape_preorder(w), leaves(w)
    segments, start = [], 0
    for i, t in enumerate(shape):
        if not t:
            segments.append(shape[start:i])
            start = i + 1
    return tuple(segments), tuple(vs.index(a.index) for a in atoms)


def _substituted(templates, shapes: tuple[tuple[int, ...], ...]) -> list:
    """(preorder, slots, coefficient) of each template, ``shapes[k]`` filling block k."""
    return [(sum((seg + shapes[k] for seg, k in zip(segments, slots)), ()), slots, c)
            for segments, slots, c in templates]


def _flat_words(md: Mapping[int, int], dead) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``enumerate_words(md)`` as (shape preorder, leaf sequence), no ``dead`` shape."""
    seqs = leaf_sequences(md)
    return [(shape, seq) for shape in shape_preorders(md_total(md))
            if not dead(shape) for seq in seqs]


def _contexts(rest: Mapping[int, int], dead):
    """One-hole contexts over ``rest`` of no ``dead`` shape, in word order, cut
    at the hole: (preorder before, after, leaves before, after)."""
    if not rest:
        return [((), (), (), ())]
    out = []
    for shape, seq in _flat_words({**rest, 0: 1}, dead):
        h = seq.index(0)
        pos = [i for i, t in enumerate(shape) if not t][h]
        out.append((shape[:pos], shape[pos + 1:], seq[:h], seq[h + 1:]))
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


def relation_rows(ids: IdentitySet, md: Mapping[int, int], field=QQ,
                  cap: int = DEFAULT_DEGREE_CAP) -> RelationMatrix:
    """All T-ideal consequence rows of ``ids`` in the ``md`` component,
    built on flat words (see the module docstring); column i is word i of
    ``enumerate_words(md)``.  The unit rows of the dead columns come first."""
    n = md_total(md)
    if n > cap:
        raise DegreeCapExceeded(f"degree {n} exceeds cap {cap}")
    if 0 in md:
        raise ValueError("generator index 0 is reserved")
    p = field.char
    patterns, identities = [], []
    for f in ids.identities:
        if 0 < p <= max(poly_multidegree(f, "v").values()):
            raise ValueError(f"{ids.name} repeats a variable {p} or more "
                             f"times: linearization loses information in "
                             f"characteristic {p}")
        lin = linearize(f)
        vs = poly_variables(lin)
        if len(vs) > n:
            continue
        coeffs, _ = _coefficients(lin, field, f, f"of {ids.name}")
        terms = [(w, c) for w, c in zip(lin.terms, coeffs) if c]
        if len(terms) == 1:
            patterns.append(shape_preorder(terms[0][0]))
        elif terms:
            identities.append((len(vs), [_template(w, vs) + (c,) for w, c in terms], {}))

    @functools.cache
    def dead(shape: tuple[int, ...]) -> bool:
        return any(_instance_at(pat, shape, i)
                   for pat in patterns for i in range(len(shape)))

    seqs = leaf_sequences(md)
    nseq = len(seqs)
    shapes = shape_preorders(n)
    live_offset = {shape: i * nseq for i, shape in enumerate(shapes) if not dead(shape)}
    seq_rank = {seq: i for i, seq in enumerate(seqs)}
    cols = list(range(len(shapes) * nseq))  # one int per column, shared by rows
    rows = [((col, 1),) for col in cols if shapes[col // nseq] not in live_offset]
    seen: set[tuple[tuple[int, int], ...]] = set()
    cache: dict[tuple, list] = {}

    def cached(fn, sub_md: Mapping[int, int]) -> list:
        key = (fn, *sorted(sub_md.items()))
        if key not in cache:
            cache[key] = fn(sub_md, dead)
        return cache[key]

    for m, templates, filled in identities:  # filled: block shapes -> live terms
        for blocks, rest in ordered_partitions(md, m):
            contexts = cached(_contexts, rest)
            for combo in itertools.product(*(cached(_flat_words, b) for b in blocks)):
                key = tuple([w[0] for w in combo])
                if key not in filled:  # a dead term is dead in every context
                    filled[key] = [t for t in _substituted(templates, key) if not dead(t[0])]
                subbed = []
                for shape, slots, c in filled[key]:
                    seq = ()
                    for k in slots:
                        seq += combo[k][1]
                    subbed.append((shape, seq, c))
                if not subbed:
                    continue
                for pre, post, left, right in contexts:
                    row: dict[int, int] = {}
                    for shape, seq, c in subbed:
                        off = live_offset.get(pre + shape + post)
                        if off is None:
                            continue
                        col = cols[off + seq_rank[left + seq + right]]
                        row[col] = row[col] + c if col in row else c
                    if len(row) < len(subbed):
                        # terms met in a column or fell on a dead one: the
                        # sum may vanish, and over GF(p) it may leave [1, p)
                        if p:
                            row = {col: c % p for col, c in row.items()}
                        row = {col: c for col, c in row.items() if c}
                        if not row:
                            continue
                    norm = tuple(sorted(_normalized(row, field).items()))
                    if norm not in seen:
                        seen.add(norm)
                        rows.append(norm)
    return RelationMatrix(len(cols), rows, field)


# -- exact elimination ---------------------------------------------------


class Echelon:
    """Incremental sparse row echelon form; the largest column of a row leads.

    Rows are dicts of nonzero entries: integers over Q, combined
    fraction-free, and ints in ``[1, p)`` over GF(p).  Pivots are kept
    ``_normalized``.  Reduction updates one residual dict in place.
    """

    def __init__(self, field):
        self.field = field
        self.pivots: dict[int, dict[int, object]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> dict[int, object]:
        """Residual of a row (a dict or (col, coeff) pairs) after reduction
        against the current pivots."""
        r = dict(row)
        pivots, p = self.pivots, self.field.char
        while r:
            lead = max(r)
            piv = pivots.get(lead)
            if piv is None:
                break
            b = r[lead]
            if p:  # piv's lead is 1, so r <- r - b*piv cancels the lead
                for col, c in piv.items():
                    s = (r.get(col, 0) - b * c) % p
                    if s:
                        r[col] = s
                    else:
                        del r[col]
            else:  # r <- ma*r - mb*piv cancels the lead
                g = gcd(piv[lead], b)
                ma, mb = piv[lead] // g, b // g
                if ma != 1:
                    for col in r:
                        r[col] *= ma
                for col, c in piv.items():
                    s = r.get(col, 0) - mb * c
                    if s:
                        r[col] = s
                    else:
                        del r[col]
        return _normalized(r, self.field) if r else r

    def add_row(self, row) -> None:
        r = self.reduce(row)
        if r:
            self.pivots[max(r)] = r


def _echelon(matrix: RelationMatrix) -> Echelon:
    ech = Echelon(matrix.field)
    # unit rows first: they become pivots instantly and keep fill-in low
    for row in sorted(matrix.rows, key=lambda r: (len(r), r[0][0])):
        if ech.rank == matrix.ncols:
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
    greedily from the smallest word under ``word_key`` up."""
    ech = _echelon(relation_rows(ids, md, field, cap))
    return [w for i, w in enumerate(enumerate_words(md)) if i not in ech.pivots]


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
    colindex = {w: i for i, w in enumerate(enumerate_words(md))}
    return not ech.reduce((colindex[w], c) for w, c in row.items())

