"""High-level verification and classification over the table algebras:
identity checking by exhaustive basis substitution, left-nilpotency
indices, desk-scale nilpotency profiles, and the multilinear-identity
classification into nilpotent bounds vs non-nilpotent candidate forms.

The substitution sweep of ``check_identity`` is compiled once per call:
every distinct subword of the identity becomes an evaluator with an int
id, its children's evaluators and the tuple of variable slots it
contains, and every basis element met gets an int id, so a memo key is a
tuple of ints and no ``Node`` is hashed in the sweep.  The domain is
built only from the sorted letter multisets the sweep reaches.  Values are
``{element id: int}`` dicts: both tables have integer structure
constants, so the sweep is exact over Z, with the identity's
coefficients cleared of denominators over Q and reduced mod p over
GF(p).  Products of two basis elements come from the element type's
basis product over Q and are cached for one call.  The evaluators hold no
reference cycle, so a call's memo, product cache and key table are freed
by reference counting when it returns, not left to the cyclic garbage
collector.  The sweep covers one
assignment per relabeling class of x1..x<pool>: both tables commute with
relabeling, the precondition that ``verify.check_relabeling`` checks.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from . import wlc, wn
from .fields import GF, QQ
from .magma import Atom, MagmaPoly, evaluate, leaves, poly_multidegree, v
from .multisets import md_total
from .oracle import (
    DEFAULT_DEGREE_CAP,
    IdentitySet,
    _coefficients,
    preset,
    quotient_dimension,
)


@dataclass(frozen=True)
class TableAlgebra:
    element: type  # its LinComb subclass: key order, gen and basis product
    basis: object  # multidegree -> sorted basis keys


_ALGEBRAS = {
    "wlc": TableAlgebra(wlc.WlcElement, wlc.wlc_basis),
    "wnov": TableAlgebra(wn.WnElement, wn.wn_basis),
}


def get_algebra(name: str) -> TableAlgebra:
    if name not in _ALGEBRAS:
        raise ValueError(f"unknown algebra {name!r} (expected 'wlc' or 'wnov')")
    return _ALGEBRAS[name]


def basis_elements_by_degree(alg: TableAlgebra, max_degree: int,
                             pool: int) -> dict[int, list]:
    """Basis keys of each degree <= max_degree with indices from x1..x<pool>."""
    gens = range(1, pool + 1)
    return {d: [k for letters in itertools.combinations_with_replacement(gens, d)
                for k in alg.basis(Counter(letters))]
            for d in range(1, max_degree + 1)}


@dataclass
class CheckReport:
    identity: MagmaPoly
    algebra: str
    verdict: str  # "holds" or "counterexample"
    assignment: dict | None
    value: object | None
    domain: str

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _term_degree(w, slot_deg: Mapping[int, int]) -> int | None:
    """Degree of a term word under a degree assignment, or None if the word
    is identically zero on that degree block (both table algebras kill any
    product of two factors of degree >= 2)."""
    if isinstance(w, Atom):
        return slot_deg[w.index]
    dl = _term_degree(w.left, slot_deg)
    dr = _term_degree(w.right, slot_deg)
    if dl is None or dr is None or (dl >= 2 and dr >= 2):
        return None
    return dl + dr


def _integral(c: Fraction) -> int:
    """A table product's coefficient: both tables have integer constants."""
    if c.denominator != 1:
        raise ArithmeticError(f"table product coefficient {c} is not an integer")
    return c.numerator


def check_identity(algebra: str, f: MagmaPoly, max_degree: int = 7,
                   pool: int = 5, field=QQ) -> CheckReport:
    """Exhaustively substitute basis elements into a multilinear identity.

    Degree blocks (a degree per variable) are swept by total degree, each
    block's assignments in ``itertools.product`` order, and the first
    nonzero value is the counterexample.  Both tables kill every product of
    two factors of degree >= 2, so blocks giving two slots such elements are
    skipped, as are terms whose shape forces such a product on a block.
    Within a block each proper subword's value is memoized on (subword id,
    ids of the elements at its slots).  Only assignments whose slots'
    sorted letters, concatenated, form a restricted-growth string (no letter
    above 1 + every letter before it) are evaluated: both tables commute
    with relabeling (``verify.check_relabeling``), and relabeling by first
    appearance gives such an assignment, in the same block, no later in
    product order and zero exactly when the original is.  A slot's elements
    are built per sorted letter multiset that can continue such a string,
    one ``alg.basis`` call each, so no letter past x<max_degree> is built.
    ``ValueError`` is raised for an identity whose ``poly_multidegree(f,
    "v")`` is not all ones, for a coefficient whose denominator vanishes
    mod p over GF(p), and for a sweep with no assignment in it (``pool <
    1``, or ``max_degree`` below the number of variables).
    """
    md = poly_multidegree(f, "v")
    if any(k != 1 for k in md.values()):
        raise ValueError("check_identity requires a multilinear identity")
    alg = get_algebra(algebra)
    coeffs, den = _coefficients(f, field, f, f"checked in {algebra}")
    p = field.char
    vs = sorted(md)
    m = len(vs)
    if pool < 1:
        raise ValueError(f"pool {pool} leaves no generator to substitute")
    if max_degree < m:
        raise ValueError(f"max_degree {max_degree} is below the identity's "
                         f"{m} variables: there is no assignment to check")
    slot = {var: i for i, var in enumerate(vs)}
    domain = (f"basis elements over x1..x{pool}, result degree <= {max_degree}")
    keys: list = []
    key_id: dict = {}
    unit: list[dict[int, int]] = []

    def intern(k) -> int:
        if k not in key_id:
            key_id[k] = len(keys)
            unit.append({len(keys): 1})
            keys.append(k)
        return key_id[k]

    @functools.cache
    def basis_ids(t: tuple[int, ...]) -> list[int]:
        return [intern(k) for k in alg.basis(Counter(t))]

    @functools.cache
    def grow(d: int, hi: int) -> list:
        """(key ids, new largest letter) of each sorted letter multiset of size
        d, in lexicographic order, that may continue a string of largest letter hi."""
        return [(basis_ids(t), max(hi, t[-1])) for t in
                itertools.combinations_with_replacement(range(1, min(pool, hi + d) + 1), d)
                if all(b <= max(hi, a) + 1 for a, b in zip((hi,) + t, t))]

    cache: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def mul(l: dict, r: dict, c: int, out: dict) -> dict:
        """out += c * l * r, in place."""
        for a, ca in l.items():
            for b, cb in r.items():
                prod = cache.get((a, b))
                if prod is None:
                    prod = cache[a, b] = tuple(
                        (intern(k), _integral(x)) for k, x in
                        alg.element._basis_product(keys[a], keys[b], QQ).items())
                cab = c * ca * cb
                for k, x in prod:
                    out[k] = out.get(k, 0) + cab * x
        return out

    memo: dict[tuple, dict] = {}
    compiled: dict = {}

    def compile_(w):
        """The evaluator of subword w: element id per slot -> value."""
        if w in compiled:
            return compiled[w]
        if isinstance(w, Atom):
            s = slot[w.index]
            fn = lambda combo: unit[combo[s]]
        else:
            left, right = compile_(w.left), compile_(w.right)
            nid = len(compiled)
            sel = itemgetter(*sorted(slot[a.index] for a in leaves(w)))

            def fn(combo):
                key = (nid, sel(combo))
                val = memo.get(key)
                if val is None:
                    l = left(combo)
                    val = mul(l, right(combo), 1, {}) if l else l
                    val = memo[key] = {k: x for k, x in val.items() if x}
                return val
        compiled[w] = fn
        return fn

    def term(w):
        """total += c * (w at combo), unmemoized: w holds every slot."""
        if isinstance(w, Atom):  # a one-variable identity: its one term is w
            return lambda combo, c, total: total.update({combo[slot[w.index]]: c})
        left, right = compile_(w.left), compile_(w.right)
        return lambda combo, c, total: (l := left(combo)) and mul(l, right(combo), c, total)

    terms = [(w, term(w), c) for w, c in zip(f.terms, coeffs) if c]
    del compile_  # a recursive closure is a reference cycle: free it by refcount
    degrees = range(1, max_degree - (m - 1) + 1)
    deg_choices = sorted((degs for degs in itertools.product(degrees, repeat=m)
                          if sum(degs) <= max_degree and sum(d >= 2 for d in degs) <= 1),
                         key=lambda t: (sum(t), t))
    for degs in deg_choices:
        slot_deg = dict(zip(vs, degs))
        live = [(add, c) for w, add, c in terms if _term_degree(w, slot_deg) is not None]
        if not live:
            continue
        memo.clear()
        combos = [((), 0)]
        for d in degs:
            combos = [(combo + (k,), h) for combo, hi in combos
                      for ks, h in grow(d, hi) for k in ks]
        for combo, _ in combos:
            total: dict[int, int] = {}
            for add, c in live:
                add(combo, c, total)
            if any(x % p for x in total.values()) if p else any(total.values()):
                value = {keys[k]: Fraction(x, den) for k, x in total.items()}
                return CheckReport(f, algebra, "counterexample",
                                   {var: keys[i] for var, i in zip(vs, combo)},
                                   alg.element(value, field), domain)
    return CheckReport(f, algebra, "holds", None, None, domain)


@dataclass
class NilpotencyIndex:
    index: int | None  # None: exceeds the degree cap
    cap: int
    witness_factors: tuple | None  # nonzero left-normed product of index-1 factors
    witness_value: object | None

    def __str__(self) -> str:
        return "exceeds cap" if self.index is None else str(self.index)


def left_nilpotency_index(algebra: str, cap: int = 6, pool: int = 5,
                          field=QQ) -> NilpotencyIndex:
    """Smallest k such that every left-normed product u1(u2(..(u_{k-1}u_k)))
    of basis elements vanishes, searching products of total degree <= cap.

    For k = 2, 3, ... this is ``check_identity`` of v1(v2(..(v_{k-1}v_k)))
    at ``max_degree=cap``: the same degree blocks in the same order, its
    subword memo a cache of suffix products, and its counterexample the
    witness (factors and value) of the next k.
    """
    if cap > 7:
        raise ValueError("cap must be <= 7")
    alg = get_algebra(algebra)
    key = alg.basis({1: 1})[0]
    witness = ((key,), alg.element.basis(key, field))
    for k in range(2, cap + 1):
        word = v(k)
        for i in range(k - 1, 0, -1):
            word = v(i) * word
        rep = check_identity(algebra, word, max_degree=cap, pool=pool, field=field)
        if rep.holds:
            return NilpotencyIndex(k, cap, *witness)
        witness = (tuple(rep.assignment.values()), rep.value)
    return NilpotencyIndex(None, cap, *witness)


def nilpotency_profile(ids: IdentitySet, degree: int, field=QQ,
                       cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff every multidegree component of the given total degree is zero.

    Only the multilinear component is computed: every word of degree n is
    the image of a multilinear one under a substitution x_i -> x_j, and a
    T-ideal is closed under substitution, in every characteristic.
    """
    md = {i: 1 for i in range(1, degree + 1)}
    return quotient_dimension(ids, md, field, cap) == 0


def gens_to_vars(f: MagmaPoly) -> MagmaPoly:
    """Relabel generators x_i as formal variables v_i (identity polynomial)."""
    return evaluate(f, MagmaPoly, lambda a: v(a.index, f.field))


@dataclass
class Classification:
    input: MagmaPoly
    degree: int
    verdict: str  # "nilpotent_bound" or "non_nilpotent_candidate"
    bound: int | None
    normal_form: object  # WnElement coordinates of the input
    oracle_confirmed: bool | None = None


def classify_multilinear(f: MagmaPoly, oracle_verify: bool = False,
                         oracle_field=None) -> Classification:
    """Case analysis of a multilinear identity over the right-symmetric
    table algebra.

    Degree n >= 5 forces nilpotency of index <= n+1, degree 2 of index
    <= 5.  At degree 4 (resp. 3) the identity escapes a nilpotency bound
    only if its Teichmueller (resp. associator) coordinates all vanish,
    leaving the alternating-orbit (resp. symmetric-orbit) candidate form.
    With ``oracle_verify``, a bound of at most 8 is checked by the oracle:
    the bound's multilinear component of wnov2 + f must vanish.
    """
    md = poly_multidegree(f, "x")
    if any(m != 1 for m in md.values()):
        raise ValueError("classification requires a multilinear polynomial")
    n = md_total(md)
    if n < 2:
        raise ValueError("degree must be at least 2")
    nf = evaluate(f, wn.WnElement)
    if nf.is_zero():
        raise ValueError(
            "identity already holds in the variety; it defines no proper subvariety"
        )
    if n >= 5:
        bound = n + 1
    elif n == 2:
        bound = 5
    else:
        coordinate = wn.ASSOC if n == 3 else wn.TEICH
        bound = 5 if any(k.kind == coordinate for k in nf.terms) else None
    verdict = "non_nilpotent_candidate" if bound is None else "nilpotent_bound"
    confirmed = None
    if oracle_verify and bound is not None and bound <= 8:
        fld = oracle_field if oracle_field is not None else GF(1009)
        ids = preset("wnov2").union(
            IdentitySet("f", (gens_to_vars(f),)), name="wnov2+f"
        )
        confirmed = nilpotency_profile(ids, bound, fld, cap=bound)
    return Classification(f, n, verdict, bound, nf, confirmed)


def operator_word_apply(e, ops: Sequence[tuple[str, int]], field=None):
    """Apply a sequence of multiplication operators left-to-right.

    ``ops`` entries are ("L"|"R"|"H"|"Theta", generator index); H and Theta
    expand to R-L and R+L before application.
    """
    field = field if field is not None else e.field
    for op, g in ops:
        xg = type(e).gen(g, field)
        if op == "L":
            e = xg * e
        elif op == "R":
            e = e * xg
        elif op == "H":
            e = e * xg - xg * e
        elif op == "Theta":
            e = e * xg + xg * e
        else:
            raise ValueError(f"unknown operator {op!r}")
    return e
