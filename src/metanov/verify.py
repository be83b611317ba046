"""Self-contained verification suites.

Each suite returns a list of (check name, passed, detail) triples; the CLI
``verify`` command prints one line per check.  The same functions back the
acceptance test module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import engine, wlc, wn
from .fields import GF, QQ
from .magma import MagmaPoly, associator, evaluate, tch, x
from .multisets import md_from_list, partitions_of
from .oracle import membership, preset, quotient_dimension
from .wlc import WlcElement, WlcMonomial, _inversions, _mono, canonicalize_L
from .wn import (
    ASSOC, GEN, LPROD, MIDASSOC, PAIR, RWORD, TEICH,
    WnBasisElement, WnElement, canonicalize, wn_mul,
)

Result = tuple[str, bool, str]


# -- criterion 1: multiplication tables --------------------------------


def check_wn_table(pool: int = 5, field=QQ) -> list[Result]:
    """Theorem-8-style rows, restated explicitly and compared to wn_mul."""
    idx = range(1, pool + 1)
    ok_left = True
    ok_right = True
    ok_null = True

    for q, a, b, c in itertools.product(idx, repeat=4):
        # left actions of the generator q
        if wn_mul(WnBasisElement(GEN, (q,)), WnBasisElement(GEN, (a,)), field) != \
                WnElement.basis(WnBasisElement(PAIR, (q, a)), field):
            ok_left = False
        if wn_mul(WnBasisElement(GEN, (q,)), WnBasisElement(PAIR, (a, b)), field) != \
                WnElement.basis(WnBasisElement(LPROD, (q, a, b)), field):
            ok_left = False
        got = wn_mul(WnBasisElement(GEN, (q,)), WnBasisElement(LPROD, (a, b, c)), field)
        if got != WnElement.from_ints([(-1, canonicalize(MIDASSOC, (q, b, a, c)))], field):
            ok_left = False
        t1, t2 = sorted((b, c))
        got = wn_mul(WnBasisElement(GEN, (q,)), canonicalize(ASSOC, (a, t1, t2)), field)
        if got != WnElement.basis(canonicalize(MIDASSOC, (a, q, t1, t2)), field):
            ok_left = False

        # right actions of the generator q (acting on elements over a,b,c)
        y = q
        if wn_mul(WnBasisElement(PAIR, (a, b)), WnBasisElement(GEN, (y,)), field) != \
                WnElement.from_ints([(1, canonicalize(ASSOC, (a, b, y))),
                                     (1, WnBasisElement(LPROD, (a, b, y)))], field):
            ok_right = False
        got = wn_mul(WnBasisElement(LPROD, (a, b, c)), WnBasisElement(GEN, (y,)), field)
        want = WnElement.from_ints([(1, canonicalize(MIDASSOC, (a, b, c, y))),
                                    (-1, canonicalize(MIDASSOC, (a, c, b, y))),
                                    (1, canonicalize(MIDASSOC, (b, a, c, y)))], field)
        if got != want:
            ok_right = False
        got = wn_mul(canonicalize(ASSOC, (a, t1, t2)), WnBasisElement(GEN, (y,)), field)
        want = WnElement.from_ints([(1, canonicalize(TEICH, (a, t1, t2, y))),
                                    (1, canonicalize(MIDASSOC, (a, t1, t2, y))),
                                    (1, canonicalize(MIDASSOC, (a, t2, t1, y)))], field)
        if got != want:
            ok_right = False
        tch_elem = canonicalize(TEICH, (a, b, c, t1))
        got = wn_mul(tch_elem, WnBasisElement(GEN, (y,)), field)
        if got != WnElement.basis(canonicalize(RWORD, tch_elem.args + (y,)), field):
            ok_right = False
        rw = canonicalize(RWORD, (a, b, c, t1, t2))
        if wn_mul(rw, WnBasisElement(GEN, (y,)), field) != \
                WnElement.basis(canonicalize(RWORD, rw.args + (y,)), field):
            ok_right = False

        # annihilator and metabelian nulls
        mid = canonicalize(MIDASSOC, (q, a, b, c))
        pair = WnBasisElement(PAIR, (a, b))
        if not wn_mul(WnBasisElement(GEN, (q,)), mid, field).is_zero():
            ok_null = False
        if not wn_mul(mid, WnBasisElement(GEN, (q,)), field).is_zero():
            ok_null = False
        if not wn_mul(pair, pair, field).is_zero():
            ok_null = False
        if not wn_mul(WnBasisElement(GEN, (q,)),
                      canonicalize(TEICH, (a, b, c, t1)), field).is_zero():
            ok_null = False

    return [
        ("wn table: left-action rows reproduced", ok_left, f"pool x1..x{pool}"),
        ("wn table: right-action rows reproduced", ok_right, f"pool x1..x{pool}"),
        ("wn table: unlisted products are null", ok_null, f"pool x1..x{pool}"),
    ]


def check_wlc_table(pool: int = 5, field=QQ) -> list[Result]:
    """Theorem-1-style rows, restated explicitly and compared to wlc_mul."""
    idx = range(1, pool + 1)
    ok = True
    ok_null = True
    for q, i, j, k in itertools.product(idx, repeat=4):
        g = lambda a: WlcMonomial(a, (), ())
        m = wlc.wlc_mul(g(j), g(i), field)
        if m != WlcElement.basis(WlcMonomial(i, (j,), ()), field):
            ok = False
        # (x_i L_j) * x_k appends R_k
        m = wlc.wlc_mul(WlcMonomial(i, (j,), ()), g(k), field)
        if m != WlcElement.basis(WlcMonomial(i, (j,), (k,)), field):
            ok = False
        # x_q * (x_i L_j R_k) = x_k L_i L_j L_q - x_k L_q L_i L_j
        m = wlc.wlc_mul(g(q), WlcMonomial(i, (j,), (k,)), field)
        want = (WlcElement.basis(WlcMonomial(k, canonicalize_L((i, j, q)), ()), field)
                - WlcElement.basis(WlcMonomial(k, canonicalize_L((q, i, j)), ()), field))
        if m != want:
            ok = False
        # pure-L append (including the n >= 4 canonicalization step)
        for lp in ((i,), (i, j), (i, j, k)):
            mono = WlcMonomial(1, lp, ())
            m = wlc.wlc_mul(g(q), mono, field)
            if m != WlcElement.basis(
                    WlcMonomial(1, canonicalize_L(lp + (q,)), ()), field):
                ok = False
            m = wlc.wlc_mul(mono, g(q), field)
            if m != WlcElement.basis(WlcMonomial(1, lp, (q,)), field):
                ok = False
        # general monomial * generator appends R
        mono = WlcMonomial(i, (j,), (k, q))
        m = wlc.wlc_mul(mono, g(q), field)
        if m != WlcElement.basis(WlcMonomial(i, (j,), (k, q, q)), field):
            ok = False
        # unlisted products are null
        if not wlc.wlc_mul(WlcMonomial(i, (j,), (k,)),
                           WlcMonomial(q, (i,), ()), field).is_zero():
            ok_null = False
        if not wlc.wlc_mul(g(q), WlcMonomial(i, (j,), (k, k)), field).is_zero():
            ok_null = False
        if not wlc.wlc_mul(g(q), WlcMonomial(i, (j, k), (k,)), field).is_zero():
            ok_null = False
    return [
        ("wlc table: all rows reproduced", ok, f"pool x1..x{pool}"),
        ("wlc table: unlisted products are null", ok_null, f"pool x1..x{pool}"),
    ]


# -- criterion 8: Teichmueller combination collapses to one base element


def check_tch_coherence(pool: int = 4, field=QQ) -> list[Result]:
    ok = True
    detail = ""
    for a, b, c, d in itertools.product(range(1, pool + 1), repeat=4):
        got = evaluate(tch(x(a, field), x(b, field), x(c, field), x(d, field)), WnElement)
        want = WnElement.basis(canonicalize(TEICH, (a, b, c, d)), field)
        if got != want:
            ok = False
            detail = f"mismatch at ({a},{b},{c},{d})"
            break
    return [("Tch(x,y,z,t) evaluates to the single base element T(x,{y,z,t})",
             ok, detail or f"all tuples from x1..x{pool}")]


# -- criterion 4: degree-5 operator patterns ----------------------------


VANISHING_PATTERNS = ("RRL", "RLL", "LLL", "RLR", "LRL", "LLR", "LRR")


def check_operator_patterns(pool: int = 5, field=QQ) -> list[Result]:
    results: list[Result] = []
    gens = range(1, pool + 1)
    pairs = [WnElement.basis(WnBasisElement(PAIR, (a, b)), field)
             for a in gens for b in gens]
    gen_elems = {g: WnElement.gen(g, field) for g in gens}

    def vanishes(e, pattern, k=0) -> bool:
        """True iff every completion of the operator pattern kills e."""
        if k == len(pattern):
            return e.is_zero()
        if e.is_zero():
            return True
        op = pattern[k]
        for g in gens:
            nxt = gen_elems[g] * e if op == "L" else e * gen_elems[g]
            if not vanishes(nxt, pattern, k + 1):
                return False
        return True

    for pattern in VANISHING_PATTERNS:
        ok = all(vanishes(e, pattern) for e in pairs)
        results.append((f"pattern {pattern} annihilates every degree-2 element",
                        ok, f"pool x1..x{pool}"))
    # RRR survives
    e = WnElement.basis(WnBasisElement(PAIR, (1, 2)), field)
    val = engine.operator_word_apply(e, [("R", 3), ("R", 4), ("R", 5)], field)
    want = WnElement.basis(canonicalize(RWORD, (1, 2, 3, 4, 5)), field)
    results.append(("pattern RRR yields a nonzero R-word", val == want, repr(val)))
    return results


# -- the relabeling symmetry under check_identity's sweep ---------------


_RELABEL = {  # algebra -> (key, letter map s) -> s(key); odd s may flip an L-orbit
    "wnov": lambda e, s: canonicalize(e.kind, [s[i] for i in e.args]),
    "wlc": lambda m, s: _mono(s[m.base], [s[i] for i in m.lpart], [s[i] for i in m.rpart]),
}


def check_relabeling(max_degree: int = 5, pool: int = 5) -> list[Result]:
    """mul(s a, s b) == s mul(a, b) for s = (1 2) and (1 2 .. pool), which
    generate the permutations of x1..x<pool>, and each product of a generator
    and a key of degree <= max_degree: ``engine.check_identity``'s symmetry."""
    out: list[Result] = []
    for name, relabel in _RELABEL.items():
        alg = engine.get_algebra(name)
        by_deg = engine.basis_elements_by_degree(alg, max_degree, pool)
        keys, bad = sum(by_deg.values(), []), []
        for a, b in [p for g in by_deg[1] for k in keys for p in ((g, k), (k, g))]:
            ab = alg.element._basis_product(a, b, QQ)
            for s in ([0, 2, 1, *range(3, pool + 1)], [0, *range(2, pool + 1), 1]):
                if alg.element._basis_product(relabel(a, s), relabel(b, s), QQ) != \
                        {relabel(key, s): c for key, c in ab.items()}:
                    bad.append(f"{a!r}*{b!r} under {s[1:]}")
        out.append((f"{name} table commutes with relabeling of x1..x{pool}", not bad,
                    f"{4 * pool * len(keys)} products, keys of degree <= {max_degree}"
                    + (f", first mismatch {bad[0]}" if bad else "")))
    return out


# -- criterion 2: defining identities in the table algebras -------------


def check_defining_identities(max_degree: int = 7, pool: int = 5) -> list[Result]:
    out: list[Result] = []
    cases = [("wnov", "rs", True), ("wnov", "wn", True), ("wnov", "met", True),
             ("wlc", "wn", True), ("wlc", "met", True),
             ("wlc", "lc", False), ("wlc", "rs", False)]
    for alg, name, expect_holds in cases:
        f = preset(name).identities[0]
        rep = engine.check_identity(alg, f, max_degree=max_degree, pool=pool)
        detail = "" if rep.holds else f": {rep.assignment} -> {rep.value!r}"
        out.append((f"identity {name!r} in {alg}: expected "
                    f"{'holds' if expect_holds else 'counterexample'}",
                    rep.holds == expect_holds, rep.verdict + detail))
    return out


def check_defining_identities_pool_7() -> list[Result]:
    """Criterion 2 over x1..x7: a distinct letter per degree up to 7."""
    return [(f"{n} (x1..x7)", ok, d) for n, ok, d in check_defining_identities(7, 7)]


# -- criterion 3: dimension cross-checks --------------------------------


def _dimension_checks(label: str, totals, field) -> list[Result]:
    """For wnov2 and wlc2: the oracle dimension over ``field`` equals
    |basis(md)| at every multidegree md of a degree in ``totals``."""
    out: list[Result] = []
    for name, basis in (("wnov2", wn.wn_basis), ("wlc2", wlc.wlc_basis)):
        ok, details = True, []
        for total in totals:
            for part in partitions_of(total):
                md = md_from_list(part)
                dim = quotient_dimension(preset(name), md, field, cap=total)
                nb = len(basis(md))
                ok &= dim == nb
                details.append(f"{part}:{dim}" + ("" if dim == nb else f"!=|basis|={nb}"))
        out.append((f"{name} dimensions match basis counts {label}", ok,
                    f"[{field}] " + " ".join(details)))
    return out


def check_dimensions(max_total: int = 5) -> list[Result]:
    """|basis(md)| == oracle dimension for every multidegree shape <= max_total.

    Components of degree 5 and up run over GF(1009), lower degrees over Q.
    """
    return [r for total in range(1, max_total + 1)
            for r in _dimension_checks(f"at degree {total}", [total],
                                       QQ if total <= 4 else GF(1009))]


def check_dimensions_degree_7() -> list[Result]:
    """Every multidegree of degree 7 over GF(1009)."""
    return _dimension_checks("at degree 7", [7], GF(1009))


def check_dimensions_small_char() -> list[Result]:
    """Every multidegree of degree <= 5 over GF(3), GF(5) and GF(7)."""
    return [r for p in (3, 5, 7)
            for r in _dimension_checks(f"at degree <= 5 over GF({p})", range(1, 6), GF(p))]


# -- criterion 5: left nilpotency ---------------------------------------


def check_left_nilpotency(field=QQ) -> list[Result]:
    out: list[Result] = []
    res = engine.left_nilpotency_index("wnov", cap=6, field=field)
    deg4 = x(1) * (x(2) * (x(3) * x(4)))
    w = evaluate(deg4, WnElement)
    witness_ok = w == WnElement.basis(
        canonicalize(MIDASSOC, (1, 3, 2, 4)), QQ).scaled(-1)
    out.append(("left nilpotency index of the right-symmetric algebra is 5",
                res.index == 5 and witness_ok,
                f"index={res}, witness x1(x2(x3x4)) = {w!r}"))
    deg5 = x(1) * (x(2) * (x(3) * (x(4) * x(5))))
    for ids_name in ("nov2", "wnov2"):
        ids = preset(ids_name)
        in5 = membership(deg5, ids)
        in4 = membership(deg4, ids)
        out.append((f"oracle [{ids_name}]: degree-5 left-normed word is an identity, "
                    f"degree-4 is not", in5 and not in4,
                    f"deg5 member={in5}, deg4 member={in4}"))
    return out


# -- criterion 6: desk-scale corollaries --------------------------------


def check_corollaries(field=None) -> list[Result]:
    field = field or GF(1009)
    out: list[Result] = []
    for name in ("wlc2+flex", "wlc2+antiflex", "wlc2+lie-nilp:2", "wlc2+jordan-nilp:2"):
        ok = engine.nilpotency_profile(preset(name), 5, field)
        out.append((f"{name} is nilpotent at degree 5", ok, f"[{field}]"))
    # the base varieties themselves are not nilpotent at degree 5
    not_nilp = not engine.nilpotency_profile(preset("wnov2"), 5, field)
    out.append(("wnov2 itself is not nilpotent at degree 5", not_nilp, f"[{field}]"))
    return out


# -- criterion 7: classification ----------------------------------------


def check_classification(field=None) -> list[Result]:
    field = field or GF(1009)
    out: list[Result] = []

    f2 = x(1) * x(2) + (x(2) * x(1)).scaled(2)
    cls = engine.classify_multilinear(f2, oracle_verify=True, oracle_field=field)
    out.append(("degree-2 identity gets nilpotency bound 5 (oracle-confirmed)",
                cls.verdict == "nilpotent_bound" and cls.bound == 5
                and cls.oracle_confirmed is True,
                f"bound={cls.bound}, oracle={cls.oracle_confirmed}"))

    f5 = (((x(1) * x(2)) * x(3)) * x(4)) * x(5)
    cls = engine.classify_multilinear(f5, oracle_verify=True, oracle_field=field)
    # Sample degree-5 identity: substituting a squared element for the lead
    # variable must leave a bare R-word, forcing nilpotency of index <= 6.
    sub = (((((x(6) * x(7)) * x(2)) * x(3)) * x(4)) * x(5))
    val = evaluate(sub, WnElement)
    rw_ok = val == WnElement.basis(canonicalize(RWORD, (6, 7, 2, 3, 4, 5)), QQ)
    out.append(("degree-5 identity gets nilpotency bound 6, witnessed by the "
                "squared-element substitution and oracle-confirmed",
                cls.verdict == "nilpotent_bound"
                and cls.bound == 6 and rw_ok and cls.oracle_confirmed is True,
                f"bound={cls.bound}, oracle={cls.oracle_confirmed}, "
                f"substitution -> {val!r}"))

    # alternating-orbit degree-4 form: non-nilpotent candidate
    perms4 = [p for p in itertools.permutations((1, 2, 3, 4))
              if _inversions(p) % 2 == 0]
    fa4 = MagmaPoly.zero(QQ)
    for i, d in enumerate(perms4):
        term = associator(x(d[0]), x(d[1]) * x(d[2]), x(d[3])).scaled(
            Fraction(i + 1))
        fa4 = fa4 + term
    cls = engine.classify_multilinear(fa4)
    out.append(("alternating-orbit degree-4 form is a non-nilpotent candidate",
                cls.verdict == "non_nilpotent_candidate", cls.verdict))

    f4 = ((x(1) * x(2)) * x(3)) * x(4)  # contains a Teichmueller coordinate
    cls = engine.classify_multilinear(f4, oracle_verify=True, oracle_field=field)
    out.append(("degree-4 identity with a Tch coordinate gets bound 5 "
                "(oracle-confirmed)", cls.verdict == "nilpotent_bound"
                and cls.bound == 5 and cls.oracle_confirmed is True,
                f"bound={cls.bound}, oracle={cls.oracle_confirmed}"))

    fs3 = MagmaPoly.zero(QQ)
    for i, s in enumerate(itertools.permutations((1, 2, 3))):
        fs3 = fs3 + (x(s[0]) * (x(s[1]) * x(s[2]))).scaled(Fraction(i + 1))
    cls = engine.classify_multilinear(fs3)
    out.append(("symmetric-orbit degree-3 form is a non-nilpotent candidate",
                cls.verdict == "non_nilpotent_candidate", cls.verdict))

    f3 = associator(x(1), x(2), x(3))
    cls = engine.classify_multilinear(f3, oracle_verify=True, oracle_field=field)
    out.append(("degree-3 identity with an associator coordinate gets bound 5 "
                "(oracle-confirmed)", cls.verdict == "nilpotent_bound"
                and cls.bound == 5 and cls.oracle_confirmed is True,
                f"bound={cls.bound}, oracle={cls.oracle_confirmed}"))
    return out


# -- suite registry ------------------------------------------------------


SUITES = {
    "tables": (check_wn_table, check_wlc_table, check_tch_coherence,
               check_operator_patterns, check_relabeling, check_defining_identities,
               check_defining_identities_pool_7),
    "oracle": (check_dimensions, check_dimensions_degree_7, check_dimensions_small_char,
               check_left_nilpotency),
    "corollaries": (check_corollaries, check_classification),
}


def run_suites(names) -> tuple[list[Result], bool]:
    results = [r for n in names for check in SUITES[n] for r in check()]
    return results, all(ok for _, ok, _ in results)
