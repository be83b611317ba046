"""Identity checking, nilpotency indices, and classification."""

import dataclasses
import gc
import itertools
from collections import Counter

import pytest

from metanov import (
    check_identity,
    classify_multilinear,
    left_nilpotency_index,
    nilpotency_profile,
    operator_word_apply,
    parse_expr,
    parse_identity,
    preset,
)
from metanov import engine, verify, wlc, wn
from metanov.engine import _term_degree, basis_elements_by_degree, get_algebra, gens_to_vars
from metanov.fields import GF, QQ
from metanov.magma import Atom, evaluate, leaves, poly_variables, x
from metanov.multisets import partitions_of
from metanov.oracle import DegreeCapExceeded, IdentitySet, quotient_dimension
from metanov.wn import MIDASSOC, RWORD, TEICH, WnElement, canonicalize

gen = WnElement.gen


def test_get_algebra():
    assert get_algebra("wlc").name == "wlc"
    assert get_algebra("wnov").name == "wnov"
    with pytest.raises(ValueError):
        get_algebra("assoc")


def test_check_identity_requires_multilinear():
    # every term must hold each formal variable once, and no generator
    for text, msg in (("v1*v1", "multilinear"), ("v1*v2 + v1*v1", "multihomogeneous"),
                      ("x1*x2", "generator leaf x1"), ("x1*v1", "generator leaf x1")):
        with pytest.raises(ValueError, match=msg):
            check_identity("wnov", parse_expr(text))
    assert not check_identity("wnov", parse_expr("v1*v2 - v2*v1"), max_degree=2).holds


def test_defining_identities_hold():
    rs = parse_identity("A(v1,v2,v3) - A(v1,v3,v2)")
    assert check_identity("wnov", rs, max_degree=5).holds
    met = parse_identity("(v1*v2)*(v3*v4)")
    assert check_identity("wnov", met, max_degree=6).holds
    assert check_identity("wlc", met, max_degree=6).holds


def test_check_identity_refuses_an_empty_sweep():
    # below 3 variables' worth of degree no assignment exists, so "holds"
    # would be vacuous; one degree more finds the counterexample
    lc = parse_identity("v1*(v2*v3) - v2*(v1*v3)")
    with pytest.raises(ValueError, match="no assignment"):
        check_identity("wlc", lc, max_degree=2)
    assert not check_identity("wlc", lc, max_degree=3).holds
    with pytest.raises(ValueError, match="pool 0"):
        check_identity("wlc", lc, pool=0)
    with pytest.raises(ValueError, match="pool 0"):
        left_nilpotency_index("wnov", pool=0)


def test_counterexample_reported_with_witness():
    lc = parse_identity("v1*(v2*v3) - v2*(v1*v3)")
    rep = check_identity("wlc", lc, max_degree=4)
    assert not rep.holds
    assert rep.assignment is not None
    assert not rep.value.is_zero()


def _reference_check(algebra, f, max_degree, pool, field):
    """check_identity as a sweep of algebra elements: subterm values are
    memoized per degree block on the ``Node`` word and the ids of the
    elements at its variables.  Returns (verdict, assignment, value)."""
    alg = get_algebra(algebra)
    vs = poly_variables(f)
    m = len(vs)
    by_deg = basis_elements_by_degree(alg, max_degree - (m - 1), pool)
    elems = {d: [(k, alg.element.basis(k, field)) for k in keys]
             for d, keys in by_deg.items()}
    support = {}

    def collect(w):
        support[w] = tuple(sorted(a.index for a in leaves(w) if a.kind == "v"))
        if not isinstance(w, Atom):
            collect(w.left)
            collect(w.right)

    for w in f.terms:
        collect(w)
    deg_choices = sorted(
        (degs for degs in itertools.product(sorted(elems), repeat=m)
         if sum(degs) <= max_degree and sum(1 for d in degs if d >= 2) <= 1),
        key=lambda t: (sum(t), t),
    )
    for degs in deg_choices:
        slot_deg = dict(zip(vs, degs))
        live = [(w, c) for w, c in f.terms.items()
                if _term_degree(w, slot_deg) is not None]
        if not live:
            continue
        memo = {}

        def ev(w, assignment):
            if isinstance(w, Atom):
                if w.kind == "v":
                    return assignment[w.index]
                return alg.element.basis(alg.basis({w.index: 1})[0], field)
            key = (w, tuple(id(assignment[i]) for i in support[w]))
            if key not in memo:
                l = ev(w.left, assignment)
                memo[key] = l if l.is_zero() else l * ev(w.right, assignment)
            return memo[key]

        for combo in itertools.product(*(elems[d] for d in degs)):
            assignment = {vs[i]: combo[i][1] for i in range(m)}
            total = alg.element.zero(field)
            for w, c in live:
                total = total + ev(w, assignment).scaled(c)
            if not total.is_zero():
                return ("counterexample",
                        {vs[i]: combo[i][0] for i in range(m)}, total)
    return "holds", None, None


def _reference_nilpotency(algebra, cap, pool, field):
    """left_nilpotency_index as a loop over left-normed products of algebra
    elements.  Returns (index, witness factors, witness value)."""
    alg = get_algebra(algebra)
    by_deg = basis_elements_by_degree(alg, cap, pool)
    elems = {d: [(k, alg.element.basis(k, field)) for k in keys]
             for d, keys in by_deg.items()}
    key = alg.basis({1: 1})[0]
    prev = ((key,), alg.element.basis(key, field))
    for k in range(2, cap + 1):
        found = None
        deg_choices = sorted(
            (degs for degs in itertools.product(sorted(elems), repeat=k)
             if sum(degs) <= cap and sum(1 for d in degs if d >= 2) <= 1),
            key=lambda t: (sum(t), t),
        )
        for degs in deg_choices:
            for combo in itertools.product(*(elems[d] for d in degs)):
                val = combo[-1][1]
                for i in range(k - 2, -1, -1):
                    val = combo[i][1] * val
                    if val.is_zero():
                        break
                if not val.is_zero():
                    found = (tuple(c[0] for c in combo), val)
                    break
            if found:
                break
        if found is None:
            return (k,) + prev
        prev = found
    return (None,) + prev


def test_compiled_sweep_matches_element_reference():
    fractional = parse_identity("1/2 (v1*v2)*v3 - 2/3 v1*(v2*v3) + 5/7 (v2*v1)*v3 = 0")
    cases = [("wnov", preset(name).identities[0]) for name in ("rs", "wn", "met")]
    cases += [("wlc", preset(name).identities[0]) for name in ("wn", "met", "lc", "rs")]
    cases += [("wnov", fractional), ("wlc", fractional)]
    verdicts = set()
    for field in (QQ, GF(1009)):
        for alg, f in cases:
            rep = check_identity(alg, f, max_degree=5, pool=3, field=field)
            want = _reference_check(alg, f, 5, 3, field)
            assert (rep.verdict, rep.assignment, rep.value) == want, (alg, f, field)
            verdicts.add(rep.verdict)
    assert verdicts == {"holds", "counterexample"}
    for alg in ("wnov", "wlc"):
        for cap in (4, 5, 6):
            res = left_nilpotency_index(alg, cap=cap, pool=3)
            want = _reference_nilpotency(alg, cap, 3, QQ)
            assert (res.index, res.witness_factors, res.witness_value) == want


def _letters(key) -> tuple[int, ...]:
    """The generator indices of a wn key or a wlc monomial."""
    if isinstance(key, wn.WnBasisElement):
        return key.args
    return (key.base, *key.lpart, *key.rpart)


def _restricted_growth(assignment) -> bool:
    """True iff the slots' letters, each slot's sorted and the slots in
    variable order, form a restricted-growth string."""
    hi = 0
    for var in sorted(assignment):
        for c in sorted(_letters(assignment[var])):
            if c > hi + 1:
                return False
            hi = max(hi, c)
    return True


def test_reduced_sweep_returns_the_unreduced_witness():
    # Relabeling an assignment by first appearance gives a restricted-growth
    # one, no later in product order, so the first witness of the full sweep
    # is always of that form and the reduced sweep finds it.  Pools below
    # the number of variables put witnesses past the generator blocks.
    lnw = parse_identity("v1*(v2*(v3*v4))")
    cases = [("wlc", preset(n).identities[0]) for n in ("lc", "rs", "flex", "weak-flex:-")]
    cases += [("wnov", preset(n).identities[0]) for n in ("lc", "flex", "antiflex")]
    cases += [("wnov", lnw), ("wlc", lnw)]
    witnesses = []
    for pool in (1, 2, 3, 4):
        for alg, f in cases:
            want = _reference_check(alg, f, 5, pool, QQ)
            rep = check_identity(alg, f, max_degree=5, pool=pool)
            assert (rep.verdict, rep.assignment, rep.value) == want, (alg, f, pool)
            if not rep.holds:
                assert _restricted_growth(rep.assignment), (alg, f, pool)
                witnesses.append(rep.assignment)
    assert len(witnesses) > 20
    assert any(k.degree > 1 for a in witnesses for k in a.values())


def test_reduced_sweep_does_not_grow_with_the_pool(monkeypatch):
    # the assignments swept are restricted-growth strings of at most
    # max_degree letters, so generators past x<max_degree> add no products
    calls = []
    for mod, name in ((wn, "wn_mul"), (wlc, "wlc_mul")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
    for alg, f in (("wnov", preset("wn").identities[0]),
                   ("wlc", preset("wn").identities[0]), ("wnov", preset("rs").identities[0])):
        counts = []
        for pool in (5, 7):
            calls.clear()
            assert check_identity(alg, f, max_degree=5, pool=pool).holds
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, (alg, counts)


def test_sweep_builds_only_reachable_letter_multisets(monkeypatch):
    # the domain is built per sorted letter multiset t that a restricted-growth
    # string can reach: t[0] <= hi + 1 and t[i] <= max(hi, t[i-1]) + 1, where
    # hi, the largest letter of the slots before, is at most their letter
    # count, max_degree - len(t); so the pool past that adds no multiset
    requested = []
    for name, alg in list(engine._ALGEBRAS.items()):
        def basis(md, fn=alg.basis):
            requested.append(tuple(sorted(Counter(md).elements())))
            return fn(md)
        monkeypatch.setitem(engine._ALGEBRAS, name, dataclasses.replace(alg, basis=basis))
    for alg, f in (("wnov", preset("wn").identities[0]),
                   ("wlc", preset("wn").identities[0]), ("wnov", preset("rs").identities[0])):
        seen = []
        for pool in (5, 7):
            requested.clear()
            assert check_identity(alg, f, max_degree=5, pool=pool).holds
            assert len(requested) == len(set(requested)), (alg, pool)
            seen.append(sorted(requested))
        assert seen[0] == seen[1], alg
        for t in seen[0]:
            hi = 5 - len(t)
            assert all(b <= max(hi, a) + 1 for a, b in zip((hi,) + t, t)), (alg, t)


def test_sweep_witnesses_at_the_benchmark_setting():
    # the two counterexample cases of criterion 2 at the table_sweep
    # workload's degree and pool, against the full-product reference
    for name in ("lc", "rs"):
        f = preset(name).identities[0]
        rep = check_identity("wlc", f, max_degree=6, pool=5)
        assert (rep.verdict, rep.assignment, rep.value) == _reference_check("wlc", f, 6, 5, QQ)
        assert not rep.holds


def test_relabeling_check_passes():
    results = verify.check_relabeling(max_degree=4)
    assert [ok for _, ok, _ in results] == [True, True], results


def test_relabeling_check_catches_an_orbit_blind_table(monkeypatch):
    # a wlc_mul that stores every L-part sorted, merging the odd
    # canonicalize_L orbit into the even one: the transposition (1 2) then
    # maps a product's key to the odd orbit, where the relabeled factors'
    # product lands in the even one
    table = wlc.wlc_mul

    def orbit_blind(a, b, field=QQ):
        return wlc.WlcElement({wlc.WlcMonomial(m.base, tuple(sorted(m.lpart)), m.rpart): c
                               for m, c in table(a, b, field).terms.items()}, field)

    monkeypatch.setattr(wlc, "wlc_mul", orbit_blind)
    results = verify.check_relabeling(max_degree=4)
    assert [ok for _, ok, _ in results] == [True, False]
    assert "first mismatch" in results[1][2]


def test_left_nilpotency_wnov_is_five():
    res = left_nilpotency_index("wnov", cap=6)
    assert res.index == 5
    # the nonzero index-4 witness is the left-normed degree-4 word
    w = evaluate(x(1) * (x(2) * (x(3) * x(4))), WnElement)
    assert w == WnElement.basis(canonicalize(MIDASSOC, (1, 3, 2, 4)), QQ).scaled(-1)


def test_left_nilpotency_wlc_exceeds_cap():
    # pure-L words x_k L[...] are nonzero in every degree
    res = left_nilpotency_index("wlc", cap=6)
    assert res.index is None
    assert str(res) == "exceeds cap"
    assert res.witness_value is not None and not res.witness_value.is_zero()


def _reference_profile(ids, degree, field):
    """nilpotency_profile as a loop over every multidegree shape."""
    for part in partitions_of(degree):
        md = {i + 1: p for i, p in enumerate(part)}
        if quotient_dimension(ids, md, field) != 0:
            return False
    return True


def test_nilpotency_profile_refuses_a_degree_above_the_cap():
    with pytest.raises(DegreeCapExceeded, match="degree 7 exceeds cap 6"):
        nilpotency_profile(preset("wnov2"), 7, GF(1009))


def test_nilpotency_profile():
    F = GF(1009)
    assert nilpotency_profile(preset("wlc2+flex"), 5, F)
    assert not nilpotency_profile(preset("wnov2"), 5, F)


def test_multilinear_profile_matches_all_components():
    F = GF(1009)
    f = gens_to_vars(parse_expr("x1*x2 + 2 x2*x1"))
    cases = [preset(name) for name in ("wlc2+flex", "wlc2+antiflex", "wlc2+lie-nilp:2",
                                       "wlc2+jordan-nilp:2", "wnov2")]
    cases.append(preset("wnov2").union(IdentitySet("f", (f,)), name="wnov2+f"))
    # x*x = 0 kills the (5) component but not the multilinear one
    square = IdentitySet("sq", (parse_identity("v1*v1 = 0"),))
    cases.append(preset("met").union(square, name="met+sq"))
    verdicts = []
    for ids in cases:
        verdicts.append(nilpotency_profile(ids, 5, F))
        assert verdicts[-1] == _reference_profile(ids, 5, F), ids.name
    assert verdicts == [True, True, True, True, False, True, False]


def test_products_look_up_the_table_at_call_time(monkeypatch):
    # the traced benchmark counts table products by rebinding these names
    calls = {"wn": 0, "wlc": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(wn, "wn_mul", counting("wn", wn.wn_mul))
    monkeypatch.setattr(wlc, "wlc_mul", counting("wlc", wlc.wlc_mul))
    for name, algebra in (("wn", "wnov"), ("wlc", "wlc")):
        element = get_algebra(algebra).element
        element.gen(1) * element.gen(2)
        assert calls[name] == 1
        evaluate(x(1) * (x(2) * x(3)), element)
        assert calls[name] == 3
        check_identity(algebra, parse_identity("v1*v2"), max_degree=2, pool=1)
        assert calls[name] == 4


def test_public_calls_leave_no_cyclic_garbage():
    # a call's memo, product cache and evaluators are freed by reference
    # counting on return: none of them sits in a reference cycle
    from metanov.oracle import membership, quotient_basis

    wnov2 = preset("wnov2")
    calls = [
        lambda: check_identity("wlc", preset("wn").identities[0], max_degree=5, pool=3),
        lambda: check_identity("wnov", preset("lc").identities[0], max_degree=5, pool=3),
        lambda: left_nilpotency_index("wnov", cap=5, pool=3),
        lambda: evaluate(x(1) * (x(2) * x(3)) - (x(1) * x(2)) * x(3), wlc.WlcElement),
        lambda: quotient_dimension(wnov2, {1: 1, 2: 1, 3: 1, 4: 1}, GF(1009)),
        lambda: quotient_basis(wnov2, {1: 2, 2: 1}),
        lambda: membership(x(1) * (x(2) * (x(3) * x(4))), wnov2),
        lambda: classify_multilinear(parse_expr("(x1*x2)*x3 - x1*(x2*x3)"),
                                     oracle_verify=True),
    ]
    for i, call in enumerate(calls):
        call()  # fills the module-level caches a first call may fill
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, i
        finally:
            gc.enable()


def test_classify_degree_two():
    f = x(1) * x(2) + (x(2) * x(1)).scaled(2)
    cls = classify_multilinear(f)
    assert cls.verdict == "nilpotent_bound" and cls.bound == 5


def test_classify_degree_five():
    f = (((x(1) * x(2)) * x(3)) * x(4)) * x(5)
    cls = classify_multilinear(f)
    assert cls.verdict == "nilpotent_bound" and cls.bound == 6


def test_classify_degree_four_with_teich_coordinate():
    f = ((x(1) * x(2)) * x(3)) * x(4)
    cls = classify_multilinear(f, oracle_verify=True, oracle_field=GF(1009))
    assert cls.bound == 5
    assert cls.oracle_confirmed is True
    assert any(k.kind == TEICH for k in cls.normal_form.terms)


def test_classify_degree_four_annihilator_form_is_candidate():
    # a combination lying in the mid-associator span escapes the bound
    f = parse_expr("A(x1, x2*x3, x4)")
    cls = classify_multilinear(f)
    assert cls.verdict == "non_nilpotent_candidate"
    assert cls.bound is None


def test_classify_degree_three_associator_gets_bound():
    f = parse_expr("A(x1,x2,x3)")
    cls = classify_multilinear(f)
    assert cls.verdict == "nilpotent_bound" and cls.bound == 5


def test_classify_degree_three_lprod_form_is_candidate():
    f = parse_expr("x1*(x2*x3)")
    cls = classify_multilinear(f)
    assert cls.verdict == "non_nilpotent_candidate"


def test_classify_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        classify_multilinear(parse_expr("x1*(x2*x2)"))  # not multilinear
    with pytest.raises(ValueError):
        classify_multilinear(parse_expr("(x1*x2)*(x3*x4)"))  # already zero


def test_classify_refuses_malformed_input():
    for text, msg in (("x1*v2", "formal-variable leaf"),
                      ("x1*x2 + x1", "not multihomogeneous"),
                      ("0", "zero polynomial")):
        with pytest.raises(ValueError, match=msg):
            classify_multilinear(parse_expr(text))


def test_operator_word_apply_patterns():
    e = gen(1) * gen(2)  # degree-2 element
    rrr = operator_word_apply(e, [("R", 3), ("R", 4), ("R", 5)])
    assert rrr == WnElement.basis(canonicalize(RWORD, (1, 2, 3, 4, 5)), QQ)
    rrl = operator_word_apply(e, [("R", 3), ("R", 4), ("L", 5)])
    assert rrl.is_zero()
    theta = operator_word_apply(e, [("Theta", 3)])
    assert theta == e * gen(3) + gen(3) * e
    with pytest.raises(ValueError):
        operator_word_apply(e, [("Q", 3)])
