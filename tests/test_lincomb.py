"""The linear-combination type: its int-pair constructor and the table
products built on it."""

import itertools
from fractions import Fraction

from metanov.engine import basis_elements_by_degree, get_algebra
from metanov.fields import GF, QQ
from metanov.wlc import WlcElement, WlcMonomial, wlc_mul
from metanov.wn import PAIR, WnBasisElement, WnElement, wn_mul

K1, K2, K3 = (WnBasisElement(PAIR, p) for p in ((1, 2), (2, 1), (1, 1)))


def test_from_ints_adds_repeated_keys_and_drops_vanishing_sums():
    pairs = [(1, K1), (2, K2), (2, K1), (-1, K3), (1, K3)]
    assert WnElement.from_ints(pairs, GF(3)).terms == {K2: 2}
    assert WnElement.from_ints(pairs, GF(5)).terms == {K1: 3, K2: 2}
    assert WnElement.from_ints(pairs, QQ).terms == {K1: 3, K2: 2}
    assert WnElement.from_ints([(3, K1)], GF(3)).is_zero()
    assert WnElement.from_ints([], QQ) == WnElement.zero(QQ)


def test_from_ints_keeps_first_pair_order():
    e = WnElement.from_ints([(1, K2), (1, K1), (1, K2)], QQ)
    assert list(e.terms) == [K2, K1]


def test_from_ints_coefficients_live_in_the_field():
    e = WnElement.from_ints([(-1, K1), (4, K2)], QQ)
    assert e.terms == {K1: -1, K2: 4}
    assert all(type(c) is Fraction for c in e.terms.values())
    e = WnElement.from_ints([(-1, K1), (1010, K2)], GF(1009))
    assert e.terms == {K1: 1008, K2: 1}
    assert all(type(c) is int and 0 <= c < 1009 for c in e.terms.values())


def test_basis_and_zero_share_the_field_constants():
    for field in (QQ, GF(7)):
        assert WnElement.basis(K1, field).terms[K1] is field.one
        assert WnElement.basis(K1, field) == WnElement({K1: 1}, field)
        assert WnElement.zero(field) == WnElement({}, field)
    assert type(QQ.zero) is Fraction and QQ.zero == 0 and QQ.one == 1
    assert GF(7).zero == 0 and GF(7).one == 1


def _reduced(e, field):
    """The Q element e with its coefficients reduced into GF(p)."""
    return type(e)({k: field.coerce(c) for k, c in e.terms.items()}, field)


def test_products_mod_p_are_the_rational_products_reduced():
    # every pair of keys of degree <= 5 over x1..x3 with a product of degree
    # <= 6: a pair of two factors of degree >= 2 multiplies to zero anyway
    for algebra, mul in (("wnov", wn_mul), ("wlc", wlc_mul)):
        keys = [k for ks in basis_elements_by_degree(get_algebra(algebra), 5, 3).values()
                for k in ks]
        pairs = [(a, b) for a, b in itertools.product(keys, repeat=2)
                 if a.degree + b.degree <= 6]
        nonzero = 0
        for a, b in pairs:
            over_q = mul(a, b, QQ)
            nonzero += not over_q.is_zero()
            for field in (GF(3), GF(1009)):
                assert mul(a, b, field) == _reduced(over_q, field), (a, b, field)
        assert nonzero > len(pairs) // 10, algebra


def test_wlc_left_action_on_an_lr_monomial_can_cancel():
    # x_q * (x_i L_j R_k) = x_k L_i L_j L_q - x_k L_q L_i L_j: the two
    # monomials meet when the L-part is too short to tell their orders apart
    # (length 3 is free), i.e. only if i = j = q
    gen = WlcMonomial(1, (), ())
    assert wlc_mul(gen, WlcMonomial(1, (1,), (2,)), QQ).is_zero()
    e = wlc_mul(gen, WlcMonomial(2, (1,), (3,)), GF(3))
    assert e.terms == {WlcMonomial(3, (2, 1, 1), ()): 1, WlcMonomial(3, (1, 2, 1), ()): 2}
    assert e == WlcElement.from_ints([(1, WlcMonomial(3, (2, 1, 1), ())),
                                      (-1, WlcMonomial(3, (1, 2, 1), ()))], GF(3))
