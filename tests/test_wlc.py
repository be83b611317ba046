"""Normal forms without right symmetry: monomials x_i L_... R_...."""

import itertools

import pytest

from metanov import (
    WlcElement,
    WlcMonomial,
    canonicalize_L,
    evaluate,
    parse_expr,
    wlc_basis,
    wlc_mul,
)
from metanov.fields import GF, QQ
from metanov.magma import x

gen = WlcElement.gen


def B(base, lpart=(), rpart=(), field=QQ):
    return WlcElement.basis(WlcMonomial(base, lpart, rpart), field)


def test_monomial_validation():
    with pytest.raises(ValueError):
        WlcMonomial(1, (), (2,))  # degree >= 2 needs an L-part
    with pytest.raises(ValueError):
        WlcMonomial(1, (4, 3, 2, 1), ())  # non-canonical L-part


def test_canonicalize_L_short_sequences_free():
    assert canonicalize_L((3, 1, 2)) == (3, 1, 2)
    assert canonicalize_L(()) == ()


def test_canonicalize_L_even_orbit():
    # (2,1,4,3) is an even permutation of sorted
    assert canonicalize_L((2, 1, 4, 3)) == (1, 2, 3, 4)
    # odd permutations map to sorted-with-last-two-swapped
    assert canonicalize_L((2, 1, 3, 4)) == (1, 2, 4, 3)
    assert canonicalize_L((1, 2, 4, 3)) == (1, 2, 4, 3)


def test_canonicalize_L_repeats_merge_orbits():
    assert canonicalize_L((3, 1, 1, 2)) == (1, 1, 2, 3)
    assert canonicalize_L((1, 1, 3, 2)) == (1, 1, 2, 3)


def test_canonicalize_L_is_idempotent():
    for p in itertools.permutations((1, 2, 3, 4, 5)):
        c = canonicalize_L(p)
        assert canonicalize_L(c) == c


def test_product_of_generators():
    # x_j * x_i = x_i L_j: the left factor becomes the operator
    assert gen(2) * gen(1) == B(1, (2,))
    assert gen(1) * gen(1) == B(1, (1,))


def test_right_action_appends_R():
    e = B(1, (2,)) * gen(3)
    assert e == B(1, (2,), (3,))
    e = e * gen(4)
    assert e == B(1, (2,), (3, 4))


def test_left_action_on_pure_L_appends_L():
    assert gen(3) * B(1, (2,)) == B(1, (2, 3))
    # the appended index participates in the length-4 canonicalization
    e = gen(4) * B(1, (5, 3, 2))
    assert e == B(1, canonicalize_L((5, 3, 2, 4)))


def test_left_action_on_LR_monomial_two_terms():
    # x_q (x_i L_j R_k) = x_k L_i L_j L_q - x_k L_q L_i L_j
    e = gen(4) * B(1, (2,), (3,))
    assert e == B(3, (1, 2, 4)) - B(3, (4, 1, 2))


def test_metabelian_null_products():
    heavy1 = B(1, (2,))
    heavy2 = B(3, (4,))
    assert (heavy1 * heavy2).is_zero()
    deep = B(1, (2,), (3, 4))
    assert (gen(5) * deep).is_zero()
    assert (gen(5) * B(1, (2, 3), (4,))).is_zero()


def test_basis_counts_multilinear():
    assert len(wlc_basis({1: 1, 2: 1})) == 2
    assert len(wlc_basis({1: 1, 2: 1, 3: 1})) == 12
    assert len(wlc_basis({1: 1, 2: 1, 3: 1, 4: 1})) == 72
    assert len(wlc_basis({i: 1 for i in range(1, 6)})) == 370


def test_basis_is_sorted_and_canonical():
    basis = wlc_basis({1: 1, 2: 1, 3: 1, 4: 1})
    keys = [WlcElement._key_order(m) for m in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)
    for m in basis:
        assert m.lpart == canonicalize_L(m.lpart)


def test_eval_matches_mul():
    e = evaluate(parse_expr("(x2*x1)*x3"), WlcElement)
    assert e == B(1, (2,), (3,))
    e = evaluate(parse_expr("x3*(x2*x1)"), WlcElement)
    assert e == B(1, (2, 3))


def test_weakly_novikov_holds_on_generators():
    # x(y,z,t) = (y,z,xt) for generator substitutions
    f = parse_expr("x1*A(x2,x3,x4) - A(x2,x3,x1*x4)")
    assert evaluate(f, WlcElement).is_zero()


def test_left_commutativity_fails():
    f = parse_expr("x1*(x2*x3) - x2*(x1*x3)")
    assert not evaluate(f, WlcElement).is_zero()


def test_modular_coefficients():
    F = GF(7)
    e = gen(4, F) * WlcElement.basis(WlcMonomial(1, (2,), (3,)), F)
    assert set(e.terms.values()) == {1, 6}
