"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
criterion.  Each criterion also carries a wall-clock budget; exceeding it
fails the criterion even if the mathematics checks out.
"""

import time

import pytest

from metanov import preset, quotient_dimension, verify
from metanov.fields import GF, QQ


def _run(check_fn, budget_s, *args, **kwargs):
    t0 = time.monotonic()
    results = check_fn(*args, **kwargs)
    elapsed = time.monotonic() - t0
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, f"failed checks: {failures}"
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    return elapsed


def test_criterion_1_multiplication_tables_reproduced():
    """Both multiplication tables, restated row by row over {x1..x5},
    match wn_mul / wlc_mul symbol for symbol; unlisted products vanish."""
    t0 = time.monotonic()
    results = verify.check_wn_table() + verify.check_wlc_table()
    elapsed = time.monotonic() - t0
    assert all(ok for _, ok, _ in results), results
    assert elapsed < 5, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_2_defining_identities():
    """Right symmetry, the weak-Novikov law, and metabelianity hold in the
    right-symmetric algebra; the weak-Novikov law and metabelianity hold
    without right symmetry, where left commutativity and right symmetry
    admit explicit counterexamples.  All substitutions up to result
    degree 7, exact arithmetic."""
    _run(verify.check_defining_identities, 120)


def test_criterion_2_defining_identities_over_seven_generators():
    """Criterion 2 with x1..x7 to substitute from, so that every multidegree
    up to degree 7 has a distinct generator for each of its letters."""
    _run(verify.check_defining_identities_pool_7, 30)


def test_criterion_3_dimensions_match_basis_counts():
    """Oracle dimensions equal basis counts for every multidegree shape of
    total degree <= 5; in particular 2, 9, 16, 5 (with right symmetry) and
    12, 72 (without) at multilinear degrees.  Degree <= 4 over Q, degree 5
    over both GF(1009) (< 30 s) and Q (< 5 min)."""
    _run(verify.check_dimensions, 60, max_total=4)
    t0 = time.monotonic()
    results = verify.check_dimensions(max_total=5)
    elapsed_gf = time.monotonic() - t0
    assert all(ok for _, ok, _ in results), results
    assert elapsed_gf < 90, f"GF path took {elapsed_gf:.1f}s"
    t0 = time.monotonic()
    assert quotient_dimension(preset("wnov2"), {i: 1 for i in range(1, 6)}, QQ) == 5
    assert quotient_dimension(preset("wlc2"), {i: 1 for i in range(1, 6)}, QQ) == 370
    elapsed_q = time.monotonic() - t0
    assert elapsed_q < 300, f"degree-5 over Q took {elapsed_q:.1f}s"


def test_criterion_4_operator_patterns():
    """Of the eight three-operator patterns on a degree-2 element, the
    seven containing a left multiplication annihilate everything; RRR
    alone survives, producing an R-word."""
    _run(verify.check_operator_patterns, 1)


def test_criterion_5_left_nilpotency_index_five():
    """The right-symmetric algebra is left nilpotent of exact index 5:
    x1(x2(x3x4)) is nonzero while every length-5 left-normed product
    vanishes; the oracle confirms the same for the Novikov-metabelian and
    weak-Novikov-metabelian identity sets."""
    _run(verify.check_left_nilpotency, 60)


def test_criterion_6_corollaries_at_degree_five():
    """Adding flexibility, antiflexibility, commutator nilpotency of class
    2, or Jordan nilpotency of class 2 makes the weak-Novikov metabelian
    variety nilpotent of index <= 5, while the base variety is not."""
    _run(verify.check_corollaries, 600)


def test_criterion_7_classification():
    """classify_multilinear: degree 2 -> bound 5; the left-normed degree-5
    word -> bound 6 (squared-element substitution leaves a bare R-word);
    annihilator-orbit degree-4 and degree-3 forms escape as non-nilpotent
    candidates.  All bounds <= 6 re-verified by the oracle."""
    _run(verify.check_classification, 300)


def test_criterion_8_teichmueller_coherence():
    """The combination (xy,z,t) - (y,xz,t) - 2(x,yz,t) evaluates to the
    single basis element T(x,{y,z,t}) for every generator tuple."""
    _run(verify.check_tch_coherence, 1)
