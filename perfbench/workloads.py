"""The benchmark's three workloads: fixed queries with known answers, plus
seed-drawn classification identities.

Every query calls metanov through a module attribute at call time
(``oracle.quotient_dimension``, not a name bound at import), so the
tracer's rebinding reaches it.  Expected answers are the paper's numbers
and the verdicts the acceptance tests fix; none is computed by the code
under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from metanov import engine, exprs, oracle
from metanov.fields import GF, QQ

F = GF(1009)
ML5 = {i: 1 for i in range(1, 6)}
ML6 = {i: 1 for i in range(1, 7)}
# Bracketed words of multidegree 1^n: Catalan(n-1) * n!.
WORDS5 = 14 * 120
WORDS6 = 42 * 720


@dataclass
class Query:
    group: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    expected: str
    # counters the traced run must reproduce exactly for this query alone
    invariants: dict[str, int] = field(default_factory=dict)


def _equals(value):
    return lambda got: got == value


def _dimension(group, name, md, fld, dim, ncols):
    ids = oracle.preset(name)
    return Query(
        group, f"dim {name} 1^{len(md)} {fld}",
        lambda: oracle.quotient_dimension(ids, md, fld),
        _equals(dim), str(dim),
        {"oracle.cols": ncols, "oracle.rank": ncols - dim, "oracle.components": 1},
    )


def oracle_multilinear(seed: int) -> list[Query]:
    del seed  # every query is fixed
    return [
        _dimension("dim_wnov2_d6", "wnov2", ML6, F, 6, WORDS6),
        _dimension("dim_wlc2_d6_q", "wlc2", ML6, QQ, 2232, WORDS6),
        _dimension("dim_wlc2_d6_gf", "wlc2", ML6, F, 2232, WORDS6),
        _dimension("dim_d5", "wnov2", ML5, QQ, 5, WORDS5),
        _dimension("dim_d5", "wlc2", ML5, QQ, 370, WORDS5),
    ]


# -- seeded classification inputs ---------------------------------------

# One identity per degree, each classified "nilpotent_bound 5" and
# oracle-confirmed by the acceptance tests (criterion 7).  A seed relabels
# the generators and rescales: that keeps the verdict and the oracle's work
# (the same rows, up to order), where independently drawn identities of one
# degree differ up to fourfold in elimination fill-in.
BASE_IDENTITIES = {
    2: "x1*x2 + 2 x2*x1",
    3: "((x1*x2)*x3) - (x1*(x2*x3))",
    4: "((x1*x2)*x3)*x4",
}


def draw_identity(rng: random.Random, degree: int):
    """The base identity of ``degree`` under a random relabeling of its
    generators and a random nonzero scale, as text and parsed."""
    perm = list(range(1, degree + 1))
    rng.shuffle(perm)
    body = re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1]}",
                  BASE_IDENTITIES[degree])
    text = f"{rng.choice((-3, -2, -1, 2, 3))} ({body})"
    return text, exprs.parse_expr(text)


def _classified(cls) -> bool:
    return (cls.verdict == "nilpotent_bound" and cls.bound == 5
            and cls.oracle_confirmed is True)


def oracle_profiles(seed: int) -> list[Query]:
    queries = []
    for name, nilpotent in (("wlc2+flex", True), ("wlc2+antiflex", True),
                            ("wlc2+lie-nilp:2", True), ("wlc2+jordan-nilp:2", True),
                            ("wnov2", False)):
        ids = oracle.preset(name)
        queries.append(Query(
            "profile", f"nilpotency_profile {name} 5 GF(1009)",
            lambda ids=ids: engine.nilpotency_profile(ids, 5, F),
            _equals(nilpotent), str(nilpotent)))
    for text, member in (("x1*(x2*(x3*x4))", False),
                         ("x1*(x2*(x3*(x4*x5)))", True)):
        for name in ("nov2", "wnov2"):
            f, ids = exprs.parse_expr(text), oracle.preset(name)
            queries.append(Query(
                "membership", f"membership {text} in {name}",
                lambda f=f, ids=ids: oracle.membership(f, ids),
                _equals(member), str(member)))
    rng = random.Random(seed)
    for degree in (2, 3, 4):
        text, f = draw_identity(rng, degree)
        queries.append(Query(
            "classify", f"classify {text}",
            lambda f=f: engine.classify_multilinear(f, oracle_verify=True),
            _classified, "nilpotent_bound 5, oracle-confirmed"))
    return queries


def table_sweep(seed: int) -> list[Query]:
    del seed  # every query is fixed
    queries = []
    for alg, name, verdict in (("wnov", "rs", "holds"), ("wnov", "wn", "holds"),
                               ("wnov", "met", "holds"), ("wlc", "wn", "holds"),
                               ("wlc", "met", "holds"), ("wlc", "lc", "counterexample"),
                               ("wlc", "rs", "counterexample")):
        f = oracle.preset(name).identities[0]
        queries.append(Query(
            "check_identity", f"check_identity {alg} {name}",
            lambda alg=alg, f=f: engine.check_identity(alg, f, max_degree=6, pool=5).verdict,
            _equals(verdict), verdict))
    for alg, index in (("wnov", 5), ("wlc", None)):
        queries.append(Query(
            "nilpotency_index", f"left_nilpotency_index {alg} cap 6",
            lambda alg=alg: engine.left_nilpotency_index(alg, cap=6).index,
            _equals(index), str(index)))
    return queries


WORKLOADS = {
    "oracle_multilinear": oracle_multilinear,
    "oracle_profiles": oracle_profiles,
    "table_sweep": table_sweep,
}
