"""Command-line interface: every subcommand end to end."""

import json

import pytest

from metanov.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_normalize_wlc(capsys):
    code, out = run(capsys, "normalize", "--algebra", "wlc", "(x2*x1)*x3")
    assert code == 0
    assert out.strip() == "x1 L[x2] R[x3]"


def test_normalize_wnov(capsys):
    code, out = run(capsys, "normalize", "--algebra", "wnov", "x1*(x2*(x3*x4))")
    assert code == 0
    assert out.strip() == "-1 A(x1, x3*x2, x4)"


def test_normalize_json(capsys):
    code, out = run(capsys, "normalize", "--algebra", "wnov", "--json",
                    "((x1*x2)*x3)*x4")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "wnov"
    assert doc["normal_form"].startswith("2 A(x1, x2*x3, x4)")
    assert len(doc["terms"]) == 3


def test_normalize_modular(capsys):
    code, out = run(capsys, "normalize", "--algebra", "wnov",
                    "--field", "fp:7", "x1*(x2*(x3*x4))")
    assert code == 0
    assert out.strip() == "6 A(x1, x3*x2, x4)"


def test_dim(capsys):
    code, out = run(capsys, "dim", "--identities", "wnov2",
                    "--multidegree", "1,1,1")
    assert code == 0
    assert out.strip() == "9"


def test_dim_modular(capsys):
    code, out = run(capsys, "dim", "--identities", "wlc2",
                    "--multidegree", "1,1,1,1", "--field", "fp:1009")
    assert code == 0
    assert out.strip() == "72"


def test_dim_from_identity_file(capsys, tmp_path):
    p = tmp_path / "ids.txt"
    p.write_text("v1*v2 - v2*v1 = 0\n")
    code, out = run(capsys, "dim", "--identities", str(p),
                    "--multidegree", "1,1")
    assert code == 0
    assert out.strip() == "1"


def test_dim_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--identities", "nosuch", "--multidegree", "1,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip() == "error: unknown identity preset 'nosuch'"


def test_basis(capsys):
    code, out = run(capsys, "basis", "--identities", "wnov2",
                    "--multidegree", "1,1")
    assert code == 0
    assert out.splitlines() == ["(x1*x2)", "(x2*x1)"]


def test_check_identity_holds(capsys):
    code, out = run(capsys, "check-identity", "--algebra", "wnov",
                    "--identity", "A(v1,v2,v3) - A(v1,v3,v2) = 0",
                    "--max-degree", "5")
    assert code == 0
    assert out.startswith("holds")


def test_check_identity_counterexample(capsys):
    code, out = run(capsys, "check-identity", "--algebra", "wlc",
                    "--identity", "v1*(v2*v3) - v2*(v1*v3)",
                    "--max-degree", "4")
    assert code == 1
    assert "counterexample" in out


def test_check_identity_modular_agrees_with_rationals(capsys):
    rs = "A(v1,v2,v3) - A(v1,v3,v2) = 0"
    for algebra, want in (("wnov", 0), ("wlc", 1)):
        outs = []
        for field in ("q", "fp:1009"):
            code, out = run(capsys, "check-identity", "--algebra", algebra,
                            "--identity", rs, "--max-degree", "4", "--pool", "3",
                            "--field", field)
            assert code == want
            outs.append(out.splitlines()[:-1])  # the value line differs by field
        assert outs[0] == outs[1]


def test_membership(capsys):
    code, out = run(capsys, "membership", "--identities", "wnov2",
                    "(x1*x2)*(x3*x4)")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "membership", "--identities", "wnov2",
                    "((x1*x2)*x3)*x4")
    assert code == 0 and out.strip() == "false"


def test_membership_field_and_cap(capsys):
    lnil = "x1*(x2*(x3*(x4*x5)))"
    for field in ("q", "fp:3", "fp:1009"):
        code, out = run(capsys, "membership", "--identities", "wnov2", "--field", field, lnil)
        assert code == 0 and out.strip() == "true"
    # 3 x1*x2 vanishes mod 3, so only the member (x1*x2)*(x3*x4) is left
    code, out = run(capsys, "membership", "--identities", "wnov2", "--field", "fp:3",
                    "3 ((x1*x2)*x3)*x4 + (x1*x2)*(x3*x4)")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "membership", "--identities", "wnov2", "--cap", "7",
                    "x1*(x1*(x1*(x1*(x2*(x2*x2)))))")
    assert code == 0 and out.strip() == "true"


def test_error_membership_field_and_cap(capsys):
    err = fail(capsys, "membership", "--identities", "wnov2", "--field", "fp:4", "x1*x2")
    assert err == "error: modulus 4 is not prime"
    err = fail(capsys, "membership", "--identities", "wnov2", "--field", "r", "x1*x2")
    assert err.startswith("error: unknown field spec 'r'")
    err = fail(capsys, "membership", "--identities", "wnov2", "--cap", "3",
               "(x1*x2)*(x3*x4)")
    assert err == "error: degree 4 exceeds cap 3"


def test_classify_oracle_field(capsys):
    for field in ("q", "fp:5"):
        code, out = run(capsys, "classify", "--oracle-verify", "--field", field,
                        "x1*x2 + 2 x2*x1")
        assert code == 0 and "bound: 5" in out and "oracle confirmed: True" in out
    err = fail(capsys, "classify", "--oracle-verify", "--field", "fp:9", "x1*x2 + 2 x2*x1")
    assert err == "error: modulus 9 is not prime"


def test_classify_oracle_confirms_bounds_seven_and_eight(capsys):
    for expr, bound in (("((((x1*x2)*x3)*x4)*x5)*x6", 7),
                        ("(((((x1*x2)*x3)*x4)*x5)*x6)*x7", 8)):
        code, out = run(capsys, "classify", "--oracle-verify", expr)
        assert code == 0 and f"nilpotency bound: {bound}" in out, out
        assert "oracle confirmed: True" in out
    # a degree-8 identity's bound 9 is past the oracle's reach: no verdict
    code, out = run(capsys, "classify", "--oracle-verify", "((((((x1*x2)*x3)*x4)*x5)*x6)*x7)*x8")
    assert code == 0 and "nilpotency bound: 9" in out and "oracle confirmed" not in out


def test_classify(capsys):
    code, out = run(capsys, "classify", "x1*x2 + 2 x2*x1")
    assert code == 0
    assert "nilpotent_bound" in out and "bound: 5" in out
    code, out = run(capsys, "classify", "x1*(x2*x3)")
    assert code == 0
    assert "non_nilpotent_candidate" in out


def test_verify_suite_exit_codes(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)


def fail(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    return err


def test_error_unparenthesized_product(capsys):
    err = fail(capsys, "normalize", "--algebra", "wnov", "x1*x2*x3")
    assert "needs explicit parentheses" in err


def test_error_degree_cap(capsys):
    err = fail(capsys, "dim", "--identities", "wnov2", "--multidegree", "1,1,1",
               "--cap", "2")
    assert err == "error: degree 3 exceeds cap 2"


def test_error_modulus_not_prime(capsys):
    err = fail(capsys, "dim", "--identities", "wnov2", "--multidegree", "1,1",
               "--field", "fp:4")
    assert err == "error: modulus 4 is not prime"


def test_error_linearization_in_small_characteristic(capsys, tmp_path):
    p = tmp_path / "cube.txt"
    p.write_text("v1*(v1*v1) = 0\n")
    err = fail(capsys, "dim", "--identities", str(p), "--multidegree", "3",
               "--field", "fp:3")
    assert "characteristic 3" in err


def test_error_vanishing_denominator(capsys, tmp_path):
    p = tmp_path / "ids.txt"
    p.write_text("1/3 v1*v2 + v2*v1 = 0\n")
    err = fail(capsys, "dim", "--identities", str(p), "--multidegree", "1,1",
               "--field", "fp:3")
    assert "denominator vanishes mod 3" in err


def test_error_check_identity_vanishing_denominator(capsys):
    err = fail(capsys, "check-identity", "--algebra", "wlc", "--field", "fp:3",
               "--identity", "1/3 v1*v2 + v2*v1 = 0")
    assert err.startswith("error: identity 1/3 (v1*v2) + (v2*v1) = 0")
    assert "denominator vanishes mod 3" in err


def test_error_check_identity_empty_sweep(capsys):
    lc = "v1*(v2*v3) - v2*(v1*v3) = 0"
    err = fail(capsys, "check-identity", "--algebra", "wlc", "--identity", lc,
               "--max-degree", "2")
    assert "no assignment" in err
    err = fail(capsys, "check-identity", "--algebra", "wlc", "--identity", lc,
               "--pool", "0")
    assert "pool 0" in err


def test_error_bad_preset_names(capsys):
    err = fail(capsys, "dim", "--identities", "+", "--multidegree", "1,1")
    assert err == "error: empty preset name in '+'"
    for name in ("lie-nilp:0", "jordan-nilp:0"):
        err = fail(capsys, "dim", "--identities", name, "--multidegree", "1,1")
        assert err == f"error: {name}: the nilpotency order must be >= 1"
    code, out = run(capsys, "dim", "--identities", "wlc2+weak-flex:+",
                    "--multidegree", "1,1")
    assert code == 0 and out.strip() == "2"


def test_error_bad_nilpotency_order(capsys):
    err = fail(capsys, "dim", "--identities", "lie-nilp:x", "--multidegree", "1,1")
    assert err == "error: lie-nilp:x: the nilpotency order must be an integer"


def test_cap_defaults_to_the_oracle_cap():
    from metanov.cli import build_parser
    from metanov.oracle import DEFAULT_DEGREE_CAP
    for cmd in ("dim", "basis"):
        args = build_parser().parse_args([cmd, "--identities", "met", "--multidegree", "1"])
        assert args.cap == DEFAULT_DEGREE_CAP
    args = build_parser().parse_args(["membership", "--identities", "met", "x1"])
    assert args.cap == DEFAULT_DEGREE_CAP
