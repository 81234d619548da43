import json
import random
import time
from fractions import Fraction

import pytest

from multspec.cli import run_command
from multspec.dynamics import ProjMap, ProjPoint, multiplier_at_point, random_map, sigma_n
from multspec.errors import UsageError
from multspec.exactalg import GF, QQ, UniPoly
from multspec.parsing import (
    ExperimentConfig,
    map_to_document,
    parse_config,
    parse_map_expr,
    parse_points,
    parse_scalar_list,
)

from codec_helpers import map_from_document


def run_json(argv):
    code, text = run_command(argv)
    return code, json.loads(text)


def test_map_expression_basics():
    phi = parse_map_expr(QQ, "z^3 - 2*z + 1")
    want = ProjMap.from_affine(
        UniPoly(QQ, "z", [Fraction(1), Fraction(-2), Fraction(0), Fraction(1)]),
        UniPoly.const(QQ, "z", Fraction(1)),
    )
    assert phi == want and phi.is_polynomial
    # common factors cancel before the degree is read off
    assert parse_map_expr(QQ, "(z^3+z^2)/(z+1)") == parse_map_expr(QQ, "z^2")
    assert parse_map_expr(QQ, "2/z + z") == parse_map_expr(QQ, "(z^2+2)/z")
    assert parse_map_expr(GF(13), "z^2 + 14") == parse_map_expr(GF(13), "z^2 + 1")


def test_map_expression_parameters():
    phi = parse_map_expr(QQ, "z^3+a*z+b", {"a": Fraction(0), "b": Fraction(0)})
    assert phi == parse_map_expr(QQ, "z^3")
    phi = parse_map_expr(QQ, "z^2 + c", {"c": Fraction(-7, 4)})
    assert phi == parse_map_expr(QQ, "z^2 - 7/4")
    with pytest.raises(UsageError, match="unbound parameter"):
        parse_map_expr(QQ, "z^2 + w")


def test_map_expression_rejects():
    for text, pat in [
        ("0.5*z^2", "not exact"),
        ("z^z", "integer literals"),
        ("z^400", "past any sensible"),
        ("1/(z-z)", "divides by zero"),
        ("3 + 4", "constant"),
        ("z +* 2", "cannot parse"),
        ("z(1)", "unsupported syntax"),
    ]:
        with pytest.raises(UsageError, match=pat):
            parse_map_expr(QQ, text)


def test_scalar_and_point_lists():
    assert parse_scalar_list(QQ, "-5, 5/2; 4") == [Fraction(-5), Fraction(5, 2), Fraction(4)]
    F = GF(7)
    assert parse_scalar_list(F, "-1") == parse_scalar_list(F, "6")
    with pytest.raises(UsageError, match="empty"):
        parse_scalar_list(QQ, " , ")
    pts = parse_points(QQ, "0, 1, inf")
    assert pts[0] == ProjPoint.affine(QQ, Fraction(0)) and pts[2].is_infinity
    assert parse_points(QQ, "oo")[0].is_infinity and parse_points(QQ, "Infinity")[0].is_infinity


def test_map_document_round_trip():
    rng = random.Random(11)
    for dom in (QQ, GF(10007)):
        for d in (2, 3, 4):
            phi = random_map(dom, d, rng)
            doc = map_to_document(phi)
            assert json.loads(json.dumps(doc)) == doc
            assert map_from_document(doc) == phi
    bad = dict(doc)
    bad["degree"] = 7
    with pytest.raises(UsageError, match="degree"):
        map_from_document(bad)
    with pytest.raises(UsageError, match="bad map document"):
        map_from_document({"field": "QQ"})


def test_config_parsing():
    text = """
    # fiber experiment
    experiment deg-tau32
    seed = 7
    draws 3
    budget = 100000
    field GF:101
    lambdas 1,2,3
    """
    assert parse_config(text) == ExperimentConfig(
        experiment="deg-tau32", field="GF:101", lambdas="1,2,3", draws=3, seed=7, budget=100000
    )
    assert parse_config("") == ExperimentConfig()
    with pytest.raises(UsageError, match="line 2"):
        parse_config("experiment sigma\nsede 4\n")
    with pytest.raises(UsageError, match="integer"):
        parse_config("seed = x\n")
    with pytest.raises(UsageError, match="no value"):
        parse_config("seed\n")


def test_sigma_command_cubic_example():
    code, doc = run_json(["sigma", "--map", "z^3+a*z+b", "-a", "0", "-b", "0", "-n", "1"])
    assert code == 0
    assert doc["sigma"] == ["6", "9", "0", "0"]
    assert map_from_document(doc["map"]) == parse_map_expr(QQ, "z^3")


def test_sigma_command_matches_library():
    code, doc = run_json(["sigma", "--num", "1,0,1", "--den", "0,1,0", "-n", "2", "--field", "GF:13"])
    assert code == 0
    phi = map_from_document(doc["map"])
    assert phi == parse_map_expr(GF(13), "(z^2+1)/z")
    assert doc["sigma"] == [str(v) for v in sigma_n(phi, 2).values]


def test_tau_command_levels():
    code, doc = run_json(["tau", "--map", "(z^2-1)/(z^2+1)", "-n", "2"])
    assert code == 0 and len(doc["sigmas"]) == 2
    phi = map_from_document(doc["map"])
    assert doc["sigmas"][0] == [str(v) for v in sigma_n(phi, 1).values]
    assert doc["sigmas"][1] == [str(v) for v in sigma_n(phi, 2).values]


def test_tau_rejects_levels_below_one():
    # as sigma does: no empty tau image for n = 0, and no level-count error for n < 0
    for n in ("0", "-2"):
        for command in ("tau", "sigma"):
            code, doc = run_json([command, "--map", "z^2+1", "-n", n])
            assert code == 2 and doc == {"error": "period must be >= 1", "kind": "usage"}, (command, n)


def test_relation_command():
    code, doc = run_json(["relation", "--map", "z^4+1"])
    assert code == 0 and doc["polynomial"] is True
    assert doc["theorem_residual"] == "0" and doc["corollary_residual"] == "0"
    code, doc = run_json(["relation", "--map", "(z^2+1)/z"])
    assert code == 0 and doc["polynomial"] is False
    assert doc["theorem_residual"] == "0" and doc["corollary_residual"] is None


def test_poly_classes_command_is_seeded():
    argv = ["poly-classes", "-d", "3", "--lambdas", "1/2,5", "--seed", "3"]
    code, text = run_command(argv)
    doc = json.loads(text)
    assert code == 0
    assert len(doc["lambdas"]) == 3  # third multiplier derived from the first two
    assert doc["solutions"] >= doc["classes"] >= 1
    assert doc["field"].startswith("GF")
    assert run_command(argv) == (code, text)


def test_poly_classes_rejects_multipliers_that_fail_the_index_formula():
    # sigma2-check and poly-classes reject the same unrealizable list alike
    for argv in (
        ["poly-classes", "-d", "3", "--lambdas", "0,2,5", "--field", "GF:10007"],
        ["poly-classes", "-d", "4", "--lambdas", "2,3,5,7", "--field", "GF:10007"],
        ["sigma2-check", "-d", "3", "--lambdas", "0,2,5"],
    ):
        code, doc = run_json(argv)
        assert code == 1 and doc["kind"] == "math"
        assert "index formula" in doc["error"]


def test_poly_classes_exact_over_qq_at_degree_5():
    # the residue-form basis over QQ takes milliseconds (the product system's took minutes)
    code, doc = run_json(["poly-classes", "-d", "5", "--lambdas=-2,-3,-4,8", "--field", "QQ"])
    assert code == 0
    assert doc["lambdas"][-1] == "689/269"
    assert (doc["solutions"], doc["classes"]) == (24, 6)


def test_poly_classes_counts_at_a_prime_where_no_configuration_escapes():
    # at the first prime drawn, 753341, lambda_2 = 0 makes w_1 + w_2 = 0: that GF(p) fiber
    # has 16 configurations in 4 classes, and the QQ fiber that poly-classes counts has 24 in 6
    code, doc = run_json(["poly-classes", "-d", "5", "--lambdas=2,753341/753340,4/3,6/5", "--seed", "0"])
    assert code == 0 and doc["field"] == "GF 979553"
    assert (doc["solutions"], doc["classes"]) == (24, 6)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("lambdas, field", [("2,3,13", "GF:17"), ("4,8,10", "GF:11")])
def test_poly_classes_over_a_small_field(lambdas, field, seed):
    # over a small field no linear form need separate the configurations;
    # the count is proved, the same at every seed: the trace form of each
    # quotient has rank 6 = dim Q
    argv = ["poly-classes", "-d", "4", "--lambdas", lambdas, "--field", field, "--seed", str(seed)]
    code, doc = run_json(argv)
    assert code == 0 and (doc["solutions"], doc["classes"]) == (6, 2), doc


def test_poly_classes_non_generic_degree_6_list():
    # forcing the last multiplier of -2, -3, -4, 8, 5 leaves 90 of the 120 configurations
    for p in (1000003, 998244353):
        argv = ["poly-classes", "-d", "6", "--lambdas=-2,-3,-4,8,5", "--field", f"GF:{p}"]
        code, doc = run_json(argv)
        assert code == 0
        assert (doc["solutions"], doc["classes"]) == (90, 18)


def test_sigma2_check_command():
    code, doc = run_json(["sigma2-check", "-d", "4", "--lambdas", "-5,5,4"])
    assert code == 0
    assert doc["lambdas"][-1] == "-7/5"
    assert doc["classes"] == 2 and doc["all_distinct"] is True


def test_p3_form_command():
    code, doc = run_json(["p3-form", "--lambdas", "1,1,1"])
    assert code == 0
    assert doc["candidates"] == [{"a": "1", "27b^2": "0"}]


def test_reconstruct_command():
    code, doc = run_json(["reconstruct", "--points", "0,1,inf", "--lambdas", "0,2,0"])
    assert code == 0
    assert map_from_document(doc["map"]) == parse_map_expr(QQ, "z^2")


def test_normal_form3_command():
    code, doc = run_json(
        ["normal-form3", "--l0", "-1", "--l1", "-1", "--linf", "-1", "--alpha", "2"]
    )
    assert code == 0 and doc["lalpha"] == "3"
    phi = map_from_document(doc["map"])
    assert multiplier_at_point(phi, ProjPoint.affine(QQ, Fraction(2)), 1) == Fraction(3)


def test_deg_tau32_command_seeded():
    code, text = run_command(["deg-tau32", "--seed", "7"])
    doc = json.loads(text)
    assert code == 0
    counts = (doc["bezout"], doc["distinct"], doc["degenerate"], doc["simple"], doc["degree"])
    assert counts == (144, 18, 6, 12, 12)
    assert [d["degree"] for d in doc["draws"]] == [12, 12, 12]
    assert run_command(["deg-tau32", "--seed", "7"]) == (code, text)


def test_deg_tau32_rejects_fields_too_small_to_sample():
    # the resultant of degree 144 is sampled at 145 nodes, so p must exceed 145
    code, doc = run_json(["deg-tau32", "--lambdas", "2,3,4,5", "--field", "GF:139"])
    assert code == 2 and "p > 145" in doc["error"]
    code, doc = run_json(["deg-tau32", "--lambdas", "2,3,4,5", "--field", "GF:101", "--budget", "10"])
    assert code == 2 and "p > 145" in doc["error"]


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_deg_tau32_needs_one_draw(draws):
    code, doc = run_json(["deg-tau32", "--draws", draws])
    assert code == 2 and doc["error"] == f"need at least 1 draw, got {draws}"


def test_deg_tau32_config_needs_one_draw(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment deg-tau32\ndraws 0\n")
    code, doc = run_json(["deg-tau32", "--config", str(cfg)])
    assert code == 2 and doc["error"] == "need at least 1 draw, got 0"


@pytest.mark.parametrize(
    "argv",
    [
        ["poly-classes", "-d", "1", "--lambdas", "2", "--field", "GF:101"],
        ["poly-classes", "-d", "0", "--lambdas", "2"],
        ["sigma2-check", "-d", "1", "--lambdas", "2"],
        ["sigma2-check", "-d", "-3", "--lambdas", "2"],
    ],
)
def test_affine_experiments_need_degree_2(argv):
    code, doc = run_json(argv)
    assert code == 2 and doc["error"] == "degree must be >= 2"


def test_config_file_matches_flags(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# quadratic sigma\nexperiment sigma\nfield QQ\nseed = 5\n")
    a = run_command(["sigma", "--config", str(cfg), "--map", "z^2+1"])
    b = run_command(["sigma", "--map", "z^2+1", "--field", "QQ", "--seed", "5"])
    assert a == b and a[0] == 0
    # explicit flags win over the file
    code, text = run_command(["sigma", "--config", str(cfg), "--map", "z^2+1", "--field", "GF:7"])
    assert code == 0 and json.loads(text)["map"]["field"] == "GF 7"
    code, doc = run_json(["tau", "--config", str(cfg), "--map", "z^2"])
    assert code == 2 and "not 'tau'" in doc["error"]
    code, doc = run_json(["sigma", "--config", str(tmp_path / "nope.cfg"), "--map", "z^2"])
    assert code == 2 and "cannot read config file" in doc["error"]


def test_exit_codes():
    cases = [
        (["sigma", "--map", "z^2", "--field", "GF:4"], 2),
        (["sigma"], 2),
        (["sigma", "--map", "z^2", "--num", "1,0,0"], 2),
        (["sigma", "--map", "z^2", "--sed", "3"], 2),
        (["sigma", "--map", "z^2+c"], 2),
        (["sigma", "--map", "z^2+c", "-c"], 2),
        (["p3-form", "--lambdas", "1,1,1", "-x", "2"], 2),
        (["deg-tau32", "--lambdas", "1,2,3,4"], 2),
        (["normal-form3", "--l0", "1", "--l1", "2", "--linf", "3", "--alpha", "5"], 1),
        (["reconstruct", "--points", "0,1,inf", "--lambdas", "3,3,3"], 1),
        (["deg-tau32", "--budget", "10"], 3),
        (["reproduce-paper", "--only", "5", "--budget", "10"], 3),
        (["reproduce-paper", "--only", "11", "--budget", "1"], 3),
        (["p3-form", "--lambdas", "0,0,0"], 1),
    ]
    for argv, want in cases:
        code, text = run_command(argv)
        assert code == want, (argv, text)
        assert "error" in json.loads(text)


def test_deg_tau32_budget_covers_every_draw():
    # at seed 0 each of the three draws certifies its first projection, so
    # the run takes 3 x 146 resultant samples under one limit
    argv = ["deg-tau32", "--draws", "3", "--seed", "0", "--budget"]
    assert run_json(argv + ["438"])[0] == 0
    code, doc = run_json(argv + ["437"])
    assert code == 3 and doc["kind"] == "budget"


QUINTIC = ["--num", "1,2,0,3,1,5", "--den", "0,1,4,0,2,1"]


@pytest.mark.parametrize(
    "field, n, spent, larger",
    [
        ("GF:10007", 3, 283, [["sigma", "-n", "4"], ["sigma", "-n", "6"], ["tau", "-n", "6"]]),
        ("QQ", 2, 324, [["sigma", "-n", "3"], ["sigma", "-n", "6"]]),
    ],
)
def test_budget_stops_sigma_and_tau_promptly(field, n, spent, larger):
    # `sigma -n n` on the quintic spends exactly `spent`; under that limit the
    # larger levels (seconds to minutes of work unmetered) exit 3 at once
    flags = QUINTIC + ["--field", field, "--budget"]
    assert run_json(["sigma", "-n", str(n)] + flags + [str(spent)])[0] == 0
    assert run_json(["sigma", "-n", str(n)] + flags + [str(spent - 1)])[0] == 3
    for argv in larger:
        start = time.perf_counter()
        code, doc = run_json(argv + flags + [str(spent)])
        assert code == 3 and doc["kind"] == "budget", argv
        assert time.perf_counter() - start < 5, argv


@pytest.mark.parametrize(
    "argv, spent",
    [
        (["relation", "--num", "4,7,6,-2,8,-7", "--den", "0,0,0,0,0,-9"], 40),
        (["relation", "--num", "3,1,4,1,5,9", "--den", "2,6,5,3,5,8", "--field", "GF:1000003"], 11),
        (["sigma", "-n", "2"] + QUINTIC + ["--field", "GF:1000003"], 58),
    ],
)
def test_multiplier_route_spends_exactly(argv, spent):
    # the work units of the multiplier route, pinned: that budget passes, one less exits 3
    assert run_json(argv + ["--budget", str(spent)])[0] == 0
    code, doc = run_json(argv + ["--budget", str(spent - 1)])
    assert code == 3 and doc["kind"] == "budget"


def test_reproduce_paper_only():
    code, doc = run_json(["reproduce-paper", "--only", "2"])
    assert code == 0 and doc["passed"] == 1 and doc["total"] == 1
    assert doc["criteria"][0]["result"] == "PASS"
    code, doc = run_json(["reproduce-paper", "--only", "99"])
    assert code == 2 and "no criterion 99" in doc["error"]
