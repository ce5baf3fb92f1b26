"""End-to-end acceptance: thirteen verification bundles, one test per
bundle, each driven through the named-claim registry so `pytest -v`
prints one pass/fail line per bundle.  Every assertion is an exact
equality over F_p."""

import json

import pytest

from modlie.claims import Ctx, resolve_claim


def check(cid, overrides=None):
    rows = resolve_claim(cid).rows(Ctx(), overrides)
    for r in rows:
        assert r["status"] == "pass", json.dumps(
            {"claim": r["claim"], "instance": r["instance"],
             "expected": r["expected"], "computed": r["computed"]},
            sort_keys=True, default=str)
    return rows


def test_01_basic_h2_of_w1():
    rows = check("h2-w1-basic")
    assert {r["instance"]["p"] for r in rows} == {5, 7}
    for r in rows:
        assert r["computed"] == {"dim": 1, "basic_cocycle_closed": True,
                                 "basic_cocycle_bounds": False}


def test_02_h1_and_h2_dimensions_of_w1n():
    h1 = check("dimh1-w1n")
    h2 = check("dimh2-w1n")
    assert [(r["instance"]["n"], r["computed"]) for r in h1] == [(1, 0),
                                                                 (2, 1)]
    assert [(r["instance"]["n"], r["computed"]) for r in h2] == [(1, 1),
                                                                 (2, 4)]


def test_03_kuznetsov_identification():
    rows = check("kuznetsov-iso")
    assert [r["instance"]["tensor"] for r in rows] == [False, True]
    assert all(r["computed"] is True for r in rows)


def test_04_deformed_algebra_h2_splits_into_four_lines():
    (row,) = check("lifted-h2")
    assert row["computed"] == {"summands": [1, 1, 1, 1], "sum": 4, "h2": 4}


def test_05_current_algebra_h2_splits_into_four_families():
    (row,) = check("h2-current-split")
    assert row["computed"] == {"summands": [5, 5, 5, 5], "sum": 20,
                               "h2": 20}


def test_h2_current_split_at_m_1_is_the_default_row():
    (row,) = check("h2-current-split")
    (at_m1,) = check("h2-current-split", {"m": 1})
    assert (row["instance"], at_m1["instance"]) == ({"p": 5},
                                                    {"p": 5, "m": 1})
    for key in ("expected", "computed", "status", "statement"):
        assert at_m1[key] == row[key]


@pytest.mark.slow
def test_h2_current_split_at_m_2():
    # summands [p^m, m p^m, m p^m, m p^m], total p^m (1 + 3m)
    (row,) = check("h2-current-split", {"m": 2})
    assert row["computed"] == {"summands": [25, 50, 50, 50], "sum": 175,
                               "h2": 175}


def test_06_cocycle_families_span_independent_classes():
    (row,) = check("class-independence")
    assert row["computed"] == {"theta": 5, "upsilon": 5, "psi": 5,
                               "phi": 5, "union": 20}


def test_07_lambda_coefficient_identities():
    rows = check("lambda-identities")
    assert {r["instance"]["p"] for r in rows} == {5, 7}
    assert all(r["computed"] == {"ok": True, "violations": 0} for r in rows)


def test_08_hochschild_and_harrison_structure():
    dims, cocycles = check("hochschild-harrison")
    assert dims["computed"] == {"hochschild_o1": [5, 5, 5],
                                "har2_by_m": [5, 50]}
    assert cocycles["computed"]["star_literal_zero"] == [True, False, True]
    assert cocycles["computed"]["star_class_zero"] == [True] * 3


@pytest.mark.slow
def test_08_hochschild_and_harrison_structure_at_p_7():
    dims, _ = check("hochschild-harrison", {"p": 7})
    assert dims["computed"] == {"hochschild_o1": [7, 7, 7],
                                "har2_by_m": [7, 98]}


def test_09_positive_h2_of_the_semidirect_sums():
    (w,) = check("h2plus-w1")
    (s,) = check("h2plus-sl2")
    assert w["computed"] == 1
    assert s["computed"] == 0


def test_positive_h2_claims_take_their_overrides():
    (w,) = check("h2plus-w1", {"p": 7})
    (s,) = check("h2plus-sl2", {"m": 2})
    assert (w["instance"], w["computed"]) == ({"p": 7, "m": 1}, 1)
    assert (s["instance"], s["computed"]) == ({"p": 5, "m": 2}, 0)


def test_10_massey_products_vanish_and_the_sum_integrates():
    (row,) = check("massey-certificates")
    assert row["computed"] == {"phi_sq_zero": True, "pairwise_zero": True,
                               "jacobi": True}


def test_11_simplicity_and_structure_probes():
    ideals, structure = check("simplicity-suite")
    assert ideals["computed"] == {"deformed": None, "current": 20,
                                  "undeformed": 20}
    for probe in structure["computed"]:
        assert probe["center"] == 0
        assert probe["perfect"] is True
        assert probe["solvable"] is False
        assert probe["outer_intersection"] == 0


def test_12_nonzero_weight_and_offgrid_degree_slices_vanish():
    (row,) = check("vanishing-slices")
    assert len(row["computed"]) == 7
    assert all(c["dim"] == 0 for c in row["computed"])


def test_13_trivial_coefficients_scale_by_dim_a():
    (row,) = check("trivial-coefficients")
    assert row["computed"] == {"current": 5, "base": 1,
                               "ratio_is_dimA": True}


@pytest.mark.slow
def test_p_only_claims_compute_their_expected_values_from_p():
    (split,) = check("h2-current-split", {"p": 7})
    assert split["computed"] == {"summands": [7] * 4, "sum": 28, "h2": 28}
    (triv,) = check("trivial-coefficients", {"p": 7})
    assert triv["computed"]["current"] == 7
    ideals, _ = check("simplicity-suite", {"p": 7})
    assert ideals["computed"]["current"] == 42
    (row,) = check("vanishing-slices", {"p": 7})
    assert [c["degree"] for c in row["computed"] if "degree" in c] == [1, 3, 9]


@pytest.mark.slow
def test_massey_and_kuznetsov_claims_at_the_next_height():
    (row,) = check("massey-certificates", {"m": 2})
    assert row["computed"] == {"phi_sq_zero": True, "pairwise_zero": True,
                               "jacobi": True}
    rows = check("kuznetsov-iso", {"n": 3})
    assert [r["instance"]["n"] for r in rows] == [3, 3]
    assert all(r["computed"] is True for r in rows)


def test_lifted_h2_expects_one_plus_three_m():
    # at m = 2 the summands are [1, m, m, m] and the total 1 + 3m, which
    # is dim H^2(W_1(m + 1)) by the Kuznetsov isomorphism
    (row,) = check("lifted-h2", {"p": 5, "m": 2})
    assert row["computed"] == {"summands": [1, 2, 2, 2], "sum": 7, "h2": 7}


@pytest.mark.slow
def test_h2_claims_at_p_eleven():
    # weight-zero H^2 on 79 860 columns each, past the p <= 7 rows
    (row,) = check("lifted-h2", {"p": 11, "m": 1})
    assert row["computed"] == {"summands": [1, 1, 1, 1], "sum": 4, "h2": 4}
    (row,) = check("dimh2-w1n", {"p": 11, "n": 2})
    assert row["computed"] == 4
    (row,) = check("h2-current-split", {"p": 11})
    assert row["computed"] == {"summands": [11] * 4, "sum": 44, "h2": 44}
    # and on 184 548 columns at p = 13
    (row,) = check("h2-current-split", {"p": 13})
    assert row["computed"] == {"summands": [13] * 4, "sum": 52, "h2": 52}
