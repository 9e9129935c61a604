"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is an exact
(zero-tolerance) rational equality; there are no numeric tolerances to pin.
"""

import functools
import json
import math
from fractions import Fraction as F

from dops.cli import main as cli_main
from dops.families import (
    HypParams,
    LagParams,
    MLParams,
    hyp_laguerre,
    hyp_quasi,
    ml_by_gf,
    ml_by_recurrence,
    q_sequence,
)
from dops.hyp_suites import verify_hyp_lincomb
from dops.identities import FamilySetup
from dops.ml_suites import (
    verify_de,
    verify_moment_recursion,
    verify_nccd,
    verify_sr2,
    verify_sr_block,
    verify_sz4,
    verify_sz5,
)
from dops.orthogonality import (
    check_regularity,
    expand_in_basis,
    fit_recurrence,
    moments_by_inversion,
    quasi_orthogonality_order,
    verify_d_orthogonality,
)
from dops.polynomials import Poly, delta_w

from oracles import egf_extract, exp_by_convolution, series_log1p_scaled

X = Poly.x()

ML_SETS = {
    1: [MLParams(1, 1, -1), MLParams(1, 2, F(1, 2)), MLParams(1, 0, -1),
        MLParams(1, F(1, 3), F(-2, 5))],
    2: [MLParams(2, 1, -1, [1]), MLParams(2, 2, F(1, 2), [F(-1, 3)]),
        MLParams(2, 0, -1, [F(1, 2)])],
    3: [MLParams(3, 1, -1, [1, F(1, 2)]), MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
        MLParams(3, 0, -1, [F(1, 2), -1])],
}
ML_ALL = [p for plist in ML_SETS.values() for p in plist]

LAG_SETS = {
    1: [LagParams(1, 1), LagParams(1, 1, -1), LagParams(1, F(-2, 3), F(1, 2), 0, [1])],
    2: [LagParams(2, F(1, 2), F(-3, 2), 0, [1, F(1, 3)]), LagParams(2, 1, -2, F(1, 2), [0, 1]),
        LagParams(2, 2, F(1, 4), 0, [0, F(-1, 2)])],
    3: [LagParams(3, F(2, 3), F(5, 4), F(-1, 3), [1, F(1, 2), F(-2, 5)]),
        LagParams(3, 1, -1, 0, [0, 1, F(1, 3)]), LagParams(3, F(1, 2), 0, 1, [0, F(1, 2), 1])],
}


def criterion(num, desc=""):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc}")
        return wrapper
    return deco


@criterion(1, desc="recurrence and generating-function routes agree on every parameter set")
def test_criterion_1_oracle_equivalence():
    for d, plist in ML_SETS.items():
        assert len(plist) >= 3
        for p in plist:
            assert ml_by_recurrence(p, 15) == ml_by_gf(p, 15), p
    for d, plist in LAG_SETS.items():
        assert len(plist) >= 3
        for p in plist:
            assert ml_by_recurrence(p, 12) == ml_by_gf(p, 12), p


@criterion(2, desc="classical specialization matches the independent series oracle")
def test_criterion_2_classical_specialization():
    # exp((x/2) log((1+t)/(1-t))) expanded independently of the family code
    logs = zip(series_log1p_scaled(-1, 6), series_log1p_scaled(1, 6))
    oracle = egf_extract(exp_by_convolution([(lb - la) * (X / 2) for lb, la in logs]))
    expected = [Poly.one(), X, Poly([0, 0, 1]), Poly([0, 2, 0, 1]), Poly([0, 0, 8, 0, 1])]
    assert oracle[:5] == expected
    assert ml_by_recurrence(MLParams(1, 1, -1), 6) == oracle


@criterion(3, desc="companion sequences satisfy the shifted band recurrence with the "
                   "predicted coefficient shift")
def test_criterion_3_hahn_property():
    for p in ML_ALL:
        n_max = 13
        polys = ml_by_recurrence(p, n_max)
        q = q_sequence(polys, lambda f: delta_w(f, p.w))
        alpha, beta = p.alpha, p.beta
        for n in range(12):
            nxt = (X + Poly.const((alpha + beta) * n + p.exponent(1) + alpha)) * q[n]
            if n >= 1:
                nxt -= q[n - 1] * (n * (n * alpha * beta + (alpha + beta) * p.exponent(1)
                                        - p.exponent(2)))
            for k in range(2, min(n, p.d) + 1):
                coef = (p.exponent(k + 1) - (alpha + beta) * k * p.exponent(k)
                        + alpha * beta * k * (k - 1) * p.exponent(k - 1))
                nxt += q[n - k] * (math.comb(n, k) * coef)
            assert q[n + 1] == nxt, (p, n)
        p_table = fit_recurrence(polys, p.d)
        q_table = fit_recurrence(q, p.d)
        for n in range(len(q_table.beta)):
            assert q_table.beta[n] == p_table.beta[n] - alpha
        for (m, k), value in q_table.gamma.items():
            if k == p.d - 1:
                assert value == p_table.gamma_at(m, k) + m * alpha * beta
            else:
                assert value == p_table.gamma_at(m, k)


@criterion(4, desc="connection and structure relations hold exactly on every parameter set")
def test_criterion_4_connection_and_structure():
    for p in ML_ALL:
        setup = FamilySetup("ml", 13, p)
        assert verify_nccd(setup)[0].status == "pass", p
        for rep in verify_sr_block(setup):
            assert rep.status == "pass", (p, rep.identity, rep.witness)
        (rep,) = verify_sr2(setup)
        if p.d >= 2 and p.alpha != 0:
            assert rep.status == "pass", (p, rep.witness)
        else:
            assert rep.status == "not-applicable"


@criterion(5, desc="difference equations hold at every admissible depth for d <= 3")
def test_criterion_5_difference_equations():
    for p in ML_ALL:
        setup = FamilySetup("ml", 13, p)
        for k in range(0, p.d + 1):
            rep = verify_de(setup, k)
            assert rep.status == "pass", (p, k, rep.witness)
        rep = verify_de(setup)
        assert rep.status == "pass", (p, rep.witness)


@criterion(6, desc="orthogonality pattern reproduced; the degenerate case flags exactly m = 0")
def test_criterion_6_orthogonality_pattern():
    p = MLParams(2, 1, -1, [1])
    polys = ml_by_recurrence(p, 10)
    table = moments_by_inversion(polys, 2)
    report = verify_d_orthogonality(polys, table)
    assert not report.zero_failures and not report.regularity_failures
    assert not check_regularity(fit_recurrence(polys, 2))

    degenerate = ml_by_recurrence(MLParams(1, 1, -1), 10)
    assert check_regularity(fit_recurrence(degenerate, 1)) == [0]


@criterion(7, desc="hypergeometric connections verify and the quasi-orthogonality "
                   "order is detected exactly")
def test_criterion_7_hypergeometric_connections():
    for d in (1, 2):
        beta = F(1, 5)
        for l in (1, 2):
            p = HypParams(d, [F(1, 2), F(4, 3)][:d], beta, l)
            (rep,) = verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p))
            assert rep.status == "pass", (d, l, rep.witness)
            assert any("reduction" in note for note in rep.notes)
            basis = hyp_laguerre(p, 8)
            expansions = [expand_in_basis(q, basis) for q in hyp_quasi(p, 8)]
            assert quasi_orthogonality_order(expansions, d) == (l, True)


@criterion(8, desc="reconciliation suite validates a documented interpretation of every "
                   "ambiguous identity")
def test_criterion_8_reconciliation():
    (rep,) = verify_sz5(FamilySetup("ml", 8, MLParams(1, 1, -1)))
    assert rep.status == "pass"
    assert any("repaired form pinned" in note for note in rep.notes)
    for p in [MLParams(2, 1, -1, [1]), MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
              MLParams(2, 0, -1, [F(1, 2)])]:
        setup = FamilySetup("ml", 8, p)
        (rep,) = verify_sz4(setup)
        assert rep.status == "pass", rep.witness
        assert any("pinned" in note for note in rep.notes)
        (rep,) = verify_moment_recursion(setup)
        assert rep.status == "pass", rep.witness
        assert any("pinned" in note for note in rep.notes)


@criterion(9, desc="CLI round trip is byte-identical and the exit-code contract holds")
def test_criterion_9_cli_round_trip(tmp_path, capsys):
    table = tmp_path / "table.json"
    direct = tmp_path / "direct.json"
    rerun = tmp_path / "table_mode.json"
    base = ["--family", "ml", "--d", "2", "--alpha", "1", "--beta", "-1",
            "--c", "1", "--order", "9"]
    assert cli_main(["gen", *base, "--out", str(table)]) == 0
    assert cli_main(["verify", *base, "--out", str(direct)]) == 0
    assert cli_main(["verify", "--from-table", str(table), "--out", str(rerun)]) == 0
    assert direct.read_bytes() == rerun.read_bytes()

    # warning case: non-regular d = 1 family still exits 0, with a warning
    assert cli_main(["verify", "--family", "ml", "--d", "1", "--alpha", "1", "--beta", "-1",
                     "--order", "8", "--suites", "regularity", "--out", str(tmp_path / "w.json")]) == 0
    warn_artifact = json.loads((tmp_path / "w.json").read_text())
    assert warn_artifact["summary"]["warnings"] == 1
    assert warn_artifact["summary"]["fail"] == 0

    # invalid-parameter case
    assert cli_main(["gen", "--family", "ml", "--d", "1", "--alpha", "1", "--beta", "1",
                     "--order", "4"]) == 2
    capsys.readouterr()
