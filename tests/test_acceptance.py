"""Acceptance criteria, one test per criterion.

Each test is self-contained, prints one PASS line when it survives its
assertions, and enforces the stated runtime budget where one applies.
Tolerances are pinned here on purpose; loosening them is a contract
change, not a test fix.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from cesarospaces import catalog as cat
from cesarospaces import cesaro as cz
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import oracle as orc
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.errors import NotInSpaceError
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U, chi

SEED = 20260819


def nonzero_steps(rng: random.Random, domain, count: int, **kw):
    out = []
    while len(out) < count:
        f = cat.random_step_function(rng, domain, **kw)
        if not f.is_zero:
            out.append(f)
    return out


def test_criterion_01_transform_formula_is_exact():
    t0 = time.monotonic()
    for a in (0.25, 1.0, 10.0):
        f = chi(H, 0.0, a)
        expected = pw.make_ppl(H, [(0.0, a, {(0.0, 0): 1.0}),
                                   (a, INF, {(-1.0, 0): a})])
        cf = cz.cesaro_transform(f)
        assert cf == expected, f"symbolic mismatch for a={a}"
        for t in pw.sample_grid(cf, 64):
            assert abs(pw.evaluate(cf, t) - pw.evaluate(expected, t)) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print("CRITERION 1 PASS: averaging transform of head indicators "
          "is symbolically exact")


def test_criterion_02_averaged_l2_norm_reference_value():
    X = sp.cesaro_space(sp.lebesgue(2.0, H))
    f = chi(H, 0.0, 1.0)
    exact = nm.norm(f, X).value
    assert abs(exact - math.sqrt(2.0)) <= 1e-9
    report = orc.quadrature_norm_oracle(f, X)
    assert abs(report.oracle - math.sqrt(2.0)) <= 1e-7
    assert report.passed
    print("CRITERION 2 PASS: averaged L2 norm of the head indicator "
          "is sqrt(2) on both routes")


def test_criterion_03_averaged_l1_identities():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    X_h = sp.cesaro_space(sp.lebesgue(1.0, H))
    for f in nonzero_steps(rng, H, 20):
        assert math.isinf(nm.norm(f, X_h).value)
    X_u = sp.cesaro_space(sp.lebesgue(1.0, U))
    w = pw.make_ppl(U, [(0.0, 1.0, {(0.0, 1): -1.0})])  # ln(1/t)
    for f in nonzero_steps(rng, U, 100):
        expected = pw.integrate(pw.product(pw.absolute(f), w))
        got = nm.norm(f, X_u).value
        assert abs(got - expected) <= 1e-10 * (1.0 + abs(expected))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    print("CRITERION 3 PASS: averaged L1 collapses on the half-line and "
          "matches the log weight on the unit interval")


def test_criterion_04_comparison_chain_on_random_steps():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    for f in nonzero_steps(rng, H, 200, signed=True):
        report = cz.fact1_check(f)
        assert report.passed, report.min_slack
        assert min(report.min_slack.values()) >= -1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    print("CRITERION 4 PASS: transform comparison chain holds pointwise "
          "for 200 signed step functions")


def test_criterion_05_averaging_operator_bounds():
    rng = random.Random(SEED + 2)
    fs = nonzero_steps(rng, H, 100, signed=False)
    for p in (1.5, 2.0, 4.0):
        X = sp.lebesgue(p, H)
        bound = p / (p - 1.0)
        for f in fs:
            lhs = nm.norm(cz.cesaro_transform(f), X).value
            rhs = bound * nm.norm(f, X).value
            assert lhs <= rhs * (1.0 + 1e-9)
    assert nm.cesaro_bounded(sp.lebesgue(1.0, H)).bounded is False
    assert nm.cesaro_bounded(sp.lebesgue(2.0, H)).bounded is True
    assert nm.cesaro_bounded(sp.lebesgue_inf(H)).bounded is True
    print("CRITERION 5 PASS: averaging operator respects the conjugate "
          "exponent bound and the boundedness table")


def test_criterion_06_norms_are_rearrangement_invariant():
    rng = random.Random(SEED + 3)
    spaces = [sp.lebesgue(2.0, H), sp.l1_plus_linf(H),
              sp.orlicz_space(cat.orlicz_square(), H),
              sp.lorentz_space(cat.sqrt_phi(H)),
              sp.marcinkiewicz_space(cat.sqrt_phi(H))]
    for f in nonzero_steps(rng, H, 50, signed=True):
        g = rr.decreasing_rearrangement(f).exact
        for X in spaces:
            a = nm.norm(f, X)
            b = nm.norm(g, X)
            tol = 1e-12 if a.method == b.method == "exact" else 1e-8
            assert abs(a.value - b.value) <= tol * (1.0 + abs(a.value)), \
                (X.describe(), a, b)
    print("CRITERION 6 PASS: norms agree on equimeasurable rearrangements "
          "across the catalog families")


def test_criterion_07_core_triviality_and_fundamental_functions():
    trivial = {X.describe(): nm.xa_trivial(X) for X in cat.default_catalog(U)}
    for name, flag in trivial.items():
        if name == "Linf[0,1]":
            assert flag is True, trivial
        else:
            assert flag is not True, trivial
    LINF_U = sp.lebesgue_inf(U)
    L2_U = sp.lebesgue(2.0, U)
    grid = [2.0 ** -k for k in range(1, 21)]
    assert all(nm.fundamental_function(LINF_U, t) == 1.0 for t in grid)
    l2_vals = [nm.fundamental_function(L2_U, t) for t in grid]
    assert all(a > b for a, b in zip(l2_vals, l2_vals[1:]))
    assert l2_vals[-1] < 1e-3
    print("CRITERION 7 PASS: only the essential-sup space has a trivial "
          "continuity core; fundamental functions behave at zero")


def test_criterion_08_verdict_tables():
    t0 = time.monotonic()
    ces = sp.cesaro_space

    # power family: continuous exactly below the essential-sup endpoint
    space_rows = [
        (ces(sp.lebesgue(1.5, H)), "OC", "averaged-power/space"),
        (ces(sp.lebesgue(2.0, H)), "OC", "averaged-power/space"),
        (ces(sp.lebesgue(4.0, H)), "OC", "averaged-power/space"),
        (ces(sp.lebesgue_inf(H)), "not-OC", "averaged-power/space"),
        (ces(sp.lebesgue(1.0, H)), "trivial-space",
         "trivial-space/tail-membership"),
        (ces(sp.lebesgue(1.0, U)), "OC", "weighted-l1-identity"),
        # averaged Lorentz: four parameter shapes
        (ces(sp.lorentz_space(cat.sqrt_phi(H))), "OC",
         "averaged-lorentz/space"),
        (ces(sp.lorentz_space(cat.sqrt_plus_atom_phi(H))), "not-OC",
         "averaged-lorentz/space"),
        (ces(sp.lorentz_space(cat.bounded_sqrt_phi(H))), "not-OC",
         "averaged-lorentz/space"),
        (ces(sp.lorentz_space(cat.atom_phi(H))), "not-OC",
         "averaged-lorentz/space"),
        # averaged weak space whose lower dilation index is above 1
        (ces(sp.marcinkiewicz_space(cat.sqrt_phi(H))), "not-OC",
         "averaged-marcinkiewicz/space"),
        # averaged Orlicz: unbounded, capped, degenerate generators
        (ces(sp.orlicz_space(cat.orlicz_square(), H)), "OC",
         "averaged-orlicz/space"),
        (ces(sp.orlicz_space(cat.orlicz_square_capped(), H)), "not-OC",
         "averaged-orlicz/space"),
        (ces(sp.orlicz_space(cat.orlicz_flat_capped(), H)), "not-OC",
         "averaged-orlicz/space"),
    ]
    for X, want_verdict, want_rule in space_rows:
        v = oc.oc_space(X)
        assert v.verdict == want_verdict, (X.describe(), v)
        assert v.rule == want_rule, (X.describe(), v)

    # the four Lorentz rows fire through four distinct base facts
    base_rules = [oc.oc_space(ces(sp.lorentz_space(q))).evidence["base_rule"]
                  for q in (cat.sqrt_phi(H), cat.sqrt_plus_atom_phi(H),
                            cat.bounded_sqrt_phi(H), cat.atom_phi(H))]
    assert base_rules == ["lorentz-continuity", "fundamental-atom",
                          "lorentz-continuity", "fundamental-atom"]

    # point rows: averaged Orlicz generator shapes, by rule tag
    head = chi(H, 0.0, 1.0)
    point_rows = [
        (head, ces(sp.orlicz_space(cat.orlicz_square(), H)), "OC",
         "averaged-orlicz/unbounded-generator"),
        (head, ces(sp.orlicz_space(cat.orlicz_square_capped(), H)),
         "not-OC", "averaged-orlicz/capped-generator"),
        (head, ces(sp.orlicz_space(cat.orlicz_flat_capped(), H)),
         "not-OC", "averaged-orlicz/degenerate-generator"),
        # averaged sum space: the tail average of the transform decides
        (head, ces(sp.l1_plus_linf(H)), "OC",
         "averaged-sum-space/tail-average"),
        (pw.step_function(H, [(0.0, INF, 1.0)]), ces(sp.l1_plus_linf(H)),
         "not-OC", "averaged-sum-space/tail-average"),
    ]
    for f, X, want_verdict, want_rule in point_rows:
        v = oc.oc_point(f, X)
        assert v.verdict == want_verdict, (X.describe(), v)
        assert v.rule == want_rule, (X.describe(), v)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    print("CRITERION 8 PASS: verdict tables and rule tags reproduce the "
          "family propositions")


def test_criterion_09_battery_oracle_agreement():
    battery = cat.default_battery()
    assert len(battery) >= 30
    failures = []
    for e in battery:
        try:
            v = oc.oc_point(e.f, e.space, method="closed-form")
            got = v.verdict
            if e.rule is not None and v.rule != e.rule:
                failures.append((e.label, f"rule {v.rule} != {e.rule}"))
        except NotInSpaceError:
            got = "not-in-space"
        if got != e.expect:
            failures.append((e.label, f"verdict {got} != {e.expect}"))
            continue
        if e.expect in ("OC", "not-OC"):
            d = oc.oc_point(e.f, e.space, method="direct")
            if d.is_oc is not None and d.verdict != e.expect:
                failures.append((e.label, f"direct contradicts: {d.verdict}"))
            if e.expect == "OC":
                rep = oc.adversarial_family_search(e.f, e.space,
                                                   budget=60, seed=3)
                if rep.found:
                    failures.append((e.label, f"witness {rep.witness}"))
        if e.oracle:
            rep = orc.quadrature_norm_oracle(e.f, e.space, e.label)
            if not rep.passed:
                failures.append((e.label, rep.row()))
        rrep = orc.rearrangement_oracle(e.f)
        if not rrep.passed:
            failures.append((e.label, rrep.row()))
    assert not failures, failures
    print(f"CRITERION 9 PASS: {len(battery)} battery pairs with no "
          "cross-method contradictions and no oracle failures")


def test_criterion_10_boundedness_transfers_continuity():
    checked = 0
    for domain in (H, U):
        for X in cat.default_catalog(domain):
            verdict = nm.cesaro_bounded(X)
            if verdict.bounded is not True:
                continue
            base = oc.oc_space(X)
            averaged = oc.oc_space(sp.cesaro_space(X))
            assert averaged.is_oc == base.is_oc, \
                (X.describe(), base, averaged)
            transfer = oc.oc_space_via_transfer(sp.cesaro_space(X))
            assert transfer.is_oc == base.is_oc
            checked += 1
    assert checked >= 8
    print(f"CRITERION 10 PASS: averaged-space continuity matches the base "
          f"space for all {checked} boundedly averaged catalog spaces")
