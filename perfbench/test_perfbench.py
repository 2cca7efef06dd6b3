"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _documents(name: str, seed: int) -> bytes:
    rounds = wk.WORKLOADS[name].rounds(seed)
    return "".join(req.document for rnd in itertools.islice(rounds, 2)
                   for req in rnd).encode()


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_seed_fixes_request_documents(name):
    assert _documents(name, 7) == _documents(name, 7)
    assert _documents(name, 7) != _documents(name, 8)


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_rounds_fill_the_same_slots_with_fresh_inputs(name):
    a, b = itertools.islice(wk.WORKLOADS[name].rounds(3), 2)
    kinds = {r.ident: r.kind for r in a}
    assert sorted(kinds) == list(range(len(a)))
    assert {r.ident: r.kind for r in b} == kinds
    assert {r.document for r in a}.isdisjoint(r.document for r in b)


def test_power_log_exponents_stay_in_their_windows():
    rng = random.Random(5)
    for stratum in range(wk.QUERY_STRATA):
        windows = wk.EXPONENTS_ABOVE_0 if stratum >= 3 \
            else wk.EXPONENTS_BELOW_0
        for r in range(300):
            f = wk.power_log(rng, wk.pw.HALFLINE, stratum, r)
            (term,) = f.pieces[0].terms
            a, k = term.alpha, term.logpow
            assert k == stratum % 3
            assert any(lo <= a <= hi for lo, hi in windows), a


def test_step_slots_fix_piece_count_and_order():
    rng = random.Random(5)
    for pieces in range(1, 7):
        for rising in (False, True):
            f = wk.step_function(rng, wk.pw.HALFLINE, pieces, True, rising)
            assert len(f.pieces) == pieces + 1
            sizes = [abs(p.terms[0].coeff) for p in f.pieces[:-1]]
            assert sizes == sorted(sizes, reverse=not rising)


def test_left_out_inputs_are_not_requested():
    assert not {X.describe() for X in wk.verify_spaces()} & \
        set(wk.VERIFY_LEFT_OUT)
    for req in next(wk.WORKLOADS["crosscheck"].rounds(1)):
        if req.kind == "adversarial":
            assert req.payload["entry"].label not in wk.ADVERSARIAL_LEFT_OUT


# the first requests of seed 1; crosscheck skips its adversarial searches,
# which are exercised by the traced run below
FEW = {"queries": 6, "crosscheck": 6, "verify": 3}


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_a_few_requests_pass_their_checks(name):
    wl = wk.WORKLOADS[name]
    reqs = [r for r in next(wl.rounds(1)) if r.kind != "adversarial"]
    for req in reqs[:FEW[name]]:
        assert wl.check(req, wl.execute(req)) is None, req.document


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    units = run.per_layer_units()
    assert [m["name"] for m in SPEC["per_layer"]] == list(units)
    for m in SPEC["per_layer"]:
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(wk.WORKLOADS)


def test_tracer_restores_the_library():
    from cesarospaces import norms, piecewise
    before = (norms.norm, piecewise.evaluate)
    t = tr.Tracer()
    t.install()
    assert norms.norm is not before[0]
    t.uninstall()
    assert (norms.norm, piecewise.evaluate) == before


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_pass_counts_exceptions_and_wrong_answers():
    def rounds(seed):
        while True:
            yield [wk.Request(kind, i, kind)
                   for i, kind in enumerate(("ok", "raises", "wrong"))]

    def execute(req):
        if req.kind == "raises":
            raise ValueError("boom")
        return req.kind

    def check(req, out):
        return "bad answer" if out == "wrong" else None

    p = run.Pass().run(wk.Workload("fake", rounds, execute, check), 0, 0.0)
    assert p.rounds == wk.CYCLE_ROUNDS
    assert p.attempted == len(p.latencies) == 3 * wk.CYCLE_ROUNDS
    assert [group for group, _ in p.failures[:2]] == [
        "raises: raised ValueError", "wrong: wrong answer"]
    assert len(p.failures) == 2 * wk.CYCLE_ROUNDS


def test_traced_run_emits_every_per_layer_metric(capsys):
    assert run.main(["--workload", "queries", "--seed", "1",
                     "--seconds", "0.2", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
    for name in ("piecewise.self_s", "documents.calls", "cli.self_s",
                 "oracle.self_s", "oc.route.adversarial.s",
                 "trace.overhead", "setup.import_s", "cli.cold_start_s"):
        assert result["metrics"][name]["value"] > 0.0, name


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "queries", "--seed", "1",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, m in result["metrics"].items():
        assert m["value"] > 0.0, name
    assert result["attempted"] >= 1
