"""End-to-end command handling: exit codes, documents, golden outputs."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import pytest

from cesarospaces import cli
from cesarospaces import documents as dc
from cesarospaces import oc
from cesarospaces import piecewise as pw
from cesarospaces import spaces as sp
from cesarospaces.piecewise import INF
from support import HALFLINE as H, UNIT as U

GOLDEN = pathlib.Path(__file__).parent / "golden" / "v1"


@pytest.fixture
def docs(tmp_path):
    """Input documents shared by the command tests."""

    def put(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return {
        "chi01": put("chi01.json", dc.dump_function(pw.indicator(H, 0.0, 1.0))),
        "const": put("const.json", dc.dump_function(
            pw.step_function(H, [(0.0, INF, 1.0)]))),
        "hyper": put("hyper.json", dc.dump_function(
            pw.power_piece(H, 0.0, 1.0, 1.0, -1.0))),
        "quart": put("quart.json", dc.dump_function(
            pw.power_piece(H, 0.0, 1.0, 1.0, -0.25))),
        "growing": put("growing.json", dc.dump_function(
            pw.power_piece(H, 0.0, INF, 1.0, 1.0))),
        "l2": put("l2.json", dc.dump_space(sp.lebesgue(2.0, H))),
        "ces2": put("ces2.json", dc.dump_space(
            sp.cesaro_space(sp.lebesgue(2.0, H)))),
        "cesinf": put("cesinf.json", dc.dump_space(
            sp.cesaro_space(sp.lebesgue_inf(H)))),
        "bad": put("bad.json", "{broken"),
        "out": str(tmp_path / "out.txt"),
    }


def read_out(docs) -> str:
    return pathlib.Path(docs["out"]).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# exit code contract


def test_norm_exits_clean(docs):
    code = cli.main(["norm", "--function", docs["chi01"],
                     "--space", docs["ces2"], "--out", docs["out"]])
    assert code == 0
    doc = dc.loads(read_out(docs))
    assert doc["operation"] == "norm"
    assert doc["value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_parse_failure_exits_2(docs, capsys):
    code = cli.main(["norm", "--function", docs["bad"],
                     "--space", docs["l2"]])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("interval", [[2, 1], [1, 1]])
def test_empty_or_inverted_interval_exits_2(docs, tmp_path, capsys, interval):
    path = tmp_path / "inverted.json"
    path.write_text(dc.dumps({
        "schema": dc.FUNCTION_SCHEMA, "domain": "halfline",
        "pieces": [{"interval": interval,
                    "terms": [{"c": 1, "alpha": 0, "logpow": 0}]}]}),
        encoding="utf-8")
    code = cli.main(["norm", "--function", str(path), "--space", docs["l2"],
                     "--out", docs["out"]])
    assert code == 2
    assert "empty or inverted" in capsys.readouterr().err


@pytest.mark.parametrize("pieces", [
    [(0.0, 3.0, {(0.5, 0): 1.0}), (3.5, INF, {(0.5, 0): 1.0})],
    [(0.0, 2.0 ** 30, {(0.5, 0): 1.0})]], ids=["gap", "short"])
def test_gapped_parameter_function_exits_2(docs, tmp_path, capsys, pieces):
    # built without validation, as a hand-written document would carry it
    phi = pw.make_ppl(H, pieces)
    X = sp.SpaceDescriptor("cesaro", H, inner=sp.SpaceDescriptor(
        "marcinkiewicz", H, quasi=sp.QuasiConcaveSpec(phi)))
    path = tmp_path / "gapped.json"
    path.write_text(dc.dump_space(X), encoding="utf-8")
    code = cli.main(["norm", "--function", docs["chi01"], "--space",
                     str(path), "--out", docs["out"]])
    assert code == 2
    assert "must cover" in capsys.readouterr().err


def test_parameter_function_growing_faster_than_t_exits_2(docs, tmp_path,
                                                          capsys):
    # t, then 2**-21 t**2: quasi-concave at every probe, t**2 at infinity
    phi = pw.make_ppl(H, [(0.0, 2.0 ** 21, {(1.0, 0): 1.0}),
                          (2.0 ** 21, INF, {(2.0, 0): 2.0 ** -21})])
    X = sp.SpaceDescriptor("cesaro", H, inner=sp.SpaceDescriptor(
        "lorentz", H, quasi=sp.QuasiConcaveSpec(phi)))
    path = tmp_path / "steep.json"
    path.write_text(dc.dump_space(X), encoding="utf-8")
    code = cli.main(["norm", "--function", docs["chi01"], "--space",
                     str(path), "--out", docs["out"]])
    assert code == 2
    assert "0 <= a <= 1" in capsys.readouterr().err


@pytest.mark.parametrize("declared,code", [
    (None, 0), (2.0, 0), (2.0 + 1e-12, 0), (3.0, 2), ("inf", 2)])
def test_declared_boyd_index_must_match_phi(docs, tmp_path, capsys,
                                            declared, code):
    # older documents carry boyd_lower; the index read off sqrt(t) is 2
    doc = dc.space_to_doc(sp.cesaro_space(sp.marcinkiewicz_space(
        sp.QuasiConcaveSpec(pw.power_piece(H, 0.0, INF, 1.0, 0.5)))))
    doc["inner"]["parameter"].update(boyd_lower=declared, boyd_upper=None)
    path = tmp_path / "declared.json"
    path.write_text(dc.dumps(doc), encoding="utf-8")
    got = cli.main(["oc-space", "--space", str(path), "--out", docs["out"]])
    assert got == code
    if code:
        assert "boyd_lower" in capsys.readouterr().err
    else:
        assert '"verdict": "not-OC"' in read_out(docs)


def test_module_entry_point_runs_the_cli(docs):
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "cesarospaces", "norm", "--function",
         docs["chi01"], "--space", docs["ces2"]],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert dc.loads(proc.stdout)["value"] == pytest.approx(math.sqrt(2.0),
                                                           abs=1e-9)


def test_bad_grid_exits_2(docs, capsys):
    code = cli.main(["cesaro", "--function", docs["chi01"],
                     "--grid", "0.5,-1.0"])
    assert code == 2
    capsys.readouterr()


def test_undefined_transform_exits_3(docs, capsys):
    code = cli.main(["norm", "--function", docs["hyper"],
                     "--space", docs["ces2"]])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_not_rearrangeable_exits_3(docs, capsys):
    code = cli.main(["rearrange", "--function", docs["growing"]])
    assert code == 3
    capsys.readouterr()


def test_inapplicable_method_exits_4(docs, capsys):
    code = cli.main(["oc-space", "--space", docs["l2"],
                     "--method", "transfer"])
    assert code == 4
    capsys.readouterr()


def test_verify_tolerance_override_exits_1(docs):
    code = cli.main(["verify", "--function", docs["quart"],
                     "--space", docs["l2"], "--tol", "0.0",
                     "--out", docs["out"]])
    assert code == 1
    table = read_out(docs)
    assert table.splitlines()[0] == "check,exact,oracle,tolerance,status"
    assert "MISMATCH" in table


def test_verify_passes_at_stated_tolerances(docs):
    code = cli.main(["verify", "--function", docs["quart"],
                     "--space", docs["l2"], "--out", docs["out"]])
    assert code == 0
    assert "MISMATCH" not in read_out(docs)


def test_verify_reads_tolerance_from_environment(docs, monkeypatch):
    monkeypatch.setenv(cli.TOL_ENV, "0.0")
    code = cli.main(["verify", "--function", docs["quart"],
                     "--space", docs["l2"], "--out", docs["out"]])
    assert code == 1


def test_bad_environment_tolerance_exits_2(docs, monkeypatch, capsys):
    monkeypatch.setenv(cli.TOL_ENV, "very-small")
    code = cli.main(["verify", "--function", docs["quart"],
                     "--space", docs["l2"]])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command output shapes


def test_rearrange_outputs_samples(docs):
    code = cli.main(["rearrange", "--function", docs["chi01"],
                     "--grid", "0.25,0.5,2.0", "--out", docs["out"]])
    assert code == 0
    doc = dc.loads(read_out(docs))
    assert doc["operation"] == "rearrange"
    assert [s[1] for s in doc["samples"]] == [1.0, 1.0, 0.0]


def test_cesaro_outputs_exact_and_samples(docs):
    code = cli.main(["cesaro", "--function", docs["chi01"],
                     "--grid", "0.5,2.0", "--out", docs["out"]])
    assert code == 0
    doc = dc.loads(read_out(docs))
    assert doc["exact"]["pieces"][1]["terms"][0]["alpha"] == -1.0
    assert doc["samples"][1] == [2.0, 0.5]


def test_oc_point_reports_verdict_and_search(docs):
    code = cli.main(["oc-point", "--function", docs["const"],
                     "--space", docs["cesinf"], "--method", "all",
                     "--adversarial", "30", "--seed", "3",
                     "--out", docs["out"]])
    assert code == 0
    doc = dc.loads(read_out(docs))
    assert doc["verdict"] == "not-OC"
    assert doc["adversarial"]["found"] is True


def test_route_conflict_is_a_verdict_and_exits_1(docs, monkeypatch):
    # the closed form says OC for the head indicator in averaged L2; a
    # contradicting characterization route must not raise
    monkeypatch.setattr(oc, "oc_point_via_characterization",
                        lambda f, CX: oc.OCVerdict("point", oc.VERDICT_NOT,
                                                   "forced-contradiction"))
    code = cli.main(["oc-point", "--function", docs["chi01"],
                     "--space", docs["ces2"], "--method", "all",
                     "--out", docs["out"]])
    assert code == 1
    doc = dc.loads(read_out(docs))
    assert (doc["verdict"], doc["rule"]) == ("inconclusive", "method-conflict")


def test_oc_point_stdout_default(docs, capsys):
    code = cli.main(["oc-point", "--function", docs["chi01"],
                     "--space", docs["ces2"]])
    assert code == 0
    doc = dc.loads(capsys.readouterr().out)
    assert doc["verdict"] == "OC"
    assert doc["rule"] == "averaged-power/all-points"


def test_oc_space_family_and_transfer_agree(docs):
    code = cli.main(["oc-space", "--space", docs["ces2"],
                     "--out", docs["out"]])
    assert code == 0
    family = dc.loads(read_out(docs))
    code = cli.main(["oc-space", "--space", docs["ces2"],
                     "--method", "transfer", "--out", docs["out"]])
    assert code == 0
    transfer = dc.loads(read_out(docs))
    assert family["verdict"] == transfer["verdict"] == "OC"


# ---------------------------------------------------------------------------
# golden outputs: byte-stable documents under the v1 schema


GOLDEN_COMMANDS = {
    "norm_ces2_chi01.json": lambda d: [
        "norm", "--function", d["chi01"], "--space", d["ces2"]],
    "cesaro_chi01.json": lambda d: [
        "cesaro", "--function", d["chi01"], "--grid", "0.5,1.0,2.0,8.0"],
    "ocpoint_cesinf_const.json": lambda d: [
        "oc-point", "--function", d["const"], "--space", d["cesinf"]],
    "ocspace_ces2.json": lambda d: [
        "oc-space", "--space", d["ces2"], "--method", "transfer"],
    "verify_l2_chi01.csv": lambda d: [
        "verify", "--function", d["chi01"], "--space", d["l2"]],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output_is_stable(docs, name):
    argv = GOLDEN_COMMANDS[name](docs) + ["--out", docs["out"]]
    assert cli.main(argv) == 0
    produced = read_out(docs)
    again = cli.main(argv)
    assert again == 0 and read_out(docs) == produced
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert produced == expected
