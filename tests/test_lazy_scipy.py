"""No path of the library loads scipy: its one quadrature is stdlib.

scipy stays a test-only reference (for Brent's method and the quadrature
properties).  Each check runs in a fresh interpreter, because the test
process itself has long since imported scipy.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from cesarospaces import catalog as cat
from cesarospaces import cli

SRC = pathlib.Path(cli.__file__).resolve().parent.parent

REPORT = """
import json, sys
print(json.dumps({"result": result,
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy")
                                  and sys.modules[m] is not None)}))
"""


def run_fresh(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    out = run_fresh("""
        import cesarospaces
        result = None
    """)
    assert out["scipy"] == []


def test_oc_point_all_methods_on_a_step_function_loads_no_scipy(tmp_path):
    out = run_fresh(f"""
        import pathlib
        from cesarospaces import cli, documents as dc, piecewise as pw
        from cesarospaces import spaces as sp
        H = pw.DomainSpec("halfline")
        tmp = pathlib.Path({str(tmp_path)!r})
        f = tmp / "f.json"
        f.write_text(dc.dump_function(pw.step_function(
            H, [(0.0, 1.0, 2.0), (1.0, 3.0, -0.5)])), encoding="utf-8")
        X = tmp / "x.json"
        X.write_text(dc.dump_space(sp.cesaro_space(sp.lebesgue(2.0, H))),
                     encoding="utf-8")
        result = cli.main(["oc-point", "--method", "all", "--function",
                           str(f), "--space", str(X),
                           "--out", str(tmp / "out.json")])
    """)
    assert out["result"] == 0
    assert out["scipy"] == []


def test_closed_form_and_theorem_verdicts_on_the_battery_load_no_scipy():
    out = run_fresh("""
        from cesarospaces import catalog as cat, oc
        from cesarospaces.errors import NotInSpaceError
        result = []
        for e in cat.default_battery():
            for method in ("closed-form", "theorem"):
                try:
                    result.append(oc.oc_point(e.f, e.space, method).verdict)
                except NotInSpaceError:
                    result.append("not-in-space")
    """)
    assert len(out["result"]) == 2 * len(cat.default_battery())
    assert out["scipy"] == []


def test_no_quadrature_path_loads_scipy():
    # scipy is blocked, so an import of it anywhere raises; one quadrature
    # runs through each caller of cesaro._quad
    out = run_fresh("""
        import sys
        sys.modules["scipy"] = None
        from cesarospaces import catalog as cat, cesaro as cz, norms as nm
        from cesarospaces import piecewise as pw, spaces as sp
        H = pw.DomainSpec("halfline")
        rising = pw.power_piece(H, 0.0, 1.0, 1.0, 0.5)
        quarter_then_step = pw.make_ppl(H, [(0.0, 1.0, {(-0.25, 0): 1.0}),
                                            (1.0, 2.0, {(0.0, 0): -2.0})])
        u_three_halves = sp.OrliczFunctionSpec(
            pw.make_ppl(H, [(0.0, pw.INF, {(1.5, 0): 1.0})]))
        one_plus_t = pw.make_ppl(H, [(0.0, 1.0, {(0.0, 0): 1.0,
                                                 (1.0, 0): 1.0})])
        # a rising piece has no exact rearrangement: the level form runs
        level_form = nm.norm(rising, sp.cesaro_space(
            sp.lorentz_space(cat.sqrt_phi(H))))
        result = [
            level_form.method,
            # (1 + t)**1.5 has no exact power map
            nm.norm(one_plus_t, sp.lebesgue(1.5, H)).method,
            # u**1.5 has no integer-power composition
            nm.norm(quarter_then_step,
                    sp.orlicz_space(u_three_halves, H)).method,
            cz.cesaro_numeric(rising, 0.5)[0],
            level_form.value,
        ]
    """)
    assert out["result"][:3] == ["quadrature"] * 3
    assert abs(out["result"][3] - 0.5 ** 0.5 / 1.5) <= 1e-12
    assert out["result"][4] > 0.0
    assert out["scipy"] == []
