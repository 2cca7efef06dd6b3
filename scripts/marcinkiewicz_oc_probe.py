"""Evidence sweep: order continuity of averaged Marcinkiewicz spaces.

The closed-form rules decide the averaged weak-type space only when the
parameter function carries an atom, is exactly linear, or has a lower
dilation index above 1 (read off the exponents of its first piece at 0 and
its last piece at infinity).  This script sweeps a few controls and then
parameter functions that fall outside those cases, runs the per-point probes (closed-form rule, direct
definition check, adversarial family hunt) on a few candidate functions,
and tabulates what was demonstrated.  It gathers evidence only: a missing
witness is not a proof of order continuity, and nothing printed here is a
theorem.

Usage:
    python3 scripts/marcinkiewicz_oc_probe.py [--budget N] [--seed S] [--out CSV]
"""

from __future__ import annotations

import argparse
import sys
import time

from cesarospaces import oc
from cesarospaces import norms as nm
from cesarospaces import piecewise as pw
from cesarospaces.spaces import (QuasiConcaveSpec, SpaceDescriptor,
                                 cesaro_space, marcinkiewicz_space)

U = pw.domain_from_name("unit")
H = pw.domain_from_name("halfline")


def _phi(domain, pieces) -> QuasiConcaveSpec:
    return QuasiConcaveSpec(pw.make_ppl(domain, pieces))


def samples() -> list[tuple[str, QuasiConcaveSpec]]:
    """Parameter functions, decided controls first, open cases after."""
    out = [
        # controls the rules decide
        ("sqrt", _phi(H, [(0.0, pw.INF, {(0.5, 0): 1.0})])),
        ("atom-plus-sqrt", _phi(U, [(0.0, 1.0, {(0.0, 0): 1.0,
                                                (0.5, 0): 1.0})])),
        ("linear", _phi(U, [(0.0, 1.0, {(1.0, 0): 1.0})])),
        # slowly varying perturbations of linear growth; the dilation
        # index is 1, where no closed-form rule applies
        ("unit-linear-log", _phi(U, [(0.0, 1.0, {(1.0, 0): 1.0,
                                                 (1.0, 1): -1.0})])),
        ("unit-linear-halflog", _phi(U, [(0.0, 1.0, {(1.0, 0): 1.0,
                                                     (1.0, 1): -0.5})])),
        ("halfline-linear-then-sqrt", _phi(H, [(0.0, 1.0, {(1.0, 0): 1.0}),
                                               (1.0, pw.INF, {(0.5, 0): 1.0})])),
    ]
    return out


def candidate_points(domain) -> list[tuple[str, pw.PPL]]:
    if domain.is_unit:
        return [
            ("head indicator", pw.indicator(U, 0.0, 0.5)),
            ("interior indicator", pw.indicator(U, 0.25, 0.5)),
            ("constant", pw.step_function(U, [(0.0, 1.0, 1.0)])),
        ]
    return [
        ("head indicator", pw.indicator(H, 0.0, 1.0)),
        ("interior indicator", pw.indicator(H, 1.0, 2.0)),
        ("mild singularity", pw.power_piece(H, 0.0, 1.0, 1.0, -0.25)),
        ("matched singularity", pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)),
    ]


def probe_space(name: str, spec: QuasiConcaveSpec, budget: int,
                seed: int) -> list[dict]:
    M = marcinkiewicz_space(spec)
    CM = cesaro_space(M)
    rows = []
    nontrivial = nm.cx_nontrivial(CM)
    space_verdict = oc.oc_space(CM)
    base = {"sample": name, "domain": spec.domain.kind,
            "nontrivial": nontrivial,
            "space_verdict": space_verdict.verdict,
            "space_rule": space_verdict.rule}
    if not nontrivial:
        rows.append({**base, "point": "-", "point_verdict": "-",
                     "witness_found": "-", "direct": "-"})
        return rows
    for pname, f in candidate_points(spec.domain):
        t0 = time.perf_counter()
        try:
            verdict = oc.oc_point(f, CM, method="closed-form")
        except Exception as exc:  # membership failures are data here
            rows.append({**base, "point": pname,
                         "point_verdict": f"error: {exc}",
                         "witness_found": "-", "direct": "-"})
            continue
        witness = "-"
        if verdict.is_oc is not False:
            report = oc.adversarial_family_search(f, CM, budget=budget,
                                                  seed=seed)
            witness = report.found
        direct = oc.direct_oc_check(f, CM)
        rows.append({**base, "point": pname,
                     "point_verdict": verdict.verdict,
                     "point_rule": verdict.rule,
                     "witness_found": witness,
                     "direct": direct.decision,
                     "secs": round(time.perf_counter() - t0, 2)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=40,
                    help="adversarial families per candidate point")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", help="also write the table as CSV")
    args = ap.parse_args(argv)

    all_rows = []
    for name, spec in samples():
        for row in probe_space(name, spec, args.budget, args.seed):
            all_rows.append(row)
            flat = ", ".join(f"{k}={v}" for k, v in row.items())
            print(flat)

    demonstrated = sorted({r["sample"] for r in all_rows
                           if r.get("point_verdict") == oc.VERDICT_NOT
                           or r.get("witness_found") is True
                           or r.get("direct") is False})
    open_cases = sorted({r["sample"] for r in all_rows
                         if r["space_verdict"] == "inconclusive"
                         and r["sample"] not in demonstrated})
    print()
    print(f"spaces with a demonstrated non-order-continuous point: "
          f"{demonstrated or 'none'}")
    print(f"spaces still open after the sweep: {open_cases or 'none'}")
    print("note: absence of a witness under this budget decides nothing.")

    if args.out:
        keys = ["sample", "domain", "nontrivial", "space_verdict",
                "space_rule", "point", "point_verdict", "point_rule",
                "witness_found", "direct", "secs"]
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(",".join(keys) + "\n")
            for row in all_rows:
                handle.write(",".join(str(row.get(k, "")) for k in keys)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
