"""Order-continuity decisions for points and spaces.

A point f is order continuous in X when the norm of f restricted to any
nested family of sets shrinking to a null set tends to zero.  For averaged
spaces this module offers three independent routes:

* a characterization route that reduces the question to membership of the
  averaged image in the core of the base space, or to truncation cores plus
  vanishing averages at the domain ends;
* closed-form rules per base-space family;
* a direct route that evaluates restriction norms along explicit families.

Verdicts carry the rule that produced them plus reproducible evidence.
Every limit that can be read off an exact representation is; numeric
sequences refuse to decide when samples stabilize below resolution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import cesaro as cz
from . import norms as nm
from . import piecewise as pw
from . import rearrange as rr
from .errors import (InvalidFamilyError, MethodInapplicableError,
                     NotInSpaceError)
from .piecewise import INF, PPL, DomainSpec, MeasurableSet
from .spaces import SpaceDescriptor

EPS_LIMIT = 1e-7
SEQ_K_INIT = 20
SEQ_K_MAX = 200
GRID_K_INIT = 40
GRID_K_MAX = 400

VERDICT_OC = "OC"
VERDICT_NOT = "not-OC"
VERDICT_TRIVIAL = "trivial-space"
VERDICT_UNDECIDED = "inconclusive"


@dataclass(frozen=True)
class OCVerdict:
    subject: str  # "point" | "space"
    verdict: str
    rule: str
    evidence: dict = field(default_factory=dict)

    @property
    def is_oc(self) -> bool | None:
        if self.verdict == VERDICT_OC:
            return True
        if self.verdict in (VERDICT_NOT, VERDICT_TRIVIAL):
            return False
        return None


@dataclass(frozen=True)
class LimitEstimate:
    tends_to_zero: bool | None
    value: float | None
    samples: tuple[float, ...]
    note: str = ""


def _verdict_from_flag(flag: bool | None, subject: str, rule: str,
                       evidence: dict) -> OCVerdict:
    if flag is True:
        return OCVerdict(subject, VERDICT_OC, rule, evidence)
    if flag is False:
        return OCVerdict(subject, VERDICT_NOT, rule, evidence)
    return OCVerdict(subject, VERDICT_UNDECIDED, rule, evidence)


def _trivial_point(CX: SpaceDescriptor) -> OCVerdict:
    """The verdict of every point route in a zero averaged space."""
    return OCVerdict("point", VERDICT_TRIVIAL, "trivial-space/tail-membership",
                     {"domain": CX.inner.domain.kind})


def _all_of(flags: Sequence[bool | None]) -> bool | None:
    """Three-valued AND: False if any flag is False, True if all are True."""
    if any(d is False for d in flags):
        return False
    return True if all(d is True for d in flags) else None


# ---------------------------------------------------------------------------
# sequence and limit decision machinery


def _decide_vanishing(vals: Sequence[float]) -> bool | None:
    """Classify a sampled nonnegative sequence: tends to 0, stays away, or
    undecidable from these samples."""
    last = vals[-1]
    if last == 0.0:
        return True
    if not math.isfinite(last):
        return False
    tail = list(vals[-5:])
    nonincreasing = all(a >= b * (1.0 - 1e-9) for a, b in zip(tail, tail[1:]))
    if last < EPS_LIMIT and nonincreasing:
        if len(tail) >= 5 and tail[0] <= last * (1.0 + 1e-9):
            # flat at a tiny nonzero value: below resolution, refuse to decide
            return None
        return True
    spread = max(tail) - min(tail)
    if last >= EPS_LIMIT and spread <= 1e-3 * abs(last):
        return False
    return None


def _still_decaying(vals: Sequence[float]) -> bool:
    if len(vals) < 2:
        return True
    a, b = vals[-2], vals[-1]
    return math.isfinite(b) and b < a * (1.0 - 1e-12) if a > 0.0 else False


def vanishing_sequence(value_at: Callable[[float], float],
                       k_init: int = SEQ_K_INIT,
                       k_max: int = SEQ_K_MAX) -> tuple[bool | None, list[float]]:
    """Decide whether value_at(2**k) -> 0 as k grows."""
    vals: list[float] = []
    decision: bool | None = None
    for k in range(k_init + 1):
        vals.append(value_at(2.0 ** k))
        if not math.isfinite(vals[-1]):
            return False, vals
        # norms along nested families are nonincreasing, so two exact
        # zeros in a row settle the limit
        if len(vals) >= 2 and vals[-1] == 0.0 and vals[-2] == 0.0:
            return True, vals
    decision = _decide_vanishing(vals)
    k = k_init
    while decision is None and k < k_max and _still_decaying(vals):
        k += 1
        vals.append(value_at(2.0 ** k))
        decision = _decide_vanishing(vals)
    return decision, vals


def limit_estimate(fn: Callable[[float], float], end: str,
                   k_init: int = GRID_K_INIT,
                   k_max: int = GRID_K_MAX) -> LimitEstimate:
    """Sampled one-sided limit at 0+ (end="zero") or infinity (end="inf")."""
    sign = -1.0 if end == "zero" else 1.0
    vals: list[float] = []
    for k in range(1, k_init + 1):
        vals.append(fn(2.0 ** (sign * k)))
    decision = _decide_vanishing(vals)
    k = k_init
    while decision is None and k < k_max and _still_decaying(vals):
        k += 1
        vals.append(fn(2.0 ** (sign * k)))
        decision = _decide_vanishing(vals)
    if decision is True:
        return LimitEstimate(True, 0.0, tuple(vals[-6:]))
    if decision is False:
        return LimitEstimate(False, vals[-1], tuple(vals[-6:]))
    return LimitEstimate(None, None, tuple(vals[-6:]),
                         note="samples stabilized below resolution or kept drifting")


# ---------------------------------------------------------------------------
# building blocks on exact inputs


def averaged_modulus(f: PPL) -> PPL:
    """The running average of |f|, exact.

    Mass that is not locally integrable at zero makes the average
    identically infinite; that case surfaces as the transform error.
    """
    return cz.cesaro_transform(pw.absolute(f))


def vanishing_average_at_zero(g: PPL) -> bool:
    return pw.limit_at_zero(g) == 0.0


def vanishing_average_at_infinity(g: PPL) -> bool:
    if g.domain.is_unit:
        raise MethodInapplicableError("no infinite end on the unit interval")
    return pw.limit_at_infinity(g) == 0.0


def _peak_limit_at_infinity(g: PPL, spec) -> bool | None:
    """Exact limit test of phi(t)/t * integral of g* over (0, t) at infinity.

    The averaged rearrangement of an integrable g behaves like mass/t, so
    the limit is mass * lim phi(t)/t.  Mass that diverges at infinity under
    a positive final piece that does not grow makes the integral Q(t) of g*
    over (0, t) grow like the integral of that piece's germ, and the germ of
    phi(t) * Q(t) / t decides.  Other tails return None.
    """
    phi = pw.germ(spec.phi.pieces[-1].term_map(), "inf")
    inv_t = (1.0, -1.0, 0)
    ratio_lim = pw.germ_limit(pw.germ_product(phi, inv_t), "inf")
    mass = pw.integrate(g)
    if mass == 0.0:
        return True
    if math.isfinite(mass):
        return ratio_lim == 0.0
    if ratio_lim != 0.0:
        # phi(t)/t stays above its positive limit, so the peak dominates
        # ratio_lim times a divergent integral
        return False
    last = g.pieces[-1]
    if not math.isinf(last.hi):
        return None
    tail = pw.germ(last.term_map(), "inf")
    if tail[0] <= 0.0 or math.isinf(pw.germ_limit(tail, "inf")) \
            or not pw.integral_diverges(tail[1], "inf"):
        # a negative or growing tail, or mass that diverges at zero
        return None
    return nm._peak_limit_at_infinity(spec, last.term_map(), INF) == 0.0


def _escaping_tail(f: PPL, S: SpaceDescriptor, evidence: dict) -> bool | None:
    """Do the norms in S of f restricted to [n, end) vanish as n grows?

    The last samples go to evidence["tail_norms"].
    """
    def tail(n: float) -> float:
        A = MeasurableSet.from_intervals(f.domain, [(n, f.domain.end)])
        return nm.norm(pw.restrict(f, A), S).value

    decision, vals = vanishing_sequence(tail)
    evidence["tail_norms"] = vals[-6:]
    return decision


def tail_test_point(f: PPL, X: SpaceDescriptor) -> tuple[bool | None, dict]:
    """Is f in the core of the symmetric space X?

    Tests the two canonical nested null families: shrinking head sets of the
    rearrangement (captures small-measure concentration) and escaping tails
    of the domain.  Together they decide membership.
    """
    evidence: dict = {}
    if f.is_zero:
        return True, {"zero": True}

    sup = pw.essential_sup_abs(f)
    if math.isfinite(sup):
        # bounded function: restriction norms over shrinking heads are
        # squeezed between sup * phi(s) and (sup - eps) * phi(s), so the
        # head condition reduces to whether the fundamental function of X
        # vanishes at zero
        if xa_trivial(X):
            evidence["head"] = "fundamental function stays positive at zero"
            return False, evidence
        head_dec: bool | None = True
        evidence["head"] = "bounded, fundamental function vanishes at zero"
    else:
        # unbounded: sweep restrictions to the superlevel sets, which are
        # equimeasurable with shrinking left cuts of the rearrangement
        def head(lam: float) -> float:
            piece = pw.restrict(pw.absolute(f), rr.superlevel_set(f, lam))
            return nm.norm(piece, X).value

        head_dec, head_vals = vanishing_sequence(head)
        evidence["head_norms"] = head_vals[-6:]
    flags = [head_dec]
    if not f.domain.is_unit:
        flags.append(_escaping_tail(f, X, evidence))
    return _all_of(flags), evidence


def truncation_core_membership(f: PPL, CX: SpaceDescriptor) -> tuple[bool | None, dict]:
    """Do the canonical truncations of f converge to f in the averaged norm?"""
    evidence: dict = {}

    def excess(n: float) -> float:
        return nm.norm(pw.excess_over(f, n, f.domain.end), CX).value

    exc_dec, exc_vals = vanishing_sequence(excess)
    evidence["excess_norms"] = exc_vals[-6:]
    flags = [exc_dec]
    if not f.domain.is_unit:
        flags.append(_escaping_tail(f, CX, evidence))
    return _all_of(flags), evidence


def xa_trivial(X: SpaceDescriptor) -> bool:
    """Is the core (order-continuous part) of the symmetric space zero?

    Read off the descriptor for every symmetric family.
    """
    if X.tag == "Lp":
        return math.isinf(X.p)
    if X.tag == "L1capLinf":
        return True
    if X.tag == "L1plusLinf":
        return False
    if X.tag == "orlicz":
        return math.isfinite(X.orlicz.finite_bound)
    if X.tag in ("lorentz", "marcinkiewicz"):
        return X.quasi.atom_at_zero > 0.0
    if X.tag == "cesaro":
        raise MethodInapplicableError(
            "core triviality applies to the symmetric base space")
    raise MethodInapplicableError(f"unknown space tag {X.tag!r}")


def _constants_in_space(X: SpaceDescriptor) -> bool:
    """Does the constant 1 have finite norm (half-line domains)?"""
    one = pw.step_function(X.domain, [(0.0, X.domain.end, 1.0)])
    return nm.in_space(one, X)


def _require_membership(f: PPL, CX: SpaceDescriptor) -> None:
    """Every point route asks the one membership rule first."""
    if not nm.in_space(f, CX):
        raise NotInSpaceError(
            f"the function has infinite norm in {CX.describe()}")


# ---------------------------------------------------------------------------
# characterization route for points of averaged spaces


def oc_point_via_characterization(f: PPL, CX: SpaceDescriptor) -> OCVerdict:
    """Decide order continuity of f in the averaged space over X.

    Route (a): when the base space has a nonzero core that the canonical
    decaying tail belongs to, f is order continuous exactly when its
    averaged modulus lies in that core.
    Route (b): when the core is zero, order continuity is equivalent to
    truncation-core membership plus vanishing averages at the ends.
    """
    if CX.tag != "cesaro":
        raise MethodInapplicableError("expected an averaged-space descriptor")
    X = CX.inner
    if not nm.cx_nontrivial(CX):
        return _trivial_point(CX)
    _require_membership(f, CX)
    evidence: dict = {"norm_in_space": nm.norm(f, CX).value}
    if f.is_zero:
        return OCVerdict("point", VERDICT_OC, "transform-image-of-core",
                         {"zero": True})
    triv = xa_trivial(X)
    evidence["core_trivial"] = triv
    g = averaged_modulus(f)
    if triv:
        member, ev = truncation_core_membership(f, CX)
        evidence.update(ev)
        d0 = vanishing_average_at_zero(g)
        evidence["vanishing_average_at_zero"] = d0
        checks = [member, d0]
        if not X.domain.is_unit and _constants_in_space(X):
            dinf = vanishing_average_at_infinity(g)
            evidence["vanishing_average_at_infinity"] = dinf
            checks.append(dinf)
        return _verdict_from_flag(_all_of(checks), "point",
                                  "truncation-core-and-vanishing-average",
                                  evidence)
    if X.domain.is_unit:
        probe_ok: bool | None = True
    else:
        probe = pw.power_piece(X.domain, 1.0, INF, 1.0, -1.0)
        probe_ok, _ = tail_test_point(probe, X)
        evidence["decaying_tail_in_core"] = probe_ok
    if probe_ok is True:
        flag, ev = tail_test_point(g, X)
        evidence.update(ev)
        return _verdict_from_flag(flag, "point", "transform-image-of-core",
                                  evidence)
    evidence["note"] = "canonical decaying tail not in the core"
    return OCVerdict("point", VERDICT_UNDECIDED, "transform-image-of-core",
                     evidence)


# ---------------------------------------------------------------------------
# closed-form rules per base-space family


def _vanishing_ends(g: PPL) -> tuple[bool, dict]:
    ev = {"vanishing_average_at_zero": vanishing_average_at_zero(g)}
    if not g.domain.is_unit:
        ev["vanishing_average_at_infinity"] = vanishing_average_at_infinity(g)
    return all(ev.values()), ev


def _atom_weight_verdict(f: PPL, g: PPL, CX: SpaceDescriptor,
                         unbounded_weight: bool, family: str) -> OCVerdict:
    """The rules shared by averaged Lorentz and Marcinkiewicz spaces whose
    parameter function jumps at zero; ``family`` prefixes the rule id."""
    if unbounded_weight:
        member, ev = truncation_core_membership(f, CX)
        d0 = vanishing_average_at_zero(g)
        ev["vanishing_average_at_zero"] = d0
        return _verdict_from_flag(_all_of([member, d0]), "point",
                                  f"{family}/atom-unbounded", ev)
    ok, ev = _vanishing_ends(g)
    return _verdict_from_flag(ok, "point", f"{family}/atom-bounded", ev)


def oc_point_closed_form(f: PPL, CX: SpaceDescriptor) -> OCVerdict:
    """Family-specific decision rules for points of averaged spaces."""
    if CX.tag != "cesaro":
        raise MethodInapplicableError("expected an averaged-space descriptor")
    X = CX.inner
    if not nm.cx_nontrivial(CX):
        return _trivial_point(CX)
    _require_membership(f, CX)
    g = averaged_modulus(f)
    unit = X.domain.is_unit

    if X.tag == "Lp":
        if math.isfinite(X.p):
            return OCVerdict("point", VERDICT_OC, "averaged-power/all-points",
                             {"p": X.p})
        ok, ev = _vanishing_ends(g)
        return _verdict_from_flag(ok, "point",
                                  "averaged-power/vanishing-average", ev)

    if X.tag == "L1capLinf":
        # on the unit interval the intersection space is essential-sup
        ok, ev = _vanishing_ends(g)
        return _verdict_from_flag(ok, "point",
                                  "averaged-power/vanishing-average", ev)

    if X.tag == "L1plusLinf":
        if unit:
            return OCVerdict("point", VERDICT_OC,
                             "averaged-sum-space/all-points", {})
        lim = pw.limit_at_infinity(g)
        return _verdict_from_flag(lim == 0.0, "point",
                                  "averaged-sum-space/tail-average",
                                  {"rearranged_tail_value": lim})

    if X.tag == "orlicz":
        spec = X.orlicz
        scales = [2.0 ** k for k in range(21)]
        if not math.isfinite(spec.finite_bound):
            first_bad = None
            # for a power generator the modular of g at 1/lam is
            # c * lam**n * ||g||_n**n: finite at every scale, as g is in X
            if nm._power_generator(spec) is None:
                modular = nm._orlicz_modular(g, spec)
                for lam in scales:
                    val, _ = modular(1.0 / lam)
                    if not math.isfinite(val):
                        first_bad = lam
                        break
            ev = {"scales_tested": len(scales), "first_failing_scale": first_bad}
            return _verdict_from_flag(first_bad is None, "point",
                                      "averaged-orlicz/unbounded-generator", ev)
        if spec.zero_bound == 0.0:
            horizons = [2.0 ** j for j in range(21)]
            # one modular per horizon, built on first use and shared by
            # every scale; None once the truncation remainder vanishes
            modulars: list = []
            failing_scale = None
            for lam in scales:
                found = False
                for j, m in enumerate(horizons):
                    if j == len(modulars):
                        # |f| minus its truncation at height and horizon m
                        rem = pw.excess_over(f, m, min(m, f.domain.end))
                        modulars.append(None if rem.is_zero else
                                        nm._orlicz_modular(
                                            cz.cesaro_transform(rem), spec))
                    modular = modulars[j]
                    if modular is None or math.isfinite(modular(1.0 / lam)[0]):
                        found = True
                        break
                if not found:
                    failing_scale = lam
                    break
            d0 = vanishing_average_at_zero(g)
            ev = {"first_failing_scale": failing_scale,
                  "vanishing_average_at_zero": d0}
            return _verdict_from_flag(failing_scale is None and d0, "point",
                                      "averaged-orlicz/capped-generator", ev)
        ok, ev = _vanishing_ends(g)
        return _verdict_from_flag(ok, "point",
                                  "averaged-orlicz/degenerate-generator", ev)

    if X.tag == "lorentz":
        spec = X.quasi
        atom = spec.atom_at_zero
        unbounded_weight = (not unit) and math.isinf(spec.value_at_end)
        if atom == 0.0:
            if unit or unbounded_weight:
                return OCVerdict("point", VERDICT_OC,
                                 "averaged-lorentz/all-points", {})
            lim = pw.limit_at_infinity(g)
            return _verdict_from_flag(lim == 0.0, "point",
                                      "averaged-lorentz/bounded-weight",
                                      {"rearranged_tail_value": lim})
        return _atom_weight_verdict(f, g, CX, unbounded_weight,
                                    "averaged-lorentz")

    if X.tag == "marcinkiewicz":
        spec = X.quasi
        atom = spec.atom_at_zero
        unbounded_weight = (not unit) and math.isinf(spec.value_at_end)
        if atom == 0.0:
            if nm.boyd_indices(X).lower > 1.0:
                r_g = rr.decreasing_rearrangement(g)
                if r_g.exact is not None:
                    w = pw.product(spec.phi, cz.cesaro_transform(r_g.exact))
                    z0: bool | None = pw.limit_at_zero(w) == 0.0
                    zi: bool | None = True if unit \
                        else pw.limit_at_infinity(w) == 0.0
                    ev = {"peak_limits_exact": True}
                else:
                    ev = {"peak_limits_exact": False}
                    abs_g = pw.absolute(g)
                    levels = rr._level_memo(g)
                    peak = lambda t: spec.value(t) * \
                        rr._layer_cake_average(r_g, abs_g, t, levels)
                    sup_g = pw.essential_sup_abs(g)
                    if math.isfinite(sup_g):
                        # peak is squeezed under sup * phi(t) and the weight
                        # has no atom at zero in this branch
                        z0 = True
                        ev["head_squeeze_sup"] = sup_g
                    else:
                        est0 = limit_estimate(peak, "zero")
                        z0 = est0.tends_to_zero
                        ev["peak_samples_zero"] = list(est0.samples)
                    zi = True
                    if not unit:
                        zi = _peak_limit_at_infinity(g, spec)
                        ev["tail_limit_exact"] = zi is not None
                        if zi is None:
                            esti = limit_estimate(peak, "inf")
                            zi = esti.tends_to_zero
                            ev["peak_samples_inf"] = list(esti.samples)
                return _verdict_from_flag(_all_of([z0, zi]), "point",
                                          "averaged-marcinkiewicz/vanishing-peak",
                                          ev)
            member, ev = truncation_core_membership(f, CX)
            return _verdict_from_flag(member, "point",
                                      "averaged-marcinkiewicz/truncation-core",
                                      ev)
        return _atom_weight_verdict(f, g, CX, unbounded_weight,
                                    "averaged-marcinkiewicz")

    raise MethodInapplicableError(f"no closed-form rule for base {X.tag!r}")


# ---------------------------------------------------------------------------
# order continuity of whole spaces


def _oc_space_symmetric(X: SpaceDescriptor) -> OCVerdict:
    unit = X.domain.is_unit
    if X.tag in ("lorentz", "marcinkiewicz") and X.quasi.atom_at_zero > 0.0:
        return OCVerdict("space", VERDICT_NOT, "fundamental-atom",
                         {"atom_at_zero": X.quasi.atom_at_zero})
    if X.tag == "Lp":
        if math.isfinite(X.p):
            return OCVerdict("space", VERDICT_OC, "power-space", {"p": X.p})
        return OCVerdict("space", VERDICT_NOT, "essential-sup", {})
    if X.tag == "L1capLinf":
        return OCVerdict("space", VERDICT_NOT, "intersection-space", {})
    if X.tag == "L1plusLinf":
        if unit:
            return OCVerdict("space", VERDICT_OC, "sum-space",
                             {"note": "coincides with the integrable class"})
        return OCVerdict("space", VERDICT_NOT, "sum-space", {})
    if X.tag == "orlicz":
        spec = X.orlicz
        if math.isfinite(spec.finite_bound):
            return OCVerdict("space", VERDICT_NOT, "orlicz-doubling",
                             {"finite_bound": spec.finite_bound})
        flag = spec.delta2_infty if unit else spec.delta2_all
        ev = {"doubling": flag, "scope": "large-argument" if unit else "global"}
        return _verdict_from_flag(flag, "space", "orlicz-doubling", ev)
    if X.tag == "lorentz":
        spec = X.quasi
        if unit or math.isinf(spec.value_at_end):
            return OCVerdict("space", VERDICT_OC, "lorentz-continuity", {})
        return OCVerdict("space", VERDICT_NOT, "lorentz-continuity",
                         {"weight_at_infinity": spec.value_at_end})
    if X.tag == "marcinkiewicz":
        spec = X.quasi
        if _phi_is_linear(spec.phi):
            return OCVerdict("space", VERDICT_OC, "weighted-l1-identity",
                             {"note": "the weak space collapses to the integrable class"})
        lower = nm.boyd_indices(X).lower
        if lower > 1.0:
            return OCVerdict("space", VERDICT_NOT, "marcinkiewicz-extremal",
                             {"lower_index": lower})
        return OCVerdict("space", VERDICT_UNDECIDED, "marcinkiewicz-extremal",
                         {"lower_index": lower,
                          "note": "the rule needs a lower dilation index above 1"})
    raise MethodInapplicableError(f"no space rule for {X.tag!r}")


def _phi_is_linear(phi: PPL) -> bool:
    if len(phi.pieces) != 1:
        return False
    tm = phi.pieces[0].term_map()
    return set(tm) == {(1.0, 0)} and phi.pieces[0].lo == 0.0 \
        and phi.pieces[0].hi == phi.domain.end


def _oc_space_averaged(CX: SpaceDescriptor) -> OCVerdict:
    X = CX.inner
    unit = X.domain.is_unit
    if not nm.cx_nontrivial(CX):
        return OCVerdict("space", VERDICT_TRIVIAL,
                         "trivial-space/tail-membership",
                         {"domain": X.domain.kind})
    if X.tag == "Lp":
        if math.isfinite(X.p):
            if X.p == 1.0 and unit:
                return OCVerdict("space", VERDICT_OC, "weighted-l1-identity",
                                 {"note": "unit-interval average with the log weight"})
            return OCVerdict("space", VERDICT_OC, "averaged-power/space",
                             {"p": X.p})
        return OCVerdict("space", VERDICT_NOT, "averaged-power/space",
                         {"p": "inf"})
    if X.tag == "L1capLinf":
        # unit interval only (the half-line case is gated as trivial)
        return OCVerdict("space", VERDICT_NOT, "averaged-power/space",
                         {"note": "coincides with the essential-sup case"})
    if X.tag == "L1plusLinf":
        if unit:
            return OCVerdict("space", VERDICT_OC, "averaged-sum-space/space", {})
        return OCVerdict("space", VERDICT_NOT, "averaged-sum-space/space",
                         {"witness": "constant functions keep a tail average"})
    if X.tag == "orlicz":
        spec = X.orlicz
        if math.isfinite(spec.finite_bound):
            return OCVerdict("space", VERDICT_NOT, "averaged-orlicz/space",
                             {"finite_bound": spec.finite_bound})
        flag = spec.delta2_infty if unit else spec.delta2_all
        if flag is True:
            return OCVerdict("space", VERDICT_OC, "averaged-orlicz/space",
                             {"doubling": True})
        lower = nm.boyd_indices(X).lower
        if flag is False and lower > 1.0:
            return OCVerdict("space", VERDICT_NOT, "averaged-orlicz/space",
                             {"doubling": False, "lower_index": lower})
        return OCVerdict("space", VERDICT_UNDECIDED, "averaged-orlicz/space",
                         {"doubling": flag})
    if X.tag == "lorentz":
        base = _oc_space_symmetric(X)
        return OCVerdict("space", base.verdict, "averaged-lorentz/space",
                         {"base_rule": base.rule})
    if X.tag == "marcinkiewicz":
        spec = X.quasi
        if spec.atom_at_zero > 0.0:
            return OCVerdict("space", VERDICT_NOT,
                             "averaged-marcinkiewicz/space",
                             {"atom_at_zero": spec.atom_at_zero})
        if _phi_is_linear(spec.phi):
            # collapses to the weighted integrable class on the unit interval
            return OCVerdict("space", VERDICT_OC, "weighted-l1-identity", {})
        lower = nm.boyd_indices(X).lower
        if lower > 1.0:
            return OCVerdict("space", VERDICT_NOT,
                             "averaged-marcinkiewicz/space",
                             {"lower_index": lower})
        return OCVerdict("space", VERDICT_UNDECIDED,
                         "averaged-marcinkiewicz/space", {})
    raise MethodInapplicableError(f"no averaged-space rule for {X.tag!r}")


def oc_space(X: SpaceDescriptor) -> OCVerdict:
    """Is every element of the space order continuous?"""
    if X.tag == "cesaro":
        return _oc_space_averaged(X)
    return _oc_space_symmetric(X)


def oc_space_via_transfer(CX: SpaceDescriptor) -> OCVerdict:
    """Averaged-space order continuity through boundedness transfer.

    When the averaging operator is bounded on the base space, the averaged
    space inherits the base space's order-continuity status.  Kept separate
    from the family rules so the two routes can cross-check each other.
    """
    if CX.tag != "cesaro":
        raise MethodInapplicableError("expected an averaged-space descriptor")
    X = CX.inner
    verdict = nm.cesaro_bounded(X)
    ev = {"lower_index": verdict.lower_index, "index_method": verdict.method}
    if not verdict.bounded:
        ev["note"] = "transfer needs a bounded averaging operator"
        return OCVerdict("space", VERDICT_UNDECIDED,
                         "oc-transfer/bounded-averaging", ev)
    base = _oc_space_symmetric(X)
    ev["base_rule"] = base.rule
    return OCVerdict("space", base.verdict, "oc-transfer/bounded-averaging", ev)


# ---------------------------------------------------------------------------
# direct definition-level checks


@dataclass(frozen=True)
class DirectCheckReport:
    decision: bool | None
    norms: tuple[float, ...]
    family: str


@dataclass(frozen=True)
class FamilySearchReport:
    found: bool
    witness: dict | None
    families_tried: int


def default_null_family(f: PPL) -> Callable[[float], MeasurableSet]:
    """Shrinking heads, escaping tails, and escaping superlevel sets.

    These three legs witness every way a restriction norm can fail to
    vanish, so the family decides order continuity, not just a necessary
    condition.  The intersection over n is a null set.
    """
    domain = f.domain

    def fam(n: float) -> MeasurableSet:
        ivs = [(0.0, 1.0 / n)]
        if n < domain.end:
            ivs.append((float(n), domain.end))
        base = MeasurableSet.from_intervals(domain, ivs)
        return base.union(rr.superlevel_set(f, n))

    return fam


def _validate_family(fam: Callable[[float], MeasurableSet],
                     domain: DomainSpec) -> None:
    for k in range(4):
        outer = fam(2.0 ** k)
        inner = fam(2.0 ** (k + 1))
        if inner.intersect(outer).intervals != inner.intervals:
            raise InvalidFamilyError("family is not nested downward")
    window = MeasurableSet.from_intervals(domain, [(0.0, min(domain.end, 2.0 ** 10))])
    m_first = fam(1.0).intersect(window).measure()
    m_late = fam(2.0 ** 14).intersect(window).measure()
    if not (m_late <= 1e-3 * (1.0 + m_first)):
        raise InvalidFamilyError("family does not shrink to a null set")


def direct_oc_check(f: PPL, S: SpaceDescriptor,
                    family: Callable[[float], MeasurableSet] | None = None,
                    k_init: int = 12, k_max: int = 60) -> DirectCheckReport:
    """Evaluate restriction norms along a nested null family.

    Decides straight from the definition; used as an oracle against the
    characterization and closed-form routes.
    """
    fam = family if family is not None else default_null_family(f)
    _validate_family(fam, f.domain)

    def val(n: float) -> float:
        return nm.norm(pw.restrict(f, fam(n)), S).value

    decision, vals = vanishing_sequence(val, k_init, k_max)
    name = "custom" if family is not None else "default-head-and-tail"
    return DirectCheckReport(decision, tuple(vals), name)


def adversarial_family_search(f: PPL, S: SpaceDescriptor, budget: int = 500,
                              seed: int = 0) -> FamilySearchReport:
    """Randomized hunt for a nested null family whose restriction norms
    stay away from zero.  A verified witness refutes order continuity."""
    rng = random.Random(seed)
    domain = f.domain
    anchors = [b for b in f.breakpoints() if 0.0 < b < domain.end
               and math.isfinite(b)]
    shapes = ["head", "spike", "both"]
    if not domain.is_unit:
        shapes.append("tail")
    tried = 0
    while tried < budget:
        shape = rng.choice(shapes)
        r = 2.0 ** rng.uniform(-2.0, 2.0)
        t0 = rng.choice(anchors) if anchors and rng.random() < 0.5 \
            else rng.uniform(0.0, min(domain.end, 64.0))

        def fam(n: float, shape=shape, r=r, t0=t0) -> MeasurableSet:
            if shape == "head":
                ivs = [(0.0, r / n)]
            elif shape == "tail":
                ivs = [(r * n, INF)]
            elif shape == "both":
                ivs = [(0.0, r / n), (max(r * n, 1.0), domain.end)]
            else:
                ivs = [(max(0.0, t0 - r / n), t0 + r / n)]
            return MeasurableSet.from_intervals(domain, ivs)

        tried += 1
        seen: dict[float, float] = {}  # the quick samples recur in the sequence

        def val(n: float) -> float:
            if n not in seen:
                seen[n] = nm.norm(pw.restrict(f, fam(n)), S).value
            return seen[n]

        quick = [val(2.0 ** k) for k in (0, 3, 6, 9, 12)]
        if quick[-1] == 0.0 or quick[-1] < 1e-3 * max(quick[0], EPS_LIMIT):
            continue
        decision, vals = vanishing_sequence(val, 16, 60)
        if decision is False:
            witness = {"shape": shape, "scale": r,
                       "center": t0 if shape == "spike" else None,
                       "norms": list(vals[-6:])}
            return FamilySearchReport(True, witness, tried)
    return FamilySearchReport(False, None, tried)


def oc_point(f: PPL, CX: SpaceDescriptor, method: str = "closed-form") -> OCVerdict:
    """Entry point used by the command-line front end."""
    if method == "closed-form":
        return oc_point_closed_form(f, CX)
    if method == "theorem":
        return oc_point_via_characterization(f, CX)
    if method == "direct":
        if CX.tag == "cesaro" and not nm.cx_nontrivial(CX):
            return _trivial_point(CX)
        _require_membership(f, CX)
        report = direct_oc_check(f, CX)
        ev = {"norms": list(report.norms[-6:]), "family": report.family}
        return _verdict_from_flag(report.decision, "point",
                                  "direct-definition", ev)
    if method == "all":
        verdicts = [oc_point_closed_form(f, CX),
                    oc_point_via_characterization(f, CX),
                    oc_point(f, CX, "direct")]
        trail = [(v.rule, v.verdict) for v in verdicts]
        flags = {v.is_oc for v in verdicts if v.is_oc is not None}
        if len(flags) > 1:
            return OCVerdict("point", VERDICT_UNDECIDED, "method-conflict",
                             {"verdicts": trail})
        for v in verdicts:
            if v.verdict != VERDICT_UNDECIDED:
                return OCVerdict("point", v.verdict, v.rule,
                                 {"verdicts": trail})
        return OCVerdict("point", VERDICT_UNDECIDED, verdicts[0].rule,
                         {"verdicts": trail})
    raise MethodInapplicableError(f"unknown method {method!r}")
