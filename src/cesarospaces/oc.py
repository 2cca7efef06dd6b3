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
The characterization and closed-form routes read every limit off the end
germs of the averaged image and compute no norm; only the direct route and
the adversarial search sample, and their sequences refuse to decide when
samples stabilize below resolution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import cesaro as cz
from . import documents as dc
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
# the direct route's vanishing_sequence: DIRECT_K_INIT + 1 samples before
# its first decision, none past n = 2**DIRECT_K_MAX, and a bounded f whose
# peak lies above 2**DIRECT_K_MAX is inconclusive
DIRECT_K_INIT = 12
DIRECT_K_MAX = 60

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
    decaying tail 1/t on [1, inf) belongs to, f is order continuous exactly
    when its averaged modulus lies in that core (``norms.in_core``).  With
    no negative log power, a power-log phi of exponent 1 at infinity is
    ~ c*t there, so the tail lies in every nonzero core over a nonzero
    averaged space.  This route then reads the same germs as the closed
    form; the direct route and the adversarial search are the checks.
    Route (b): when the core is zero, order continuity is equivalent to
    truncation-core membership plus vanishing averages at the ends; the
    truncation core is read off the same germs (``norms.in_truncation_core``),
    and on the half-line its tail leg is the vanishing average at infinity.
    """
    if CX.tag != "cesaro":
        raise MethodInapplicableError("expected an averaged-space descriptor")
    X = CX.inner
    if not nm.cx_nontrivial(CX):
        return _trivial_point(CX)
    _require_membership(f, CX)
    evidence: dict = {}
    if f.is_zero:
        return OCVerdict("point", VERDICT_OC, "transform-image-of-core",
                         {"zero": True})
    triv = nm.xa_trivial(X)
    evidence["core_trivial"] = triv
    g = averaged_modulus(f)
    if triv:
        ok, ev = _truncation_core_and_head(g, X)
        evidence.update(ev)
        return _verdict_from_flag(ok, "point",
                                  "truncation-core-and-vanishing-average",
                                  evidence)
    return _verdict_from_flag(nm.in_core(g, X), "point",
                              "transform-image-of-core", evidence)


# ---------------------------------------------------------------------------
# closed-form rules per base-space family


def _vanishing_ends(g: PPL) -> tuple[bool, dict]:
    ev = {"vanishing_average_at_zero": vanishing_average_at_zero(g)}
    if not g.domain.is_unit:
        ev["vanishing_average_at_infinity"] = vanishing_average_at_infinity(g)
    return all(ev.values()), ev


def _truncation_core_and_head(g: PPL, X: SpaceDescriptor) -> tuple[bool, dict]:
    """Truncation-core membership (``norms.in_truncation_core``) and a
    vanishing average at 0.  On the half-line the tail leg of the
    truncation core already asks g to vanish at infinity."""
    ev = {"truncation_core": nm.in_truncation_core(g, X),
          "vanishing_average_at_zero": vanishing_average_at_zero(g)}
    return all(ev.values()), ev


def _atom_weight_verdict(g: PPL, X: SpaceDescriptor, unbounded_weight: bool,
                         family: str) -> OCVerdict:
    """The rules shared by averaged Lorentz and Marcinkiewicz spaces whose
    parameter function jumps at zero; ``family`` prefixes the rule id."""
    if unbounded_weight:
        ok, ev = _truncation_core_and_head(g, X)
        return _verdict_from_flag(ok, "point", f"{family}/atom-unbounded", ev)
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
        if not math.isfinite(spec.finite_bound):
            return _verdict_from_flag(nm.in_core(g, X), "point",
                                      "averaged-orlicz/unbounded-generator",
                                      {"core_membership_exact": True})
        # a capped Phi leaves a zero core, and the tail leg of its
        # truncation core is the vanishing average at infinity
        rule = "capped-generator" if spec.zero_bound == 0.0 \
            else "degenerate-generator"
        ok, ev = _vanishing_ends(g)
        return _verdict_from_flag(ok, "point", f"averaged-orlicz/{rule}", ev)

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
        return _atom_weight_verdict(g, X, unbounded_weight,
                                    "averaged-lorentz")

    if X.tag == "marcinkiewicz":
        spec = X.quasi
        atom = spec.atom_at_zero
        unbounded_weight = (not unit) and math.isinf(spec.value_at_end)
        if atom == 0.0:
            z0, zi = nm.peak_limits(g, spec)
            return _verdict_from_flag(z0 == zi == 0.0, "point",
                                      "averaged-marcinkiewicz/vanishing-peak",
                                      {"peak_limits_exact": True})
        return _atom_weight_verdict(g, X, unbounded_weight,
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
        return _point_witness(CX, OCVerdict(
            "space", VERDICT_UNDECIDED, "averaged-orlicz/space",
            {"doubling": flag}))
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
        return _point_witness(CX, OCVerdict(
            "space", VERDICT_UNDECIDED, "averaged-marcinkiewicz/space", {}))
    raise MethodInapplicableError(f"no averaged-space rule for {X.tag!r}")


def _point_witness(CX: SpaceDescriptor, undecided: OCVerdict) -> OCVerdict:
    """Certify an averaged space not-OC by one of its points, or keep the
    family rule's ``undecided`` verdict.

    CX is OC exactly when every f in CX is an OC point, so one f that
    ``norms.in_space`` admits and both exact point routes call not-OC
    proves CX not OC.  The candidates are the constant 1 and, for a
    Marcinkiewicz base with phi ~ t**b at an end, t**-b on [0, 1/2) and on
    [1, inf).  A missing witness decides nothing, so this never says OC.
    """
    X = CX.inner
    dom = X.domain
    candidates = [pw.step_function(dom, [(0.0, dom.end, 1.0)])]
    if X.tag == "marcinkiewicz":
        pieces = X.quasi.phi.pieces
        ends = [(0.0, 0.5, pw.germ(pieces[0].term_map(), "zero")[1])]
        if not dom.is_unit:
            ends.append((1.0, INF, pw.germ(pieces[-1].term_map(), "inf")[1]))
        # 0.0 - b: an exponent b = 0 gives t**0, not t**-0.0
        candidates += [pw.power_piece(dom, lo, hi, 1.0, 0.0 - b)
                       for lo, hi, b in ends]
    for f in candidates:
        if not nm.in_space(f, CX):
            continue
        routes = [oc_point_closed_form(f, CX),
                  oc_point_via_characterization(f, CX)]
        if all(v.verdict == VERDICT_NOT for v in routes):
            return OCVerdict("space", VERDICT_NOT, "point-witness/space",
                             {"family_rule": undecided.rule,
                              "point_rules": [v.rule for v in routes],
                              "witness": dc.function_to_doc(f)})
    return undecided


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
                    family: Callable[[float], MeasurableSet] | None = None
                    ) -> DirectCheckReport:
    """Evaluate restriction norms along a nested null family.

    Decides straight from the definition; used as an oracle against the
    characterization and closed-form routes.  The default family's
    superlevel leg {|f| > n} holds all of a bounded f's peak until n
    reaches sup|f|, where its norms sit on a plateau, so its run starts at
    the first n = 2**k >= sup|f|; a peak above 2**DIRECT_K_MAX is
    inconclusive.

    A restriction norm depends on |f| alone, so the samples restrict
    |f|, split at f's sign changes once, not f.  Each part is marked as its
    own |.| (``piecewise.restrict``), and |.| of its transform takes no
    sign split wherever every monomial is provably >= 0
    (``piecewise.absolute``).
    """
    start = 0
    if family is None:
        # nested and null by construction
        fam = default_null_family(f)
        sup = pw.essential_sup_abs(f)
        if math.isfinite(sup):
            m, e = math.frexp(sup)  # sup = m * 2**e with 0.5 <= m < 1
            start = max(0, e - 1 if m == 0.5 else e)
            if start > DIRECT_K_MAX:
                return DirectCheckReport(None, (), "default-head-and-tail")
    else:
        _validate_family(family, f.domain)
        fam = family

    g = pw.absolute(f)  # the norm reads |f| alone; its parts are marked

    def val(n: float) -> float:
        return nm.norm(pw.restrict(g, fam(n * 2.0 ** start)), S).value

    decision, vals = vanishing_sequence(val, DIRECT_K_INIT,
                                        DIRECT_K_MAX - start)
    name = "custom" if family is not None else "default-head-and-tail"
    return DirectCheckReport(decision, tuple(vals), name)


def adversarial_family_search(f: PPL, S: SpaceDescriptor, budget: int = 500,
                              seed: int = 0) -> FamilySearchReport:
    """Randomized hunt for a nested null family whose restriction norms
    stay away from zero.  A verified witness refutes order continuity."""
    rng = random.Random(seed)
    domain = f.domain
    g = pw.absolute(f)  # the norm reads |f| alone; its parts are marked
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
                seen[n] = nm.norm(pw.restrict(g, fam(n)), S).value
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
