"""Seeded workloads: request generation, execution and answer checks.

A workload is an endless, deterministic sequence of rounds built from the
workload name and the seed.  Every round fills the same list of slots (a
space and a kind of function, or a battery entry and a route), each with a
fresh input, in a fresh order.  A request's ``ident`` names its slot, so
each slot is timed once per round.

Fresh inputs mean no cache keyed on the input can serve a later round from
an earlier one.  Battery entries are fixed, so their rounds multiply the
function by a fresh factor in ``ROUND_SCALE``: a positive factor keeps the
cost of a request and every answer the benchmark checks.

``execute`` is the timed part of a request.  ``check`` runs afterwards,
outside the timed span, and returns a failure message or None.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from cesarospaces import catalog as cat
from cesarospaces import documents as dc
from cesarospaces import norms as nm
from cesarospaces import oc
from cesarospaces import oracle as orc
from cesarospaces import piecewise as pw
from cesarospaces import rearrange as rr
from cesarospaces import spaces as sp
from cesarospaces.errors import NotInSpaceError

DOMAINS = (pw.UNIT, pw.HALFLINE)

# a run makes whole cycles of this many rounds; inputs that take turns
# over the rounds (``power_log``) cover the same range in every cycle
CYCLE_ROUNDS = 3

# crosscheck: each round multiplies every battery function by a factor
# drawn from here
ROUND_SCALE = (0.5, 2.0)

# queries: slots per averaged catalog space, one power-log piece per
# stratum of ``power_log`` and some step functions
QUERY_STRATA = 6
QUERY_STEPS_PER_SPACE = 9

# queries: the characterization route cross-checks the step functions of
# every THEOREM_CHECK_EVERY-th slot, in the first round only.  It costs
# several times the request itself.  Power-log pieces are not
# cross-checked: on some of them the route raises RepresentationError or
# contradicts the closed form (a library defect, see README.md).
THEOREM_CHECK_EVERY = 8

# verify: step-function slots per symmetric catalog space, 5 unless listed.
# The spaces fall into clusters of similar cost: Orlicz (1.5 s a request),
# Marcinkiewicz (0.5 s), Lorentz (0.3 s), all with a sampled norm oracle,
# then the rest (0.01 to 0.1 s).  With these counts the 11th-slowest slot,
# the tail, is the middle one of the 5 Lorentz slots, and the median falls
# among the L^p spaces, rather than between two clusters, where one
# request more or less on either side moves the figure by half.  Two
# Orlicz slots per space keep a round near 10 s.
VERIFY_SLOTS = {"orlicz": 2, "marcinkiewicz": 4}
VERIFY_SLOTS_OTHER = 5

# verify leaves out the sampled Lorentz and Marcinkiewicz oracles on
# [0, 1]: on about a third of step functions their cumulative measure
# rounds above 1 and they raise EvaluationDomainError.  Their half-line
# versions stay.  It also leaves out (L1+Linf)[0,inf): on about 1 step
# function in 500, one whose rearrangement jumps within 1 % of t = 1, the
# quadrature oracle misses the exact norm by 0.2 %, twice its tolerance.
# Both are library defects, see README.md.
VERIFY_LEFT_OUT = ("Lorentz[0,1]", "Marcinkiewicz[0,1]", "(L1+Linf)[0,inf)")

# crosscheck: no adversarial search on this entry.  On about 6 search
# seeds in 100 a restriction norm in averaged L4 comes back complex and the
# search raises TypeError (a library defect, see README.md).
ADVERSARIAL_LEFT_OUT = ("ces4-h head indicator",)

# crosscheck: families per adversarial search call.  Criterion 9 spends 60
# per entry (up to 15 s on one entry); 3 keeps a round of the whole battery
# near 7 s, so a run holds several rounds.
ADVERSARIAL_BUDGET = 3

CROSSCHECK_ROUTES = ("closed-form", "theorem", "direct")


@dataclass
class Request:
    """One unit of work; ``document`` is its canonical text form."""

    kind: str
    ident: int
    document: str
    payload: dict = field(default_factory=dict, repr=False)


def _rounds(rng: random.Random, slots: list,
            make: Callable[[int, Any, int], Request]
            ) -> Iterator[list[Request]]:
    """Endless rounds over ``slots``: ``make(ident, slot, round)`` draws
    each request's input from ``rng``, and each round is shuffled."""
    for r in itertools.count():
        requests = [make(i, slot, r) for i, slot in enumerate(slots)]
        rng.shuffle(requests)
        yield requests


# ---------------------------------------------------------------------------
# queries: parse, norm, closed-form verdict, rearrangement, serialize


def query_spaces() -> list[sp.SpaceDescriptor]:
    return [sp.cesaro_space(X) for dom in DOMAINS
            for X in cat.default_catalog(dom)]


# power-log exponents: root isolation in ``rearrange`` and the averaged
# Marcinkiewicz norm raises RepresentationError for a in about
# [-0.01, 0.025] and [-0.51, -0.49] (a library defect, see README.md), so
# exponents are drawn from these windows, which keep a margin of 0.04 or
# more around both
EXPONENTS_BELOW_0 = ((-0.9, -0.55), (-0.45, -0.05))
EXPONENTS_ABOVE_0 = ((0.075, 2.0),)


def _uniform_in(rng: random.Random, windows, part: int = 0,
                parts: int = 1) -> float:
    """Uniform over the ``part``-th of ``parts`` equal shares of a union of
    disjoint intervals."""
    total = sum(hi - lo for lo, hi in windows)
    x = rng.uniform(part * total / parts, (part + 1) * total / parts)
    for lo, hi in windows:
        if x <= hi - lo:
            return lo + x
        x -= hi - lo
    return windows[-1][1]


def power_log(rng: random.Random, domain: pw.DomainSpec, stratum: int,
              r: int) -> pw.PPL:
    """One piece c * t^a * ln(t)^k on [0, b] with a > -1, for round r.

    The six strata are k in {0, 1, 2} times a below or above 0.  The cost
    of a norm in averaged Marcinkiewicz or Lorentz moves several-fold with
    a and with b, so the three rounds of a cycle take turns: round r draws
    a from the (r mod 3)-th third of its windows and, on the half-line,
    takes b = 0.5, 1 or 2 (ln t keeps its sign for b <= 1).  A slot's mean
    over a cycle then covers the same range on every seed.
    """
    k = stratum % 3
    turn = r % CYCLE_ROUNDS
    a = _uniform_in(rng, EXPONENTS_ABOVE_0 if stratum >= 3
                    else EXPONENTS_BELOW_0, turn, CYCLE_ROUNDS)
    c = rng.uniform(0.1, 4.0) * rng.choice((-1.0, 1.0))
    b = 1.0 if domain.is_unit else (0.5, 1.0, 2.0)[turn]
    return pw.make_ppl(domain, [(0.0, b, {(a, k): c})])


def step_function(rng: random.Random, domain: pw.DomainSpec, pieces: int,
                  tail: bool, rising: bool) -> pw.PPL:
    """A signed step function of ``pieces`` pieces, drawn as
    ``catalog.random_step_function`` draws one, but with the piece count,
    the tail (half-line only) and the order of the magnitudes fixed by the
    caller, so that a slot costs about the same in every round and on
    every seed.  The cost of a norm grows with the piece count.  In
    averaged Marcinkiewicz it also takes one of two paths: the exact one
    when the running average of |f| never rises, as with falling
    magnitudes, and a numeric search, five times slower, when it does, as
    with rising ones."""
    end = 1.0 if domain.is_unit else 2.0 ** rng.randint(0, 4)
    cuts = sorted(rng.uniform(0.0, end) for _ in range(pieces - 1))
    knots = [0.0] + cuts + [end]
    sizes = sorted((rng.uniform(0.1, 4.0) for _ in range(pieces)),
                   reverse=not rising)
    rows = [(lo, hi, c * rng.choice((-1.0, 1.0)))
            for lo, hi, c in zip(knots, knots[1:], sizes) if hi > lo]
    if tail and not domain.is_unit:
        rows.append((end, 2.0 * end, rng.uniform(0.1, 1.0)))
    return pw.step_function(domain, rows)


def query_rounds(seed: int) -> Iterator[list[Request]]:
    """A power-log piece per stratum and some step functions in every
    averaged catalog space.

    In averaged Marcinkiewicz a power-log piece with a > 0 and a logarithm
    takes about a second, one without a few milliseconds, so every space
    gets one piece of each stratum rather than a random draw; every seed
    then holds the same share of costly pieces.
    """
    rng = random.Random(f"queries:{seed}")
    slots = []
    for X in query_spaces():
        xdoc = dc.dump_space(X)
        slots += [(X, xdoc, j)
                  for j in range(QUERY_STRATA + QUERY_STEPS_PER_SPACE)]

    def make(i, slot, r):
        X, xdoc, j = slot
        if j < QUERY_STRATA:
            kind, f = "power-log", power_log(rng, X.domain, j, r)
        else:
            j -= QUERY_STRATA
            kind, f = "step", step_function(rng, X.domain, 1 + j % 6,
                                            j >= 6, j % 3 != 0)
        fdoc = dc.dump_function(f)
        return Request(kind, i, fdoc + xdoc, {
            "function": fdoc, "space": xdoc,
            "theorem_check": kind == "step" and r == 0
            and i % THEOREM_CHECK_EVERY == 0})

    return _rounds(rng, slots, make)


def execute_query(req: Request) -> dict:
    f = dc.load_function(req.payload["function"])
    X = dc.load_space(req.payload["space"])
    res = nm.norm(f, X)
    try:
        verdict = oc.oc_point(f, X, method="closed-form")
    except NotInSpaceError:
        verdict = None
    r = rr.decreasing_rearrangement(f)
    doc = {
        "norm": {"value": res.value, "method": res.method,
                 "error_bound": res.error_bound},
        "oc-point": "not-in-space" if verdict is None else
        {"verdict": verdict.verdict, "rule": verdict.rule},
        "rearrangement": {
            "sup": r.sup_value, "support_measure": r.support_measure(),
            "exact": None if r.exact is None else dc.function_to_doc(r.exact)},
    }
    return {"f": f, "X": X, "norm": res, "verdict": verdict,
            "out": dc.dumps(doc)}


def check_query(req: Request, out: dict) -> str | None:
    value = out["norm"].value
    verdict = out["verdict"]
    if verdict is None and not math.isinf(value):
        return f"not-in-space raised with finite norm {value!r}"
    if verdict is not None and verdict.verdict != oc.VERDICT_TRIVIAL \
            and math.isinf(value):
        return f"verdict {verdict.verdict} for a function of infinite norm"
    if dc.loads(out["out"])["norm"]["method"] != out["norm"].method:
        return "result document does not round-trip"
    if req.payload["theorem_check"]:
        try:
            theorem = oc.oc_point_via_characterization(out["f"], out["X"])
        except NotInSpaceError:
            if verdict is not None:
                return "theorem route says not-in-space, closed form does not"
            return None
        if verdict is None:
            return "closed form says not-in-space, theorem route does not"
        if {verdict.is_oc, theorem.is_oc} == {True, False}:
            return (f"closed form {verdict.verdict} ({verdict.rule}) vs "
                    f"theorem {theorem.verdict} ({theorem.rule})")
    return None


# ---------------------------------------------------------------------------
# crosscheck: definition-level routes on the battery


def decided_entries() -> list[cat.BatteryEntry]:
    return [e for e in cat.default_battery() if e.expect in ("OC", "not-OC")]


def crosscheck_rounds(seed: int) -> Iterator[list[Request]]:
    """Every route on every decided battery entry, each round on the
    entry's function times a seeded factor.

    The search seed of an adversarial request is fixed by its slot and
    its round's place in the cycle, not drawn from the workload seed: the
    families a search tries differ in cost up to a hundredfold, and with
    seeded families the throughput moved by 0.10 to 0.13 from workload seed
    to workload seed.  Every workload seed and every cycle now run the
    same searches, on freshly scaled functions."""
    rng = random.Random(f"crosscheck:{seed}")
    slots = []
    for e in decided_entries():
        slots += [(route, e) for route in CROSSCHECK_ROUTES]
        if e.expect == "OC" and e.label not in ADVERSARIAL_LEFT_OUT:
            slots.append(("adversarial", e))

    def make(i, slot, r):
        route, e = slot
        factor = rng.uniform(*ROUND_SCALE)
        doc = {"entry": e.label, "route": route, "factor": factor}
        s = None
        if route == "adversarial":
            s = (r % CYCLE_ROUNDS) * len(slots) + i
            doc.update(budget=ADVERSARIAL_BUDGET, seed=s)
        return Request(route, i, dc.dumps(doc), {
            "entry": e, "f": pw.scale(e.f, factor), "seed": s})

    return _rounds(rng, slots, make)


def execute_crosscheck(req: Request) -> Any:
    p = req.payload
    if req.kind == "adversarial":
        return oc.adversarial_family_search(p["f"], p["entry"].space,
                                            budget=ADVERSARIAL_BUDGET,
                                            seed=p["seed"])
    return oc.oc_point(p["f"], p["entry"].space, method=req.kind)


def check_crosscheck(req: Request, out: Any) -> str | None:
    e = req.payload["entry"]
    if req.kind == "adversarial":
        return f"witness {out.witness}" if out.found else None
    if req.kind == "closed-form":
        if out.verdict != e.expect:
            return f"verdict {out.verdict} != {e.expect}"
        if e.rule is not None and out.rule != e.rule:
            return f"rule {out.rule} != {e.rule}"
        return None
    if out.is_oc is not None and out.verdict != e.expect:
        return f"{req.kind} route contradicts: {out.verdict} != {e.expect}"
    return None


# ---------------------------------------------------------------------------
# verify: numeric oracles on step functions


def verify_spaces() -> list[sp.SpaceDescriptor]:
    return [X for dom in DOMAINS for X in cat.default_catalog(dom)
            if X.describe() not in VERIFY_LEFT_OUT]


def verify_rounds(seed: int) -> Iterator[list[Request]]:
    """Seeded step functions in the symmetric catalog spaces of
    ``verify_spaces``, a fixed piece count per slot.  One request
    runs both oracles on one input, as one call of the ``verify``
    subcommand does."""
    rng = random.Random(f"verify:{seed}")
    slots = [(X, j) for X in verify_spaces()
             for j in range(VERIFY_SLOTS.get(X.tag, VERIFY_SLOTS_OTHER))]

    def make(i, slot, r):
        X, j = slot
        name = f"step in {X.describe()}"
        f = step_function(rng, X.domain, 2 + j, j % 2 == 0, j % 2 == 1)
        return Request("step", i, dc.dumps(
            {"name": name, "function": dc.function_to_doc(f),
             "space": dc.space_to_doc(X)}), {"name": name, "f": f, "X": X})

    return _rounds(rng, slots, make)


def execute_verify(req: Request) -> list[orc.OracleReport]:
    p = req.payload
    return [orc.rearrangement_oracle(p["f"]),
            orc.quadrature_norm_oracle(p["f"], p["X"], name=p["name"])]


def check_verify(req: Request, out: list[orc.OracleReport]) -> str | None:
    failed = [report.row() for report in out if not report.passed]
    return "; ".join(failed) or None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list[Request]]]
    execute: Callable[[Request], Any]
    check: Callable[[Request, Any], str | None]


WORKLOADS = {
    "queries": Workload("queries", query_rounds, execute_query, check_query),
    "crosscheck": Workload("crosscheck", crosscheck_rounds,
                           execute_crosscheck, check_crosscheck),
    "verify": Workload("verify", verify_rounds, execute_verify, check_verify),
}


def cli_documents(seed: int, count: int) -> list[tuple[str, str]]:
    """(function, space) documents for the command-line measurements.

    Step functions in averaged L2, where the norm is always finite and
    every route is quick, so the call's cost is start-up and import rather
    than one slow route.  Averaged L4 is left out: the adversarial search
    of ``oc-point --adversarial`` raises TypeError on a third of step
    functions there (the complex norm of ``ADVERSARIAL_LEFT_OUT``).
    """
    rng = random.Random(f"cli:{seed}")
    spaces = [X for X in query_spaces()
              if X.inner.tag == "Lp" and X.inner.p == 2.0]
    out = []
    for _ in range(count):
        X = rng.choice(spaces)
        f = cat.random_step_function(rng, X.domain, signed=True,
                                     allow_tail=True)
        out.append((dc.dump_function(f), dc.dump_space(X)))
    return out
