"""Space descriptors: the catalog of function-space norms the package knows.

Power spaces need only an exponent; Orlicz spaces carry a declared convex
generator (an exact piecewise function of the value variable, plus its
degeneracy thresholds and doubling flags); Lorentz and Marcinkiewicz spaces
carry a declared quasi-concave parameter function.  The averaged space is a
wrapper around any symmetric descriptor.

Declared doubling flags are trusted; the generator and the parameter
function are sanity-checked on probe grids at construction, where hard
violations raise ValidationError and soft contradictions emit a warning.
Dilation indices are not declared: ``norms.boyd_indices`` reads them off
the germs of the generator and the parameter function.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

from . import piecewise as pw
from .errors import ValidationError
from .piecewise import INF, PPL, DomainSpec

_PROBES = [2.0 ** k for k in range(-20, 21)]


def _covers(f: PPL, lo: float, hi: float) -> bool:
    """Do the pieces of f cover [lo, hi) without a gap?"""
    pieces = pw.MeasurableSet.from_intervals(
        f.domain, [(p.lo, p.hi) for p in f.pieces])
    return pieces.contains(pw.MeasurableSet.from_intervals(f.domain,
                                                           [(lo, hi)]))


@dataclass(frozen=True)
class OrliczFunctionSpec:
    """Convex generator Phi for an Orlicz space.

    ``phi`` holds the finite part of Phi as an exact piecewise function of
    the value u; above ``finite_bound`` (b) the generator is +inf, below
    ``zero_bound`` (a) it vanishes.  Doubling flags describe Phi(2u)/Phi(u)
    boundedness near zero, near infinity, and globally.
    """

    phi: PPL
    zero_bound: float = 0.0
    finite_bound: float = INF
    delta2_zero: bool | None = None
    delta2_infty: bool | None = None
    delta2_all: bool | None = None

    def value(self, u: float) -> float:
        if u < 0.0:
            raise ValueError("generator argument must be >= 0")
        if u == 0.0:
            return 0.0
        if u > self.finite_bound:
            return INF
        if u == self.finite_bound and math.isfinite(u):
            last = self.phi.pieces[-1] if self.phi.pieces else None
            if last is not None and last.hi == u:
                return pw.eval_term_map(last.term_map(), u)
            return pw.evaluate(self.phi, u) if any(
                p.lo <= u < p.hi for p in self.phi.pieces) else INF
        return pw.evaluate(self.phi, u)

    def validate(self) -> None:
        if self.zero_bound < 0 or self.finite_bound <= 0:
            raise ValidationError("degeneracy thresholds out of order")
        if self.zero_bound > self.finite_bound:
            raise ValidationError("zero bound exceeds finite bound")
        if not _covers(self.phi, self.zero_bound, self.finite_bound):
            raise ValidationError(
                "generator pieces must cover [zero bound, finite bound)")
        probes = [u for u in _PROBES if u <= self.finite_bound]
        vals = [self.value(u) for u in probes]
        for v, w in zip(vals, vals[1:]):
            if w < v - 1e-12 * max(1.0, abs(v)):
                raise ValidationError("generator is not nondecreasing")
        for i in range(len(probes) - 2):
            u, w = probes[i], probes[i + 2]
            mid = self.value(0.5 * (u + w))
            if math.isfinite(vals[i]) and math.isfinite(vals[i + 2]):
                if mid > 0.5 * (vals[i] + vals[i + 2]) + 1e-9 * (1 + abs(mid)):
                    raise ValidationError("generator fails midpoint convexity")
        for u in probes:
            if u <= self.zero_bound and self.value(u) != 0.0:
                raise ValidationError("generator nonzero below its zero bound")
            if u > self.zero_bound and self.value(u) == 0.0 \
                    and u < self.finite_bound:
                raise ValidationError("generator zero above its zero bound")
        if self.delta2_all and (self.finite_bound < INF):
            warnings.warn("global doubling declared for a capped generator")


@dataclass(frozen=True)
class QuasiConcaveSpec:
    """Quasi-concave parameter function for Lorentz/Marcinkiewicz spaces.

    ``phi`` is the exact function on the space's own domain; the value at 0
    is 0 by convention, with the jump recorded by the limit ``atom_at_zero``.
    """

    phi: PPL

    @property
    def domain(self) -> DomainSpec:
        return self.phi.domain

    @property
    def atom_at_zero(self) -> float:
        return pw.limit_at_zero(self.phi)

    @property
    def value_at_end(self) -> float:
        """phi at the right end: the limit at infinity, or phi(1) on [0,1]."""
        if self.domain.is_unit:
            return pw.evaluate(self.phi, 1.0)
        return pw.limit_at_infinity(self.phi)

    def value(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        return pw.evaluate(self.phi, t)

    def values(self, ts: Sequence[float]) -> list[float]:
        """``[value(t) for t in ts]``; nondecreasing ``ts`` take one walk
        over phi's pieces."""
        vals = pw.evaluate_sorted(self.phi, ts)
        # phi(0) = 0 by convention, as in value
        for i in itertools.compress(itertools.count(), map(operator.not_, ts)):
            vals[i] = 0.0
        return vals

    def density(self) -> PPL:
        return pw.derivative(self.phi)

    def validate(self) -> None:
        if not _covers(self.phi, 0.0, self.domain.end):
            raise ValidationError(
                "parameter function pieces must cover the whole domain")
        atom = self.atom_at_zero
        if not (math.isfinite(atom) and atom >= 0.0):
            raise ValidationError("parameter function has no finite limit at 0")
        end = self.domain.end
        probes = [t for t in _PROBES if t < end] or [0.5]
        last = atom
        for t in probes:
            v = self.value(t)
            if v <= 0.0:
                raise ValidationError("parameter function must be positive")
            if v < last - 1e-12 * max(1.0, last):
                raise ValidationError("parameter function must be nondecreasing")
            last = v
        ratios = [self.value(t) / t for t in probes]
        for r, s in zip(ratios, ratios[1:]):
            if s > r * (1.0 + 1e-9):
                raise ValidationError("t -> phi(t)/t must be nonincreasing")


@dataclass(frozen=True)
class SpaceDescriptor:
    """One space from the catalog, with everything norms need to run."""

    tag: str
    domain: DomainSpec
    p: float | None = None
    orlicz: OrliczFunctionSpec | None = None
    quasi: QuasiConcaveSpec | None = None
    inner: "SpaceDescriptor | None" = None

    @property
    def is_symmetric(self) -> bool:
        return self.tag != "cesaro"

    def describe(self) -> str:
        dom = "[0,1]" if self.domain.is_unit else "[0,inf)"
        if self.tag == "Lp":
            return f"L{self.p:g}{dom}" if not math.isinf(self.p) else f"Linf{dom}"
        if self.tag == "L1capLinf":
            return f"(L1^Linf){dom}"
        if self.tag == "L1plusLinf":
            return f"(L1+Linf){dom}"
        if self.tag == "orlicz":
            return f"Orlicz{dom}"
        if self.tag == "lorentz":
            return f"Lorentz{dom}"
        if self.tag == "marcinkiewicz":
            return f"Marcinkiewicz{dom}"
        return f"Avg({self.inner.describe()})"


def lebesgue(p: float, domain: DomainSpec) -> SpaceDescriptor:
    if not (p >= 1.0):
        raise ValidationError("exponent must satisfy p >= 1")
    return SpaceDescriptor("Lp", domain, p=float(p))


def lebesgue_inf(domain: DomainSpec) -> SpaceDescriptor:
    return SpaceDescriptor("Lp", domain, p=INF)


def l1_cap_linf(domain: DomainSpec) -> SpaceDescriptor:
    return SpaceDescriptor("L1capLinf", domain)


def l1_plus_linf(domain: DomainSpec) -> SpaceDescriptor:
    return SpaceDescriptor("L1plusLinf", domain)


def orlicz_space(spec: OrliczFunctionSpec, domain: DomainSpec) -> SpaceDescriptor:
    spec.validate()
    return SpaceDescriptor("orlicz", domain, orlicz=spec)


def lorentz_space(spec: QuasiConcaveSpec) -> SpaceDescriptor:
    spec.validate()
    return SpaceDescriptor("lorentz", spec.domain, quasi=spec)


def marcinkiewicz_space(spec: QuasiConcaveSpec) -> SpaceDescriptor:
    spec.validate()
    return SpaceDescriptor("marcinkiewicz", spec.domain, quasi=spec)


def cesaro_space(inner: SpaceDescriptor) -> SpaceDescriptor:
    if not inner.is_symmetric:
        raise ValidationError("averaged spaces do not nest")
    return SpaceDescriptor("cesaro", inner.domain, inner=inner)
