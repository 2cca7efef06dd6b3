"""Space descriptors: the catalog of function-space norms the package knows.

Power spaces need only an exponent; Orlicz spaces carry a declared convex
generator (an exact piecewise function of the value variable, plus its
degeneracy thresholds); Lorentz and Marcinkiewicz spaces carry a declared
quasi-concave parameter function.  The averaged space is a wrapper around
any symmetric descriptor.

The generator and the parameter function are sanity-checked on probe grids
at construction, and their germ exponents at their ends are checked
exactly; violations raise ValidationError.  Neither doubling nor dilation
indices are declared: the doubling properties are read off the generator's
bounds, and ``norms.boyd_indices`` reads the indices off the germs of the
generator and the parameter function.
"""

from __future__ import annotations

import bisect
import math
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
    ``zero_bound`` (a) it vanishes.  A power-log Phi is doubling (Phi(2u)
    <= C*Phi(u)) near each end where it is finite, and vacuously near 0.
    """

    phi: PPL
    zero_bound: float = 0.0
    finite_bound: float = INF

    @property
    def delta2_zero(self) -> bool:
        return True

    @property
    def delta2_infty(self) -> bool:
        return math.isinf(self.finite_bound)

    @property
    def delta2_all(self) -> bool:
        return self.delta2_infty and self.zero_bound == 0.0

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
        # a convex Phi ~ u**b where it is finite and positive has b >= 1;
        # the membership rule and the dilation indices read b
        first, last = self.phi.pieces[0], self.phi.pieces[-1]
        low = pw.germ(first.term_map(), "zero")[1] \
            if self.zero_bound == 0.0 else 1.0
        high = pw.germ(last.term_map(), "inf")[1] \
            if math.isinf(self.finite_bound) else 1.0
        if min(low, high) < 1.0:
            raise ValidationError(
                "generator must grow like u**b with b >= 1 at 0 (zero bound "
                "0) and at infinity (no finite bound)")


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
        """``[value(t) for t in ts]`` for nondecreasing numbers ``ts``, such
        as running sums of measures, in one walk over phi's pieces with no
        test of their order (see ``piecewise.evaluate_nondecreasing``)."""
        vals = pw.evaluate_nondecreasing(self.phi, ts)
        # phi(0) = 0 by convention, as in value; nondecreasing points that
        # raise no error are >= 0, so their zeros come first
        zeros = bisect.bisect_right(ts, 0.0)
        vals[:zeros] = [0.0] * zeros
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
        # a quasi-concave phi ~ t**a at an end has 0 <= a <= 1; the
        # membership rule and the dilation indices read these exponents
        pieces = self.phi.pieces
        ends = [pw.germ(pieces[0].term_map(), "zero")[1]]
        if not self.domain.is_unit:
            ends.append(pw.germ(pieces[-1].term_map(), "inf")[1])
        if not all(0.0 <= a <= 1.0 for a in ends):
            raise ValidationError(
                "parameter function must grow like t**a with 0 <= a <= 1 "
                "at 0 and at infinity")
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
