"""Ready-made space descriptors and generators for tests and the CLI."""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import piecewise as pw
from .piecewise import INF, PPL, DomainSpec
from .spaces import (OrliczFunctionSpec, QuasiConcaveSpec, SpaceDescriptor,
                     cesaro_space, l1_cap_linf, l1_plus_linf, lebesgue,
                     lebesgue_inf, lorentz_space, marcinkiewicz_space,
                     orlicz_space)


def orlicz_square() -> OrliczFunctionSpec:
    """u**2: doubling everywhere."""
    phi = pw.make_ppl(domain_u(), [(0.0, INF, {(2.0, 0): 1.0})])
    return OrliczFunctionSpec(phi, zero_bound=0.0, finite_bound=INF)


def orlicz_square_capped() -> OrliczFunctionSpec:
    """u**2 up to 1, then +inf: small-argument doubling only."""
    phi = pw.make_ppl(domain_u(), [(0.0, 1.0, {(2.0, 0): 1.0})])
    return OrliczFunctionSpec(phi, zero_bound=0.0, finite_bound=1.0)


def orlicz_flat_capped() -> OrliczFunctionSpec:
    """0 up to 1/2, then 2u-1 up to 1, then +inf."""
    phi = pw.make_ppl(domain_u(), [(0.5, 1.0, {(1.0, 0): 2.0, (0.0, 0): -1.0})])
    return OrliczFunctionSpec(phi, zero_bound=0.5, finite_bound=1.0)


def domain_u() -> DomainSpec:
    """Argument domain for Young functions (always the half-line)."""
    return pw.HALFLINE


def sqrt_phi(domain: DomainSpec) -> QuasiConcaveSpec:
    phi = pw.power_piece(domain, 0.0, domain.end, 1.0, 0.5)
    return QuasiConcaveSpec(phi)


def sqrt_plus_atom_phi(domain: DomainSpec) -> QuasiConcaveSpec:
    """1 + sqrt(t): jumps at zero, unbounded on the half-line."""
    phi = pw.make_ppl(domain, [(0.0, domain.end,
                                {(0.0, 0): 1.0, (0.5, 0): 1.0})])
    return QuasiConcaveSpec(phi)


def bounded_sqrt_phi(domain: DomainSpec) -> QuasiConcaveSpec:
    """sqrt(t) capped at 1: continuous at zero, bounded at infinity."""
    if domain.is_unit:
        phi = pw.power_piece(domain, 0.0, 1.0, 1.0, 0.5)
        return QuasiConcaveSpec(phi)
    phi = pw.make_ppl(domain, [(0.0, 1.0, {(0.5, 0): 1.0}),
                               (1.0, INF, {(0.0, 0): 1.0})])
    return QuasiConcaveSpec(phi)


def atom_phi(domain: DomainSpec) -> QuasiConcaveSpec:
    """Constant 1: pure atom at zero, bounded."""
    phi = pw.step_function(domain, [(0.0, domain.end, 1.0)])
    return QuasiConcaveSpec(phi)


def default_catalog(domain: DomainSpec) -> list[SpaceDescriptor]:
    """Symmetric spaces exercised by the cross-space tests.

    On the unit interval the intersection space coincides with L-infinity,
    so it is listed only on the half-line.
    """
    spaces = [
        lebesgue(1.0, domain),
        lebesgue(2.0, domain),
        lebesgue(4.0, domain),
        lebesgue_inf(domain),
        l1_plus_linf(domain),
        orlicz_space(orlicz_square(), domain),
        lorentz_space(sqrt_phi(domain)),
        marcinkiewicz_space(sqrt_phi(domain)),
    ]
    if not domain.is_unit:
        spaces.insert(4, l1_cap_linf(domain))
    return spaces


def random_step_function(rng: random.Random, domain: DomainSpec,
                         max_pieces: int = 6, signed: bool = True,
                         allow_tail: bool = False) -> PPL:
    """Random finite step function with dyadic-ish breakpoints."""
    n = rng.randint(1, max_pieces)
    end = 1.0 if domain.is_unit else 2.0 ** rng.randint(0, 4)
    cuts = sorted(rng.uniform(0.0, end) for _ in range(n - 1))
    knots = [0.0] + cuts + [end]
    rows = []
    for lo, hi in zip(knots, knots[1:]):
        if hi <= lo:
            continue
        c = rng.uniform(0.1, 4.0)
        if signed and rng.random() < 0.5:
            c = -c
        rows.append((lo, hi, c))
    if allow_tail and not domain.is_unit and rng.random() < 0.3:
        rows.append((end, 2.0 * end, rng.uniform(0.1, 1.0)))
    if not rows:
        rows = [(0.0, end, 1.0)]
    return pw.step_function(domain, rows)


@dataclass(frozen=True)
class BatteryEntry:
    """One point-verdict scenario with its independently derived answer.

    ``expect`` is "OC", "not-OC", "trivial-space", or "not-in-space";
    ``rule`` pins the closed-form decision path when not None.  ``oracle``
    turns off the sampled norm cross-check for inputs past its resolution
    (noted in ``note``).
    """

    label: str
    f: PPL
    space: SpaceDescriptor
    expect: str
    rule: str | None = None
    oracle: bool = True
    note: str = ""


def default_battery() -> list[BatteryEntry]:
    """Point scenarios across every averaged family on both domains."""
    H = pw.HALFLINE
    U = pw.domain_from_name("unit")
    chi = lambda dom, a, b: pw.indicator(dom, a, b)
    const_h = pw.step_function(H, [(0.0, INF, 1.0)])
    const_u = pw.step_function(U, [(0.0, 1.0, 1.0)])
    invsqrt_h = pw.power_piece(H, 0.0, 1.0, 1.0, -0.5)
    invquart_h = pw.power_piece(H, 0.0, 1.0, 1.0, -0.25)
    signed_h = pw.step_function(H, [(0.0, 1.0, 1.0), (1.0, 2.0, -2.0)])
    log_spike_u = pw.make_ppl(U, [(0.0, 1.0, {(0.0, 1): -1.0})])

    ces = lambda X: cesaro_space(X)
    ces2_h = ces(lebesgue(2.0, H))
    cesinf_h = ces(lebesgue_inf(H))
    cessum_h = ces(l1_plus_linf(H))
    ceslam_h = ces(lorentz_space(sqrt_phi(H)))
    cesm_h = ces(marcinkiewicz_space(sqrt_phi(H)))
    cesorl_h = ces(orlicz_space(orlicz_square(), H))
    cescap_h = ces(orlicz_space(orlicz_square_capped(), H))
    cesflat_h = ces(orlicz_space(orlicz_flat_capped(), H))
    cesatomlam_h = ces(lorentz_space(sqrt_plus_atom_phi(H)))
    ces2_u = ces(lebesgue(2.0, U))
    ces1_u = ces(lebesgue(1.0, U))
    cesinf_u = ces(lebesgue_inf(U))
    cesatomlam_u = ces(lorentz_space(sqrt_plus_atom_phi(U)))
    cesatomm_u = ces(marcinkiewicz_space(atom_phi(U)))
    cescap_u = ces(orlicz_space(orlicz_square_capped(), U))
    cesorl_u = ces(orlicz_space(orlicz_square(), U))

    E = BatteryEntry
    return [
        E("ces2-h head indicator", chi(H, 0, 1), ces2_h, "OC",
          "averaged-power/all-points"),
        E("ces2-h interior indicator", chi(H, 1, 3), ces2_h, "OC",
          "averaged-power/all-points"),
        E("ces2-h signed step", signed_h, ces2_h, "OC",
          "averaged-power/all-points"),
        E("ces2-h quarter singularity", invquart_h, ces2_h, "OC",
          "averaged-power/all-points"),
        E("ces4-h head indicator", chi(H, 0, 1), ces(lebesgue(4.0, H)), "OC",
          "averaged-power/all-points"),
        E("ces1-h collapses", chi(H, 0, 1), ces(lebesgue(1.0, H)),
          "trivial-space", "trivial-space/tail-membership"),
        E("ces-intersection-h collapses", chi(H, 0, 1),
          ces(l1_cap_linf(H)), "trivial-space",
          "trivial-space/tail-membership"),
        E("cesinf-h head indicator", chi(H, 0, 1), cesinf_h, "not-OC",
          "averaged-power/vanishing-average"),
        E("cesinf-h interior indicator", chi(H, 1, 2), cesinf_h, "OC",
          "averaged-power/vanishing-average"),
        E("cesinf-h constant", const_h, cesinf_h, "not-OC",
          "averaged-power/vanishing-average"),
        E("cesinf-h late low step",
          pw.step_function(H, [(2.0, 4.0, 0.5)]), cesinf_h, "OC",
          "averaged-power/vanishing-average"),
        E("cesinf-h sqrt singularity", invsqrt_h, cesinf_h, "not-in-space"),
        E("cessum-h head indicator", chi(H, 0, 1), cessum_h, "OC",
          "averaged-sum-space/tail-average"),
        E("cessum-h constant", const_h, cessum_h, "not-OC",
          "averaged-sum-space/tail-average"),
        E("cessum-h sqrt singularity", invsqrt_h, cessum_h, "OC",
          "averaged-sum-space/tail-average"),
        E("ceslam-h head indicator", chi(H, 0, 1), ceslam_h, "OC",
          "averaged-lorentz/all-points"),
        E("ceslam-h interior indicator", chi(H, 2, 6), ceslam_h, "OC",
          "averaged-lorentz/all-points"),
        E("cesm-h head indicator", chi(H, 0, 1), cesm_h, "OC",
          "averaged-marcinkiewicz/vanishing-peak"),
        E("cesm-h sqrt singularity", invsqrt_h, cesm_h, "not-OC",
          "averaged-marcinkiewicz/vanishing-peak"),
        E("cesm-h interior indicator", chi(H, 1, 2), cesm_h, "OC",
          "averaged-marcinkiewicz/vanishing-peak"),
        E("cesm-h constant", const_h, cesm_h, "not-in-space"),
        E("cesorl-h head indicator", chi(H, 0, 1), cesorl_h, "OC",
          "averaged-orlicz/unbounded-generator"),
        E("cesorl-h quarter singularity", invquart_h, cesorl_h, "OC",
          "averaged-orlicz/unbounded-generator"),
        E("cescap-h head indicator", chi(H, 0, 1), cescap_h, "not-OC",
          "averaged-orlicz/capped-generator"),
        E("cescap-h interior indicator", chi(H, 1, 2), cescap_h, "OC",
          "averaged-orlicz/capped-generator"),
        E("cesflat-h head indicator", chi(H, 0, 1), cesflat_h, "not-OC",
          "averaged-orlicz/degenerate-generator"),
        E("cesatomlam-h head indicator", chi(H, 0, 1), cesatomlam_h,
          "not-OC", "averaged-lorentz/atom-unbounded"),
        E("cesatomlam-h interior indicator", chi(H, 1, 2), cesatomlam_h,
          "OC", "averaged-lorentz/atom-unbounded"),
        E("ces2-u late indicator", chi(U, 0.5, 1), ces2_u, "OC",
          "averaged-power/all-points"),
        E("ces2-u constant", const_u, ces2_u, "OC",
          "averaged-power/all-points"),
        E("ces1-u constant", const_u, ces1_u, "OC",
          "averaged-power/all-points"),
        E("cesinf-u late indicator", chi(U, 0.5, 1), cesinf_u, "OC",
          "averaged-power/vanishing-average"),
        E("cesinf-u constant", const_u, cesinf_u, "not-OC",
          "averaged-power/vanishing-average"),
        E("cesinf-u log spike", log_spike_u, cesinf_u, "not-in-space",
          oracle=False,
          note="sampled sup cannot certify a logarithmic blow-up"),
        E("cesatomlam-u late indicator", chi(U, 0.5, 1), cesatomlam_u, "OC",
          "averaged-lorentz/atom-bounded"),
        E("cesatomlam-u constant", const_u, cesatomlam_u, "not-OC",
          "averaged-lorentz/atom-bounded"),
        E("cesatomm-u late indicator", chi(U, 0.5, 1), cesatomm_u, "OC",
          "averaged-marcinkiewicz/atom-bounded"),
        E("cescap-u late indicator", chi(U, 0.5, 1), cescap_u, "OC",
          "averaged-orlicz/capped-generator"),
        E("cesorl-u constant", const_u, cesorl_u, "OC",
          "averaged-orlicz/unbounded-generator"),
    ]


__all__ = [
    "orlicz_square", "orlicz_square_capped", "orlicz_flat_capped",
    "sqrt_phi", "sqrt_plus_atom_phi", "bounded_sqrt_phi", "atom_phi",
    "default_catalog", "random_step_function", "domain_u",
    "BatteryEntry", "default_battery",
]
