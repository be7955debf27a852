"""Exact constant pipeline: quasi-geodesicity constants for conjugacy-shortest
loxodromics, the period-count functions K and F, the linear bound f, and the
trimming index, all over exact rational arithmetic.

The constant mu (Hausdorff distance between a quasi-geodesic and a geodesic
with the same endpoints) has no closed form here; it is a profile input with
recorded provenance, and the shipped default heuristic is NOT derived from
anything — downstream reports must echo the mu actually used.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .geometry import QuasiParams

MU_PROVENANCES = ("user-supplied", "estimated", "default-heuristic")


class ProfileError(ValueError):
    pass


class AcylUnavailable(ProfileError):
    """The acylindricity table lacks the epsilon key a computation needs."""


def default_mu(delta: Fraction, kappa: Fraction, eps: Fraction) -> Fraction:
    """Crude stand-in for the quasi-geodesic stability constant; any true mu
    works in the pipeline, larger values only loosen it."""
    return Fraction(kappa) * (Fraction(eps) + 8 * Fraction(delta) + 1)


@dataclass(frozen=True)
class ConstantsProfile:
    """Bundle (delta, tau, mu, acyl table) with the derived integer
    quasi-geodesic constants.  All paper-style roundings happen exactly once,
    at construction: kappa0 and eps0 are rounded up to integers, and mu is
    raised minimally so that 2*delta + 2*mu is a non-negative integer."""

    delta: Fraction
    tau: Fraction
    mu: Fraction
    mu_provenance: str
    acyl: dict
    kappa0: int
    eps0: int

    @classmethod
    def create(cls, delta, tau, mu, mu_provenance: str, acyl: dict) -> "ConstantsProfile":
        delta, tau, mu = Fraction(delta), Fraction(tau), Fraction(mu)
        if delta < 0:
            raise ProfileError("delta must be >= 0")
        if tau <= 0:
            raise ProfileError("tau must be > 0")
        if mu < 0:
            raise ProfileError("mu must be >= 0")
        if mu_provenance not in MU_PROVENANCES:
            raise ProfileError(f"mu provenance must be one of {MU_PROVENANCES}")
        total = 2 * delta + 2 * mu
        if total.denominator != 1:
            mu += Fraction(math.ceil(total) - total, 2)
        table = {}
        for eps, (R, N) in acyl.items():
            eps, R = Fraction(eps), Fraction(R)
            if not isinstance(N, (int, float, Fraction)) or N % 1 or N < 1:
                raise ProfileError("acylindricity N must be a positive integer")
            table[eps] = (R, int(N))
        sigma = Fraction(8 * delta + 1, 1) / tau
        kappa0 = math.ceil(max(Fraction(3), sigma))
        eps0 = math.ceil(4 * (8 * delta + 1))
        return cls(delta, tau, mu, mu_provenance, table, kappa0, eps0)

    @property
    def r_base(self) -> int:
        """2*delta + 2*mu, an integer by construction."""
        total = 2 * self.delta + 2 * self.mu
        if total.denominator != 1:
            raise ProfileError(f"2*delta + 2*mu = {total} is not an integer; "
                               "build profiles with create()")
        return int(total)


def kappa_eps_zero(profile: ConstantsProfile) -> QuasiParams:
    """(kappa0, eps0) = (max{3, (8*delta+1)/tau}, 4*(8*delta+1)), rounded up
    to integers at profile construction."""
    return QuasiParams(Fraction(profile.kappa0), Fraction(profile.eps0))


def epsilon_of_r(profile: ConstantsProfile, r) -> Fraction:
    return 6 * Fraction(r) + 24 * profile.mu + 8 * profile.delta


def K_of_r(profile: ConstantsProfile, r: int) -> int:
    """K(r) = S + N + 1 with S = ceil(kappa0 * (R + eps0)) and (R, N) the
    acylindricity constants at eps = 6r + 24*mu + 8*delta."""
    if r < 0:
        raise ProfileError("r must be >= 0")
    eps = epsilon_of_r(profile, r)
    if eps not in profile.acyl:
        raise AcylUnavailable(f"acylindricity constants unavailable at eps={eps}")
    R, N = profile.acyl[eps]
    S = math.ceil(profile.kappa0 * (R + profile.eps0))
    return S + N + 1


def F_of_r(profile: ConstantsProfile, r: int) -> int:
    """F(r) = kappa0 * (K(2r) + eps0 + 2r + 2) + 1."""
    if r < 0:
        raise ProfileError("r must be >= 0")
    return profile.kappa0 * (K_of_r(profile, 2 * r) + profile.eps0 + 2 * r + 2) + 1


def C_and_f(profile: ConstantsProfile) -> tuple[Fraction, Callable[[int], Fraction]]:
    """C = F(2*delta+2*mu) + (6*mu + 4*delta)/tau + 2, and the linear bound
    f(r) = 2r/tau + C."""
    C = Fraction(F_of_r(profile, profile.r_base)) \
        + (6 * profile.mu + 4 * profile.delta) / profile.tau + 2

    def f(r) -> Fraction:
        return 2 * Fraction(r) / profile.tau + C

    return C, f


def k_trim(profile: ConstantsProfile, r: int) -> int:
    """Trimming index floor((f(r) - F(2*delta+2*mu)) / 2); checked against
    its closed form floor((r + 3*mu + 2*delta)/tau + 1)."""
    if r < 0:
        raise ProfileError("r must be >= 0")
    _, f = C_and_f(profile)
    k1 = math.floor((f(r) - F_of_r(profile, profile.r_base)) / 2)
    k2 = math.floor((Fraction(r) + 3 * profile.mu + 2 * profile.delta) / profile.tau + 1)
    if k1 != k2:
        raise ProfileError("inconsistent profile")
    return k1


def pipeline_report(profile: ConstantsProfile, r_values: list[int]) -> dict:
    """Full pipeline echo for a list of r values."""
    C, f = C_and_f(profile)
    rows = []
    for r in r_values:
        row = {"r": r, "eps": str(epsilon_of_r(profile, r))}
        try:
            row["K"] = K_of_r(profile, r)
        except AcylUnavailable as exc:
            row["K"] = f"unavailable: {exc}"
        try:
            row["F"] = F_of_r(profile, r)
        except AcylUnavailable as exc:
            row["F"] = f"unavailable: {exc}"
        row["f"] = str(f(r))
        row["k"] = k_trim(profile, r)
        rows.append(row)
    return {
        "kappa0": profile.kappa0,
        "eps0": profile.eps0,
        "mu": str(profile.mu),
        "mu_provenance": profile.mu_provenance,
        "C": str(C),
        "rows": rows,
    }
