"""harness.lemma41_check as it was before one commutation decided it: the
loop over n = 1..max_exponent on a power table of b, two products and an
equal per n.  The reference that the one-commutation check is tested
against."""

from periodlines.constants import K_of_r
from periodlines.geometry import periodic_line
from periodlines.harness import (
    HarnessResult,
    HypothesisError,
    _powers,
    _require_loxodromic_shortest,
    require_exponent_bound,
    require_overlap_parameter,
)


def lemma41_reference(backend, b, x_p, x_q, window, r, profile=None, max_exponent=8):
    require_overlap_parameter(r)
    require_exponent_bound(max_exponent)
    if window < 1:
        raise HypothesisError(f"need window >= 1, got {window}")
    _require_loxodromic_shortest(backend, b, "b")
    details = {"window": window, "r": r}
    if profile is not None:
        K = K_of_r(profile, r)
        details["K(r)"] = K
        if window < K:
            return HarnessResult("hypothesis-failed", None,
                                 {**details, "reason": f"window {window} < K(r) = {K}"})
    p = periodic_line(backend, x_p, b, 0, window)
    q = periodic_line(backend, x_q, b, 0, window)
    d_start = backend.dist(p.start, q.start)
    d_end = backend.dist(p.end, q.end)
    details["endpoint_distances"] = [d_start, d_end]
    if max(d_start, d_end) > r:
        return HarnessResult("hypothesis-failed", None,
                             {**details, "reason": "endpoints farther than r"})
    z = backend.mul(backend.inv(backend.normal_form(x_q)), backend.normal_form(x_p))
    powers = _powers(backend, b, max_exponent)
    for n in range(1, max_exponent + 1):
        bn = powers[n]
        if backend.equal(backend.mul(z, bn), backend.mul(bn, z)):
            if not backend.equal(backend.mul(backend.mul(backend.inv(z), bn), z), bn):
                raise RuntimeError("witness failed re-verification")
            details.update(backend.centralizer_note(z, b))
            return HarnessResult("witness", {"n": n, "element": z}, details)
    return HarnessResult("no-witness-within-bounds", None, details)
