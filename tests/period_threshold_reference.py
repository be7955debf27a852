"""The m x offset loop that harness.empirical_period_threshold replaced
with its closed form: the reference the closed form is tested against.

It profiles a 3 max_periods-period window of L(x, a), and returns the
smallest m such that some m-period subpath starting at a phase in
[-max_periods, max_periods] lies in the r-neighborhood of the L(y, b)
window, when the pairwise witness loop of witness_search_reference
succeeds, so that the reference shares no witness code with the statement."""

from periodlines.geometry import neighborhood_profile, periodic_line
from periodlines.harness import _b_window, _require_loxodromic_shortest
from witness_search_reference import witness_search_reference


def period_threshold_reference(backend, a, b, x, y, r, max_periods=8, max_exponent=8):
    _require_loxodromic_shortest(backend, a, "a")
    _require_loxodromic_shortest(backend, b, "b")
    # An m-period window is contained iff each of its m one-period pieces is,
    # so one profile of the widest window determines every (m, offset) case.
    q = _b_window(backend, a, b, y, r, -max_periods, 2 * max_periods)
    p = periodic_line(backend, x, a, -max_periods, 2 * max_periods)
    vertex_ok = neighborhood_profile(p, q, r, backend)
    la = backend.length(a)[0]
    flags = [all(vertex_ok[k * la:(k + 1) * la + 1])
             for k in range(3 * max_periods)]
    if not any(flags):
        return None
    witness = witness_search_reference(backend, a, b, x, y, max_exponent)
    if witness is None:
        return None
    for m in range(1, max_periods + 1):
        for n0 in range(-max_periods, max_periods + 1):
            i = n0 + max_periods
            if all(flags[i:i + m]):
                return m
    return None
