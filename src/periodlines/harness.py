"""Executable versions of the periodic-line lemmas and the main overlap
theorem: build lines, test the overlap hypotheses, search for the concluded
algebraic witnesses, and re-verify every witness through the backend.

Search bounds are experiment parameters, not claims: the statements assert
existence of witnesses but give no bound on the exponents, so "no witness
within bounds" is an unknown, except where the backend's exact oracle
decides: commensurability of loxodromic elements on the free and free
product backends, read off their cyclic cores (backends._Backend.commensurate).
"""

import math
from dataclasses import dataclass, field

from .geometry import GeometryError, neighborhood_contains, neighborhood_profile, periodic_line
from .constants import AcylUnavailable, C_and_f, F_of_r, K_of_r, k_trim


class HypothesisError(ValueError):
    """A stated precondition of the lemma/theorem is violated by the inputs."""


@dataclass
class HarnessResult:
    status: str  # "witness" | "no-witness-within-bounds" | "hypothesis-failed"
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "witness"


@dataclass
class TheoremInstance:
    backend: object
    a: str
    b: str
    x: str
    y: str
    r: int
    max_exponent: int = 8


def require_overlap_parameter(r: int) -> None:
    """Refuse a negative overlap parameter r: no point lies in a negative
    neighborhood of a path, so the statements take r >= 0."""
    if r < 0:
        raise HypothesisError(f"need r >= 0, got {r}")


def require_exponent_bound(max_exponent: int) -> None:
    """Refuse an exponent bound below 1: the searches look for nonzero
    exponents up to it, so a smaller bound searches nothing and its empty
    answer would read as a measurement."""
    if max_exponent < 1:
        raise HypothesisError(f"need max_exponent >= 1, got {max_exponent}")


def _require_loxodromic_shortest(backend, g: str, name: str) -> int:
    """|g|, once g's cyclic core, one normal-form pass, has shown g
    loxodromic (the core is longer than elliptic_core_len) and shortest in
    its class (the core is as long as g's normal form, so conj is empty:
    on every backend with a core, normal forms are geodesics).  Without a
    core neither hypothesis is certified, and g is refused as such."""
    exact = backend.cyclic_core(g)
    if exact is None:
        raise HypothesisError(f"{name} is not certified loxodromic: "
                              "the backend gives no conjugacy core")
    conj, core = exact
    if len(core) <= backend.elliptic_core_len:
        raise HypothesisError(f"{name} is not loxodromic")
    if conj:
        raise HypothesisError(f"{name} is not shortest in its conjugacy class")
    return len(core)


def lemma41_check(backend, b: str, x_p: str, x_q: str, window: int, r: int,
                  profile=None, max_exponent: int = 8) -> HarnessResult:
    """Parallel b-periodic lines: if finite window subpaths of L(x_p, b) and
    L(x_q, b) have both endpoint pairs within r, search for n != 0 such that
    the phase difference element centralizes b^n.  A window below 1 is
    refused before b is classified or a line is built."""
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
    # A = phase vertex of the q-line, B = phase vertex of the p-line
    z = backend.mul(backend.inv(backend.normal_form(x_q)), backend.normal_form(x_p))
    powers = _powers(backend, b, max_exponent)
    for n in range(1, max_exponent + 1):
        bn = powers[n]
        if backend.equal(backend.mul(z, bn), backend.mul(bn, z)):
            # re-verify via the conjugation form before emitting
            if not backend.equal(backend.mul(backend.mul(backend.inv(z), bn), z), bn):
                raise RuntimeError("witness failed re-verification")
            details.update(backend.centralizer_note(z, b))
            return HarnessResult("witness", {"n": n, "element": z}, details)
    return HarnessResult("no-witness-within-bounds", None, details)


def _powers(backend, g: str, n: int) -> dict[int, str]:
    """{k: g^k for 0 < |k| <= n}: one state per sign, which each power
    appends the letters of g or of inv(g) to, rendered once per power."""
    backend.check_word(g)
    out = {}
    for sign, base in ((1, g), (-1, backend.inv(g))):
        acc = backend.parse_state("")
        for k in range(1, n + 1):
            for c in base:
                backend.append_letter(acc, c)
            out[sign * k] = backend.render(acc)
    return out


def _witness_search(backend, a: str, b: str, x: str, y: str, max_exponent: int):
    """{s, t} with (x^-1 y) b^s (y^-1 x) = a^t by _conjugate_powers, or None.
    y's letters are checked before x's, so a bad letter in both is named
    from y.

    The backend's exact oracle is asked first.  u b^s u^-1 = a^t with s,
    t != 0 makes a and b commensurable through u^-1, and every caller has
    required a and b to be loxodromic, so their powers are nontrivial: an
    exact "non-commensurable" rules out every (s, t) at every u and bound,
    and no power is built.  Without an oracle, or for a commensurable pair
    (whose oracle conjugator need not be u), the bounded search runs."""
    backend.check_word(y)
    backend.check_word(x)
    exact = backend.commensurate(a, b)
    if exact is not None and exact[0] is None:
        return None
    u = backend.mul(backend.inv(x), y)
    return _conjugate_powers(backend, _powers(backend, a, max_exponent), b, u, max_exponent)


def _conjugate_powers(backend, powers_a: dict, b: str, u: str, max_exponent: int):
    """{s, t} with u b^s u^-1 = a^t, 0 < |s| <= max_exponent, over the power
    table of a, by |s| + |t|, then s ascending, then t positive first, or
    None.  The conjugate c = u b u^-1 is built once and its powers by
    _powers: (u b u^-1)^s = u b^s u^-1, so they stand for the elements of
    the conjugated powers of b.  Only pairs whose element keys agree are
    compared: identical words match, and any other pair asks
    backend.equal.  The hit is re-verified in the conjugation form
    u^-1 a^t u = b^s against b's own power, built for the hit alone, so the
    check does not rest on the table that found it."""
    u_inv = backend.inv(u)
    conj_b = _powers(backend, backend.mul(backend.mul(u, b), u_inv), max_exponent)
    bucket = {}
    for t, w in powers_a.items():
        bucket.setdefault(backend.element_key(w), []).append(t)
    pairs = sorted(((s, t) for s, w in conj_b.items()
                    for t in bucket.get(backend.element_key(w), ())),
                   key=lambda st: (abs(st[0]) + abs(st[1]), st[0], -st[1]))
    for s, t in pairs:
        if conj_b[s] == powers_a[t] or backend.equal(conj_b[s], powers_a[t]):
            b_s = _powers(backend, b, abs(s))[s]
            if not backend.equal(backend.mul(backend.mul(u_inv, powers_a[t]), u), b_s):
                raise RuntimeError("witness failed re-verification")
            return {"s": s, "t": t}
    return None


def _b_window(backend, a: str, b: str, y: str, r: int, lo_phase: int, hi_phase: int):
    """Window of L(y, b) wide enough to cover the a-phase range
    [lo_phase, hi_phase] of L(x, a) plus slack r on both sides.  The window
    is symmetric so that b running against a's orientation is covered too."""
    la = backend.length(a)[0]
    lb = backend.length(b)[0]
    slack = (r + la) // max(1, lb) + 2
    lo = (lo_phase * la) // max(1, lb) - slack
    hi = -((-hi_phase * la) // max(1, lb)) + slack
    lo, hi = min(lo, -hi), max(hi, -lo)
    return periodic_line(backend, y, b, lo, hi)


def _require_theorem_hypotheses(inst: TheoremInstance) -> None:
    if (_require_loxodromic_shortest(inst.backend, inst.a, "a")
            < _require_loxodromic_shortest(inst.backend, inst.b, "b")):
        raise HypothesisError("|a| must be >= |b|")


def _overlap_witness(inst: TheoremInstance, r: int, first_phase: int,
                     min_periods: int) -> HarnessResult:
    """The step both theorems share: if phases [first_phase, first_phase + n]
    of L(x, a), n = max(min_periods, 2), lie in the r-neighborhood of the
    L(y, b) window over the same phases, search for the witness."""
    backend = inst.backend
    n_periods = max(min_periods, 2)
    details = {"r": r, "periods": n_periods, "required_periods": min_periods}
    lo, hi = first_phase, first_phase + n_periods
    p = periodic_line(backend, inst.x, inst.a, lo, hi)
    q = _b_window(backend, inst.a, inst.b, inst.y, r, lo, hi)
    if not neighborhood_contains(p, q, r, backend):
        return HarnessResult("hypothesis-failed", None,
                             {**details, "reason": "a-line window not in r-neighborhood of b-line"})
    witness = _witness_search(backend, inst.a, inst.b, inst.x, inst.y, inst.max_exponent)
    if witness is None:
        return HarnessResult("no-witness-within-bounds", None, details)
    return HarnessResult("witness", witness, details)


def weak_theorem_check(inst: TheoremInstance, profile=None,
                       min_periods: int | None = None) -> HarnessResult:
    """Overlap hypothesis at parameter r with enough a-periods implies a
    commensurability witness (x^-1 y) b^s (y^-1 x) = a^t.  An explicit
    min_periods below 1 is refused rather than lifted to the 2 periods the
    window always spans, which would answer it as a measurement."""
    require_overlap_parameter(inst.r)
    require_exponent_bound(inst.max_exponent)
    if min_periods is not None and min_periods < 1:
        raise HypothesisError(f"need min_periods >= 1, got {min_periods}")
    _require_theorem_hypotheses(inst)
    if min_periods is None:
        if profile is None:
            raise HypothesisError("need a profile or an explicit period count")
        min_periods = F_of_r(profile, inst.r)
    return _overlap_witness(inst, inst.r, 0, min_periods)


def main_theorem_check(inst: TheoremInstance, profile=None,
                       sharp_free: bool = False) -> HarnessResult:
    """Full overlap theorem: trim k periods off each end of the f(r)-period
    window of L(x, a) and run the weak version's step at the base overlap
    parameter on the trimmed phases [k, k + trimmed].  With sharp_free (free
    backend, r = 0) the sharp two-period threshold is used instead of the
    pipeline."""
    require_overlap_parameter(inst.r)
    require_exponent_bound(inst.max_exponent)
    backend = inst.backend
    if sharp_free:
        if backend.sharp_periods is None:
            raise HypothesisError("sharp mode is exact only for the free backend")
        if inst.r != 0:
            raise HypothesisError("sharp mode applies at r = 0")
        return weak_theorem_check(inst, None, min_periods=backend.sharp_periods)
    if profile is None:
        raise HypothesisError("profile required outside sharp mode")
    _, f = C_and_f(profile)
    needed = math.ceil(f(inst.r))
    k = k_trim(profile, inst.r)
    r_base = profile.r_base
    base_needed = F_of_r(profile, r_base)
    trimmed = needed - 2 * k
    if trimmed < base_needed:
        raise AcylUnavailable("inconsistent profile: trimming eats too many periods")
    details = {"f(r)": str(f(inst.r)), "k": k, "r_base": r_base,
               "trimmed_periods": trimmed}
    _require_theorem_hypotheses(inst)
    res = _overlap_witness(inst, r_base, k, trimmed)
    res.details.update(details)
    return res


def commensurability_search(backend, a: str, b: str, max_exponent: int = 8,
                            conjugator_bound: int = 4):
    """(g, s, t) with a^s = g^-1 b^t g, a^s and b^t nontrivial, exactly
    where the backend has an oracle (backend.commensurate) and by bounded
    search elsewhere; the certificate records which.

    The bounded search drops trivial powers, so elements of finite order
    are not called commensurable through a^s = b^t = 1.  It walks the
    conjugator ball layer by layer in BFS order, so a hit in layer d builds
    no layer beyond d.  A negative bound, or one past the backend's budget,
    is refused before either search, the oracle's included."""
    require_exponent_bound(max_exponent)
    if backend.is_identity(a) or backend.is_identity(b):
        raise HypothesisError("trivial element excluded")
    if conjugator_bound < 0:
        raise HypothesisError(f"need conjugator_bound >= 0, got {conjugator_bound}")
    backend.check_radius(conjugator_bound, "conjugator_bound")
    exact = backend.commensurate(a, b)
    if exact is not None:
        return exact
    # a state renders as "" iff it stands for the identity; a trivial power
    # of a can only match a trivial one of b, so dropping b's drops both
    powers_b = {t: w for t, w in _powers(backend, b, max_exponent).items() if w}
    for d in range(conjugator_bound + 1):
        for g, n in backend.ball(d).items():
            if n < d:
                continue
            # g a^s g^-1 = b^t, re-verified as a^s = g^-1 b^t g
            hit = _conjugate_powers(backend, powers_b, a, g, max_exponent)
            if hit is not None:
                return {"g": g, **hit}, f"bounded({max_exponent},{conjugator_bound})"
    return None, f"not found within bounds ({max_exponent},{conjugator_bound})"


def empirical_period_threshold(backend, a: str, b: str, x: str, y: str, r: int,
                               max_periods: int = 8, max_exponent: int = 8):
    """Smallest period count m such that some m-period subpath of L(x, a)
    starting at a phase in [-max_periods, max_periods] lies in the
    r-neighborhood of the L(y, b) window AND the witness search succeeds;
    None when nothing fires.  The first period of a contained subpath is
    contained too, so m is 1 iff one of those one-period pieces is.

    The answer is a conjunction, so the order of its two conjuncts cannot
    change it: the witness search, which needs no budget, runs first, and
    only where it finds a witness are the two lines built and swept."""
    require_overlap_parameter(r)
    _require_loxodromic_shortest(backend, a, "a")
    _require_loxodromic_shortest(backend, b, "b")
    if max_periods < 1:
        raise GeometryError("need max_periods >= 1")
    require_exponent_bound(max_exponent)
    if _witness_search(backend, a, b, x, y, max_exponent) is None:
        return None
    q = _b_window(backend, a, b, y, r, -max_periods, 2 * max_periods)
    p = periodic_line(backend, x, a, -max_periods, max_periods + 1)
    vertex_ok = neighborhood_profile(p, q, r, backend)
    ph = p.phase_indices
    contained = any(all(vertex_ok[i:j + 1]) for i, j in zip(ph, ph[1:]))
    return 1 if contained else None
