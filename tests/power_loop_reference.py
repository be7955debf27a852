"""The power and conjugate loops as products of whole words, one mul (or
length) per step: the references that geometry.stable_norm_estimate,
geometry.acylindricity_profile and harness._powers, which append letters to
one kept path state, are tested against.  acylindricity_profile_reference
asks the length of every pair (g, f) and returns its per-g counts
{g: (|g|, count)} after (R, N, certificate).  classify_element_reference keeps
the power loop that geometry.classify_element ran where a backend has no
conjugacy core, so the tests can show that it finds no trivial power on
the Dehn backends, where classification now says undecided."""

from fractions import Fraction


def classify_element_reference(backend, g, n_max=12):
    if backend.is_identity(g):
        return "elliptic"
    exact = backend.conjugacy_core(g)
    if exact is not None:
        return "loxodromic" if len(exact[1]) > backend.elliptic_core_len else "elliptic"
    power = ""
    for _ in range(n_max):
        power = backend.mul(power, g)
        if backend.is_identity(power):
            return "elliptic"
    return "undecided"


def stable_norm_estimate_reference(backend, g, n_max):
    best, power, by_word = None, "", []
    for n in range(1, n_max + 1):
        power = backend.mul(power, g)
        length, cert = backend.length(power)
        if cert != "exact":
            length = len(power)
            by_word.append(str(n))
        val = Fraction(length, n)
        best = val if best is None else min(best, val)
    if by_word:
        return best, f"upper_bound(n_max={n_max}, word_length_at_n={','.join(by_word)})"
    return best, f"upper_bound(n_max={n_max})"


def acylindricity_profile_reference(backend, eps, radius):
    ball = backend.ball(radius)
    small = [f for f, d in ball.items() if d <= eps]
    counts = {}
    for g, d in ball.items():
        if d < 1:
            continue
        ginv = backend.inv(g)
        c = 0
        for f in small:
            n, cert = backend.length(ginv + f + g)
            if cert == "exact" and n <= eps:
                c += 1
        counts[g] = (d, c)
    max_at = {}
    for r_thr in range(1, radius + 1):
        vals = [c for (d, c) in counts.values() if d >= r_thr]
        max_at[r_thr] = max(vals) if vals else 0
    n_est = max_at[radius]
    r_est = next(r for r in range(1, radius + 1) if max_at[r] == n_est)
    return r_est, n_est, f"observed_on_ball({radius})", counts


def powers_reference(backend, g, n):
    out = {}
    for sign, base in ((1, g), (-1, backend.inv(g))):
        acc = ""
        for k in range(1, n + 1):
            acc = backend.mul(acc, base)
            out[sign * k] = acc
    return out
