"""The bounded branch of harness.commensurability_search as a candidate
loop, one equal per conjugator g and pair (s, t) in the order |s| + |t|,
then s ascending, then t positive first, over the nontrivial powers only,
and no re-verification: the reference that the shared witness search is
tested against."""

from periodlines.harness import _powers


def commensurability_reference(backend, a, b, max_exponent, conjugator_bound):
    candidates = [(s, t)
                  for total in range(2, 2 * max_exponent + 1)
                  for s in range(-max_exponent, max_exponent + 1)
                  if s and 1 <= total - abs(s) <= max_exponent
                  for t in (total - abs(s), abs(s) - total)]
    powers_a = {s: w for s, w in _powers(backend, a, max_exponent).items()
                if not backend.is_identity(w)}
    powers_b = {t: w for t, w in _powers(backend, b, max_exponent).items()
                if not backend.is_identity(w)}
    for g in backend.ball(conjugator_bound):
        g_inv = backend.inv(g)
        conj_b = {t: backend.mul(backend.mul(g_inv, bt), g) for t, bt in powers_b.items()}
        for s, t in candidates:
            if s in powers_a and t in conj_b and backend.equal(powers_a[s], conj_b[t]):
                return {"g": g, "s": s, "t": t}, f"bounded({max_exponent},{conjugator_bound})"
    return None, f"not found within bounds ({max_exponent},{conjugator_bound})"
