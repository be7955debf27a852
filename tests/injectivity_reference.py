"""The injectivity radius estimator with its shortest-in-class filter: the
reference that geometry.injectivity_radius_estimate, which keeps every
loxodromic element, is tested against.  It reads classification and
shortest conjugates off the backend's conjugacy core, so it runs only on
backends that give one."""

from periodlines.geometry import GeometryError, stable_norm_estimate


def injectivity_radius_reference(backend, length_bound, n_max=8):
    best = witness = None
    for g in backend.ball(length_bound):
        if not g:
            continue
        _, core = backend.conjugacy_core(g)
        if len(core) <= backend.elliptic_core_len:
            continue
        if backend.length(core)[0] != backend.length(g)[0]:
            continue
        val, _ = stable_norm_estimate(backend, g, n_max)
        if best is None or val < best:
            best, witness = val, g
    if best is None:
        raise GeometryError(f"no loxodromic elements in ball({length_bound})")
    return best, f"upper_bound(scan length<={length_bound}, n_max={n_max}, witness={witness!r})"
