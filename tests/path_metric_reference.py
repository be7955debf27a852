"""All-pairs path metrics: the references that geometry.hausdorff_distance
and geometry.quasi_geodesic_check are tested against.  Every distance is
backend.dist on two rendered vertices; beyond the budget a distance is its
certified lower bound, as in geometry._dist_or_bound."""

from periodlines.geometry import _dist_or_bound


def hausdorff_reference(p, q, backend):
    """Max over vertices of either path of the minimum over all vertices of
    the other path.  A minimum that is only a bound raises its
    BudgetExceeded; on a tie the exact candidate sorts first."""

    def directed(a, b):
        worst = 0
        for u in a.vertices:
            d, exc = min((_dist_or_bound(backend, u, v) for v in b.vertices),
                         key=lambda c: (c[0], c[1] is not None))
            if exc is not None:
                raise exc
            worst = max(worst, d)
        return worst

    return max(directed(p, q), directed(q, p))


def quasi_geodesic_reference(path, params, backend):
    """Violations (i, j, d) of d(v_i, v_j) >= (j - i)/kappa - eps over all
    vertex pairs, compared as Fractions.  A pair whose bound does not meet
    the threshold raises its BudgetExceeded."""
    violations = []
    verts = path.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            d, exc = _dist_or_bound(backend, verts[i], verts[j])
            if d < (j - i) / params.kappa - params.eps:
                if exc is not None:
                    raise exc
                violations.append((i, j, d))
    return violations
