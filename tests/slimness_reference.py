"""Point-pair slimness: the reference that geometry.slimness is tested
against.  Every side is listed as its vertices and edge midpoints, and a
point's distance to a side is the minimum over that side's points."""

from fractions import Fraction

from periodlines.geometry import path_from_word


def side_points_reference(backend, u, v):
    """Vertices ("v", x, None) and edge midpoints ("m", x, y) of the
    ShortLex geodesic from u to v."""
    w = backend.geodesic_word(backend.mul(backend.inv(u), v))
    verts = path_from_word(backend, u, w).vertices
    points = []
    for i, vert in enumerate(verts):
        points.append(("v", vert, None))
        if i + 1 < len(verts):
            points.append(("m", vert, verts[i + 1]))
    return points


def point_dist_reference(dist, p, q):
    """Distance between two points, summing Fractions."""
    kp, a1, a2 = p
    kq, b1, b2 = q
    if kp == "v" and kq == "v":
        return Fraction(dist(a1, b1))
    if kp == "v":
        return Fraction(min(dist(a1, b1), dist(a1, b2))) + Fraction(1, 2)
    if kq == "v":
        return Fraction(min(dist(a1, b1), dist(a2, b1))) + Fraction(1, 2)
    if {a1, a2} == {b1, b2}:
        return Fraction(0)
    return Fraction(min(dist(x, y) for x in (a1, a2) for y in (b1, b2))) + 1


def slimness_reference(backend, tri, dist):
    """Max over points of a side of the distance to the other two sides."""
    sides = [side_points_reference(backend, tri[i], tri[(i + 1) % 3]) for i in range(3)]
    return max(min(point_dist_reference(dist, p, q)
                   for q in sides[(i + 1) % 3] + sides[(i + 2) % 3])
               for i in range(3) for p in sides[i])
