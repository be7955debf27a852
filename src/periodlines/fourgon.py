"""4-gons in a Cayley graph: side elements, composition along label-equal
top sides, and the translation map."""

from dataclasses import dataclass

from .freewords import inverse_word
from .geometry import PathInGraph, concat_paths, reverse_path


class FourGonError(ValueError):
    pass


@dataclass(frozen=True)
class FourGon:
    """Closed loop of four paths p1 p2 p3 p4 with (p_i)+ = (p_{i+1})-.
    p1, p2, reverse(p3), reverse(p4) are the left, top, right and bottom
    sides; sides need not be geodesic and may intersect."""

    p1: PathInGraph
    p2: PathInGraph
    p3: PathInGraph
    p4: PathInGraph

    @property
    def sides(self):
        return (self.p1, self.p2, self.p3, self.p4)

    def validate(self, backend) -> None:
        sides = self.sides
        for i in range(4):
            u, v = sides[i].vertices[-1], sides[(i + 1) % 4].vertices[0]
            if u != v and not backend.equal(u, v):
                raise FourGonError(f"side {i + 1} does not chain to side {(i + 1) % 4 + 1}")
        loop = "".join(s.label for s in sides)
        if not backend.is_identity(loop):
            raise FourGonError("sides do not close up")


def side_elements(P: FourGon, backend) -> tuple[str, str, str, str]:
    """(L, T, R, B): the group elements of the left, top, right and bottom
    side labels (right and bottom read against their paths)."""
    L = backend.normal_form(P.p1.label)
    T = backend.normal_form(P.p2.label)
    R = backend.normal_form(inverse_word(P.p3.label))
    B = backend.normal_form(inverse_word(P.p4.label))
    return L, T, R, B


def translate_path(path: PathInGraph, g: str, backend) -> PathInGraph:
    return PathInGraph([backend.mul(g, v) for v in path.vertices], path.label,
                       path.phase_indices, path.period_element)


def translation_element(P: FourGon, Q: FourGon, backend) -> str:
    """The unique g with g * (top of Q) = top of P; defined only when the
    top labels agree as formal words."""
    if P.p2.label != Q.p2.label:
        raise FourGonError("tops not label-equal")
    return backend.mul(P.p2.vertices[0], backend.inv(Q.p2.vertices[0]))


def compose(P: FourGon, Q: FourGon, backend) -> FourGon:
    """Glue P and Q along their (label-equal) top sides after translating Q;
    the result is (p1 r1bar) r4bar (r3bar p3) p4 for r_i = g(q_i)."""
    g = translation_element(P, Q, backend)
    r1 = translate_path(Q.p1, g, backend)
    r3 = translate_path(Q.p3, g, backend)
    r4 = translate_path(Q.p4, g, backend)
    s1 = concat_paths(P.p1, reverse_path(r1), backend)
    s2 = reverse_path(r4)
    s3 = concat_paths(reverse_path(r3), P.p3, backend)
    s4 = P.p4
    S = FourGon(s1, s2, s3, s4)
    S.validate(backend)
    return S
