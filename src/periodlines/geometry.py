"""Geometric apparatus on Cayley graphs: paths, periodic lines, quasi-geodesic
checks, hyperbolicity and acylindricity estimation, stable norms.

All distances are exact integers; derived quantities are exact Fractions.
Every estimator reports a certificate, because scan-based constants are
witnesses on a finite ball, not proofs for the whole group.
"""

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .backends import BudgetExceeded, least_rotation
from .freewords import inverse_word


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class QuasiParams:
    kappa: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.kappa < 1 or self.eps < 0:
            raise GeometryError("need kappa >= 1 and eps >= 0")


@dataclass
class PathInGraph:
    """Edge path: vertices are rendered path states (normal forms on the
    free and free product backends, Dehn-reduced words on Dehn), label is
    the formal word spelling the edges.  Periodic lines carry their phase
    vertices."""

    vertices: list[str]
    label: str
    phase_indices: list[int] | None = None
    period_element: str | None = None

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.label)


def path_from_word(backend, start: str, word: str) -> PathInGraph:
    # append_letter trusts its letter, and the label is read again later
    backend.check_word(word)
    state = backend.parse_state(start)
    vertices = [backend.render(state)]
    for c in word:
        backend.append_letter(state, c)
        vertices.append(backend.render(state))
    return PathInGraph(vertices, word)


def reverse_path(p: PathInGraph) -> PathInGraph:
    return PathInGraph(list(reversed(p.vertices)), inverse_word(p.label))


def concat_paths(p: PathInGraph, q: PathInGraph, backend) -> PathInGraph:
    """p then q.  Vertices need not be canonical words (Dehn-reduced ones are
    not), so p's end and q's start match if identical, else by equal."""
    u, v = p.vertices[-1], q.vertices[0]
    if u != v and not backend.equal(u, v):
        raise GeometryError("paths do not share an endpoint")
    return PathInGraph(p.vertices + q.vertices[1:], p.label + q.label)


def periodic_line(backend, x: str, a: str, n_min: int, n_max: int) -> PathInGraph:
    """Finite window of the line L(x, a): the broken geodesic through the
    phase vertices x * a^n, every period segment carrying the same label."""
    if backend.is_identity(a):
        raise GeometryError("period element must be nontrivial")
    if n_min >= n_max:
        raise GeometryError("need n_min < n_max")
    wa = backend.geodesic_word(a)
    start = backend.normal_form(x)
    if n_min != 0:
        step = wa if n_min > 0 else inverse_word(wa)
        start = backend.mul(start, step * abs(n_min))
    path = path_from_word(backend, start, wa * (n_max - n_min))
    path.phase_indices = [i * len(wa) for i in range(n_max - n_min + 1)]
    # geodesic_word succeeds on Dehn only inside the ball, where it is
    # normal_form's canonical word; elsewhere the two are one function
    path.period_element = wa
    return path


def _dist_or_bound(backend, u: str, v: str) -> tuple[int, BudgetExceeded | None]:
    """(d(u, v), None), or (exc.bound, exc) where the backend cannot certify
    d(u, v).  exc is the backend's BudgetExceeded, whose bound is a certified
    lower bound on d(u, v), and a caller raises it where that bound does not
    decide its answer."""
    try:
        return backend.dist(u, v), None
    except BudgetExceeded as exc:
        return exc.bound, exc


def quasi_geodesic_check(path: PathInGraph, params: QuasiParams, backend) -> list[tuple[int, int, int]]:
    """Violations (i, j, d) of d(v_i, v_j) >= (j - i)/kappa - eps over all
    vertex-to-vertex subpaths; empty list means the check passed.  A pair
    beyond the backend's budget passes when its certified lower bound meets
    the threshold, and raises BudgetExceeded otherwise.

    For each i one state, anchored at v_i, follows the label from v_i + K,
    K = floor(kappa eps), as a pair with j - i <= K has threshold <= 0;
    backend.state_dist reads d(v_i, v_j) off it: the stack's length on the
    free and free product backends, and one ball lookup of the Dehn-reduced
    stack on Dehn.  With kappa = kn/kd and eps = en/ed, d < (j - i)/kappa -
    eps is kn * (d * ed + en) < (j - i) * kd * ed, tested in integers."""
    violations = []
    label = path.label
    kn, kd = params.kappa.numerator, params.kappa.denominator
    en, ed = params.eps.numerator, params.eps.denominator
    K = kn * en // (kd * ed)
    for i in range(len(label) - K):
        state = backend.parse_state(label[i:i + K])
        for j in range(i + K + 1, len(label) + 1):
            backend.append_letter(state, label[j - 1])
            try:
                d = backend.state_dist(state)
            except BudgetExceeded as exc:
                if kn * (exc.bound * ed + en) < (j - i) * kd * ed:
                    raise
                continue
            if kn * (d * ed + en) < (j - i) * kd * ed:
                violations.append((i, j, d))
    return violations


def _cached_dist(backend):
    """dist(u, v), asking backend.dist each pair once; dist.rows[x][y] holds
    every answer, in both orientations."""
    rows = defaultdict(dict)

    def dist(u: str, v: str) -> int:
        row = rows[u]
        if v not in row:
            row[v] = rows[v][u] = backend.dist(u, v)
        return row[v]

    dist.rows = rows
    return dist


def _side_dist(dist, x, side) -> int:
    """min over y in side of d(x, y): one C-level min where the row of x
    holds every pair, else dist asked each pair in path order."""
    try:
        return min(map(dist.rows[x].__getitem__, side))
    except KeyError:
        return min(dist(x, y) for y in side)


def slimness(backend, tri, dist=None) -> Fraction:
    """Minimal delta making the geodesic triangle on the given vertices
    delta-slim, measured on vertices and edge midpoints.

    Midpoints matter: vertex-only slimness can report 0 on graphs whose
    metric hyperbolicity constant is positive (e.g. trees of triangles).
    Each side is the ShortLex geodesic between its ends.

    In doubled distances, a vertex x is 2 d(x, y) from a vertex y and
    2 min(d(x, y1), d(x, y2)) + 1 from the midpoint of an edge (y1, y2), so
    the point of another side nearest to x is a vertex.  The midpoints of
    two different edges are 2 min + 2 apart, the minimum over their four
    endpoint pairs, so the point nearest to a midpoint is a vertex too,
    unless another side has the same edge, at distance 0.  With N(x) the
    least distance from x to a vertex of the other two sides, twice the
    slimness is therefore exactly the largest of 2 N(x) over the vertices x
    of each side and, over its edges (a1, a2), of 0 where another side has
    the edge and 2 min(N(a1), N(a2)) + 1 elsewhere.  Another side has the
    edge exactly when its vertex set holds a1 and a2, since d(a1, a2) = 1
    and two vertices of a geodesic at distance 1 are consecutive on it.

    dist (from _cached_dist) is asked d(x, y) for every vertex x of a side
    and every vertex y of the other two sides: sides in order, then x and y
    in path order, the pairs and order of a scan over all point pairs, so a
    distance beyond the budget raises the same BudgetExceeded.  N(x) is the
    lesser of N(x, S) to the two other sides S (_side_dist), each taken once
    and read back where x is a vertex of two sides; a read-back, like a
    read of dist.rows, skips only pairs already asked.
    """
    return Fraction(_twice_slimness(backend, tri, dist or _cached_dist(backend), {}), 2)


def _twice_slimness(backend, tri, dist, sides) -> int:
    """Twice the slimness of tri (see slimness).  The memo sides maps an
    ordered corner pair (u, v) to the vertices of the ShortLex geodesic
    side S from u to v, their set, and a dict of the N(x, S) found so far.
    An N(x, S) is stored only after all of its distances have been asked,
    so a memo hit skips only pairs that dist was already asked.  No edge of
    a side beats worst where 2 max N(x) + 1 <= worst, so that side's edge
    loop is skipped.  A side's label is geodesic_word of the word u^-1 v,
    with no mul or inv first: each backend reduces a word in one stack
    pass, which a reduced prefix leaves as it is, so that is the word
    geodesic_word(mul(inv(u), v)) gives."""
    a, b, c = tri
    for u, v in (a, b), (b, c), (c, a):
        if (u, v) not in sides:
            w = backend.geodesic_word(inverse_word(u) + v)
            verts = path_from_word(backend, u, w).vertices
            sides[u, v] = (verts, set(verts), {})
    s0, s1, s2 = sides[a, b], sides[b, c], sides[c, a]
    worst = 0
    for (verts, _, _), (side1, set1, near1), (side2, set2, near2) in (
            (s0, s1, s2), (s1, s2, s0), (s2, s0, s1)):
        nearest = []
        for x in verts:
            n1 = near1.get(x)
            if n1 is None:
                n1 = near1[x] = _side_dist(dist, x, side1)
            n2 = near2.get(x)
            if n2 is None:
                n2 = near2[x] = _side_dist(dist, x, side2)
            nearest.append(n1 if n1 < n2 else n2)
        top = 2 * max(nearest)
        if top < worst:
            continue
        worst = top
        for a1, a2, n1, n2 in zip(verts, verts[1:], nearest, nearest[1:]):
            edge = 2 * (n1 if n1 < n2 else n2) + 1
            if edge > worst and not (a1 in set1 and a2 in set1 or a1 in set2 and a2 in set2):
                worst = edge
    return worst


def estimate_delta(backend, radius: int, max_triangles: int = 20000, seed: int = 0):
    """Max slimness over geodesic triangles with vertices in ball(radius);
    exhaustive when feasible, otherwise a seeded sample.  The result is a
    lower-bound certificate for the true hyperbolicity constant.

    All triangles share one dist cache, a row of distances per vertex
    (_cached_dist), so the backend is asked each distance once, in the order
    of the first triangle that needs it.  Sides and vertex-to-side distances are memoized (see
    _twice_slimness) for as long as triangles share them.  On an exhaustive
    scan of n elements every ordered corner pair is a side of n - 2
    triangles, so the memo lives for the whole call and builds each side
    once, with at most n(n - 1) geodesic_word calls.  Sampled triangles
    rarely share a side, and one memo for all of them would hold every side
    drawn, so there it lives for one triangle.  Neither cache skips a pair
    dist was not already asked, so the order of first asks, and with it
    every value, certificate and BudgetExceeded message, is that of a
    per-triangle slimness loop, and so of the point-pair scan (see
    slimness).  Sampled triangles are drawn one at a time, in the same
    order from the same random.Random(seed), so a call that raises early
    draws no more of them than it checks.  max_triangles below 1 is refused
    before the ball is built: a sample of no triangle would read as 0."""
    if max_triangles < 1:
        raise GeometryError(f"need max_triangles >= 1, got {max_triangles}")
    elements = list(backend.ball(radius))
    dist = _cached_dist(backend)
    total = len(elements) * (len(elements) - 1) * (len(elements) - 2) // 6
    best = 0
    if total <= max_triangles:
        sides = {}
        for tri in itertools.combinations(elements, 3):
            best = max(best, _twice_slimness(backend, tri, dist, sides))
        cert = f"lower_bound(exhaustive on ball({radius}))"
    else:
        rng = random.Random(seed)
        for _ in range(max_triangles):
            best = max(best, _twice_slimness(backend, rng.sample(elements, 3), dist, {}))
        cert = f"lower_bound(sampled {max_triangles} triangles on ball({radius}), seed={seed})"
    return Fraction(best, 2), cert


def stable_norm_estimate(backend, g: str, n_max: int):
    """min over 1 <= n <= n_max of |g^n| / n; a valid upper bound on the
    stable norm, which is the infimum of that sequence.

    One state stands for g^n: each step appends the letters of g to it.
    Where |g^n| is not exact within the backend's budget, the length of
    the state, a word for g^n (Dehn-reduced on Dehn), bounds it from above
    and stands in for it, so the minimum is still an upper bound.  The
    certificate then names those n."""
    if n_max < 1:
        raise GeometryError("n_max must be >= 1")
    backend.check_word(g)
    best = None
    power = backend.parse_state("")
    by_word = []
    for n in range(1, n_max + 1):
        for c in g:
            backend.append_letter(power, c)
        try:
            length = backend.state_dist(power)
        except BudgetExceeded:
            length = len(power)
            by_word.append(str(n))
        val = Fraction(length, n)
        best = val if best is None else min(best, val)
    if by_word:
        return best, f"upper_bound(n_max={n_max}, word_length_at_n={','.join(by_word)})"
    return best, f"upper_bound(n_max={n_max})"


def classify_element(backend, g: str) -> str:
    """'elliptic', 'loxodromic', or 'undecided'.  The identity is elliptic;
    otherwise exact where the backend gives a conjugacy core, and undecided
    where it does not.

    A loop over the powers of g could only prove g elliptic, by finding a
    trivial power, and Dehn, the backend without a core, has no torsion: a
    presentation is accepted only if it is C'(1/6), which no relator that
    is a proper power meets (verify_small_cancellation), and such a group
    is torsion-free (Lyndon-Schupp, Ch. V)."""
    if backend.is_identity(g):
        return "elliptic"
    exact = backend.cyclic_core(g)
    if exact is None:
        return "undecided"
    return "loxodromic" if len(exact[1]) > backend.elliptic_core_len else "elliptic"


def shortest_conjugate(backend, g: str):
    """Shortest element of the conjugacy class, as (conjugator, core, cert)
    with conjugator^-1 * g * conjugator = core and the core ShortLex-least
    among its cyclic rotations: the backend's cyclic core, rotated.  Every
    rotation of a cyclically reduced core is a normal form, and rotating
    the core by its prefix p conjugates it by p."""
    exact = backend.cyclic_core(g)
    if exact is None:
        raise GeometryError("the backend gives no conjugacy core")
    conj, core = exact
    i = least_rotation(core)
    return backend.mul(conj, core[:i]), core[i:] + core[:i], "exact"


def injectivity_radius_estimate(backend, length_bound: int, n_max: int = 8):
    """Upper bound on the injectivity radius: min stable-norm estimate over
    loxodromic elements of length <= length_bound.  The stable norm is a
    conjugacy invariant, so conjugates that are not shortest in their class
    bound it as well as the shortest ones do.  A negative length_bound, or
    one past the backend's budget, is refused by that name before the ball
    is built."""
    if length_bound < 0:
        raise GeometryError(f"need length_bound >= 0, got {length_bound}")
    backend.check_radius(length_bound, "length_bound")
    best = None
    witness = None
    for g in backend.ball(length_bound):
        if not g or classify_element(backend, g) != "loxodromic":
            continue
        val, _ = stable_norm_estimate(backend, g, n_max)
        if best is None or val < best:
            best, witness = val, g
    if best is None:
        raise GeometryError(f"no loxodromic elements in ball({length_bound})")
    cert = f"upper_bound(scan length<={length_bound}, n_max={n_max}, witness={witness!r})"
    return best, cert


def acylindricity_profile(backend, eps: int, radius: int):
    """Observed acylindricity constants on ball(radius): for each threshold R,
    the max over g with R <= |g| <= radius of the number of f with
    |f| <= eps and |g^-1 f g| <= eps; returns the smallest R >= 1 where that
    max stabilizes together with the stabilized count N.

    Ball words are prefix-closed and come in BFS order, so a nontrivial g
    is g' c with g' = g[:-1] one layer in and c a letter, and |g^-1 f g| =
    |c^-1 (g'^-1 f g') c| >= |g'^-1 f g'| - 2.  Each pair (g, f) keeps a
    certified floor on |g^-1 f g|: the length itself where state_dist gives
    it, the bound of its BudgetExceeded where it raises, and the parent
    pair's floor less 2 where the pair is skipped.  A pair whose parent
    floor less 2 exceeds eps has a conjugate longer than eps, so it cannot
    count: it is skipped, with no state and no lookup.  The pair f = e
    counts without a lookup.  Any other pair copies the state of g^-1,
    built once per g where some f needs it, appends the letters of f g, and
    asks state_dist; a length beyond the budget does not count."""
    if radius < 1:
        raise GeometryError("need radius >= 1")
    if eps < 0:
        raise GeometryError("need eps >= 0")
    if eps > radius:
        raise GeometryError("need eps <= radius")
    counts = _acylindricity_counts(backend, eps, backend.ball(radius))
    max_at = {}
    for r_thr in range(1, radius + 1):
        vals = [c for (d, c) in counts.values() if d >= r_thr]
        max_at[r_thr] = max(vals) if vals else 0
    n_est = max_at[radius]
    r_est = radius
    for r_thr in range(1, radius + 1):
        if max_at[r_thr] == n_est:
            r_est = r_thr
            break
    return r_est, n_est, f"observed_on_ball({radius})"


def _acylindricity_counts(backend, eps: int, ball: dict[str, int]) -> dict[str, tuple[int, int]]:
    """{g: (|g|, number of f with |f| <= eps and |g^-1 f g| <= eps)} over
    the nontrivial elements g of a ball, for eps >= 0, by the floor rule of
    acylindricity_profile.  Floors are kept for one layer only.  Ball
    elements are words over the generators, so no letter needs checking."""
    small = [f for f, d in ball.items() if d <= eps]
    layer, floors, next_floors = 1, {"": [ball[f] for f in small]}, {}
    counts = {}
    for g, d in ball.items():
        if d < 1:
            continue
        if d > layer:
            layer, floors, next_floors = d, next_floors, {}
        ginv, own, c = None, [], 0
        for f, floor in zip(small, floors[g[:-1]]):
            floor -= 2
            if floor > eps:
                pass  # the conjugate is longer than eps
            elif not f:
                floor = 0
                c += 1
            else:
                if ginv is None:
                    ginv = backend.parse_state(inverse_word(g))
                state = list(ginv)
                for letter in f + g:
                    backend.append_letter(state, letter)
                try:
                    floor = backend.state_dist(state)
                except BudgetExceeded as exc:
                    floor = exc.bound
                else:
                    if floor <= eps:
                        c += 1
            own.append(floor)
        next_floors[g] = own
        counts[g] = (d, c)
    return counts


def _left_mul(backend, c: str, state):
    """State of c * g from the state of g."""
    return backend.parse_state(c + backend.render(state))


def _skip_scan(backend, u: str, qv: list[str], r: int):
    """Exact scan for the first vertex of qv within distance r of u.

    Path vertices are 1-Lipschitz in their index, so a probe at distance
    d > r rules out the next d - r - 1 indices.  Returns (index, None) on a
    hit and (None, floor) on a miss, where floor <= d(u, qv) comes from the
    probes: between consecutive probes at distances da, db that are L
    indices apart no vertex is nearer than ceil((da + db - L) / 2), and
    past the last probe distances fall by at most 1 per index.  A miss
    leaves floor > r.  Each of these steps holds for lower bounds too, so a
    probe beyond the backend's budget counts as its certified lower bound.

    A certified lower bound <= r decides nothing, and the scan goes on to
    the next index: an exact distance <= r further on is still a hit, so an
    exact candidate wins a tie with a bound.  Only when the scan ends
    without a hit does the first such bound raise its BudgetExceeded.
    """
    m = len(qv)
    j, floor, prev, undecided = 0, None, None, None
    while j < m:
        d, exc = _dist_or_bound(backend, u, qv[j])
        if d <= r:
            if exc is None:
                return j, None
            undecided = undecided or exc
            j += 1
            continue
        if prev is not None:
            pj, pd = prev
            bound = (pd + d - (j - pj) + 1) // 2
            floor = bound if floor is None else min(floor, bound)
        prev = (j, d)
        j += d - r
    if undecided is not None:
        raise undecided
    pj, pd = prev
    bound = pd - (m - 1 - pj)
    return None, bound if floor is None else min(floor, bound)


def _neighborhood_flags(p: PathInGraph, q: PathInGraph, r: int, backend,
                        on_miss: str) -> tuple[list[bool], int]:
    """Per-vertex flags and the final radius: flags[i] is True iff
    p.vertices[i] is within distance r of some vertex of q.

    A window of backend states E_j = q_j^-1 p_i, for j within `half` of the
    last hit, follows p.  A step p_{i+1} = p_i * l is one append_letter of l
    to every state; the window moves by E_{j+1} = l_j^-1 E_j and
    E_{j-1} = l_{j-1} E_j, l_j being the j-th letter of q.  The length of a
    state is never less than d(p_i, q_j), and equals it on the free and free
    product backends, so a state of length <= r is a sound hit.  Anything
    else goes to an exact skip scan over q (see _skip_scan).  A miss leaves
    a lower bound on d(p_i, q) that falls by at most 1 per step of p, so far
    stretches of p skip their scans entirely.

    on_miss is "stop" (return at the first miss), "flag" (record it and go
    on) or "grow".  With "grow" a miss raises r to d(p_i, q): the skip scan
    is repeated at its floor, which is <= d(p_i, q) and above the radius
    that missed, until it hits, and there the floor is d(p_i, q).  Every
    vertex then counts as a hit, and the final r is the larger of the
    initial r and the largest distance from a vertex of p to q.
    """
    m = len(q.vertices)
    half = 2 * r + 1  # on a geodesic q the next hit lies within 2r + 1 of the last
    states: list = []  # states[k] is E_{j_lo + k}; empty after a miss
    j_lo = 0
    dist_floor = 0  # known lower bound on d(p_i, q)
    flags = []
    for i, u in enumerate(p.vertices):
        if i:
            letter = p.label[i - 1]
            for e in states:
                backend.append_letter(e, letter)
            dist_floor -= 1
        if dist_floor > r:
            hit = False
        else:
            lengths = [len(e) for e in states]
            best = min(lengths, default=r + 1)
            if best <= r:
                hit = True
                center = j_lo + lengths.index(best)
            else:
                center, floor = _skip_scan(backend, u, q.vertices, r)
                while center is None and on_miss == "grow":
                    r, half = floor, 2 * floor + 1
                    center, floor = _skip_scan(backend, u, q.vertices, r)
                hit = center is not None
                if hit:
                    states = [backend.parse_state(inverse_word(q.vertices[center]) + u)]
                    j_lo = center
                else:
                    states, dist_floor = [], floor
            if hit:
                lo, hi = max(0, center - half), min(m - 1, center + half)
                if j_lo < lo:
                    del states[:lo - j_lo]
                    j_lo = lo
                del states[hi - j_lo + 1:]
                while j_lo > lo:
                    j_lo -= 1
                    states.insert(0, _left_mul(backend, q.label[j_lo], states[0]))
                while j_lo + len(states) <= hi:
                    j = j_lo + len(states)
                    states.append(_left_mul(backend, inverse_word(q.label[j - 1]), states[-1]))
        flags.append(hit)
        if not hit and on_miss == "stop":
            break
    return flags, r


def neighborhood_contains(p: PathInGraph, q: PathInGraph, r: int, backend) -> bool:
    """True iff every vertex of p is within distance r of some vertex of q."""
    return all(_neighborhood_flags(p, q, r, backend, "stop")[0])


def neighborhood_profile(p: PathInGraph, q: PathInGraph, r: int, backend) -> list[bool]:
    """For each vertex of p, whether it is within distance r of q."""
    return _neighborhood_flags(p, q, r, backend, "flag")[0]


def hausdorff_distance(p: PathInGraph, q: PathInGraph, backend) -> int:
    """Max over vertices of either path of the distance to the other path.

    Each direction is one pass of the neighborhood sweep whose radius only
    grows: from 0, a vertex farther from the other path than the radius
    raises it to that vertex's distance (on_miss "grow"), so the pass ends
    at the largest distance.

    Beyond the backend's budget a distance is only a certified lower bound.
    A vertex's minimum is still exact when an exact distance is <= every
    bound; otherwise BudgetExceeded is raised.  Each backend certifies
    exactly the distances up to its budget and bounds every other one by at
    least that budget, so no exact distance is above a bound, and a minimum
    is exact iff some distance from the vertex is.  The sweep decides that
    vertex by vertex: the radius is 0 or an exact distance, so a window
    state within it stands for an exact distance, and the skip scan lets an
    exact distance win a tie with a bound."""
    return max(_neighborhood_flags(p, q, 0, backend, "grow")[1],
               _neighborhood_flags(q, p, 0, backend, "grow")[1])
