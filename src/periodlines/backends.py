"""Concrete computable groups: free groups, free products of two finite
cyclic groups, and C'(1/6) presentations via Dehn's algorithm.

Elements are canonical words over the backend's symmetric generating set
(lowercase = generator, uppercase = inverse).  The identity is "".
Ordering of generators and of ball enumerations is ShortLex with letter
order a < A < b < B < ...

All three backends implement the protocol of _Backend, which holds the
code they share and every backend-specific decision the geometry and the
harness need.  Each primitive has one path: on every backend dist(u, v) is
state_dist(parse_state(u^-1 v)), exact or BudgetExceeded with a certified
lower bound, and a length certificate other than "exact" means |g| > n.
On every backend ball(radius) reads one ball of ShortLex geodesics, grown
once per instance one BFS layer at a time, as far as a call needs; the one
per-backend decision is which extended words are new elements (_is_new).

Every backend also keeps mutable path states, and on every backend a
state is a stack of letters: parse_state(w) builds one, append_letter(state,
c) multiplies it by a letter on the right in place, and render(state) joins
it back into a word.  A state is empty iff it stands for the identity.
len(parse_state(w)) is never less than the word length |w| of the element
w.  It equals |w| on the free and free product backends, whose stacks hold
the normal form (one letter per syllable on the free product); on the Dehn
backend a state is the Dehn-reduced word that the real-time reduction
keeps, which can be longer than a geodesic.  state_dist(state) is |w|
itself, exact or BudgetExceeded as dist: the stack's length where it holds
the normal form, and a ball lookup of the rendered stack on Dehn.  A state
grown from parse_state("") along a path's label from its vertex v_i
stands for v_i^-1 v_j, so it gives d(v_i, v_j) without rendering either
vertex.  A loop that multiplies by a fixed word keeps one state and
appends the word's letters, so no product is reduced twice.

The Dehn backend reduces words in real time, one left-to-right stack pass
per word (Domanski-Anshel 1985; Holt 2000).
Ball membership rests on a per-presentation bound L2, proved by the
curvature count of Lyndon-Schupp (Combinatorial Group Theory, Ch. V,
Sec. 3-4): every cyclically reduced trivial word shorter than L2 is a
single symmetrized relator.  So a Dehn-reduced word u equals an element of
a layer d with |u| + d < L2 only if the element has u's length and differs
from u in one half-relator, which one index lookup per occurrence of a
half in u finds.  Only layers farther out are scanned: Dehn's algorithm,
exact under C'(1/6), compares u with each member of its bucket, the
elements of the layer on which every homomorphism to Z (a functional on
exponent sums that vanishes on each relator) takes u's value.  A lookup
grows the ball only where neither that bound nor a length floor from
those homomorphisms decides it.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from string import ascii_letters

from .freewords import _reduce, inverse_word, is_cyclically_reduced, match_roots
from .words import primitive_root


class BackendError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A budget ran out: BudgetExceeded(message, bound), bound a certified
    lower bound on the length asked for (max_radius + 1 on Dehn) or None.
    Both stay in args, so a raise runs no Python-level __init__."""

    bound = property(lambda self: self.args[1])

    def __str__(self):
        return self.args[0]


def letter_rank(c: str) -> int:
    return 2 * (ord(c.lower()) - ord("a")) + (0 if c.islower() else 1)


def shortlex_key(w: str):
    return (len(w), [letter_rank(c) for c in w])


_RANK_CHARS = str.maketrans({c: chr(letter_rank(c)) for c in ascii_letters})


def least_rotation(w: str) -> int:
    """The i whose rotation w[i:] + w[:i] is ShortLex-least, the first of
    tied ones (0 for the empty word).  Every rotation has w's length, so
    shortlex_key orders them as it orders their letters, rank by rank: as
    the strings of one character per letter rank compare, in C."""
    ranks = w.translate(_RANK_CHARS)
    return min(range(len(w)), key=lambda i: ranks[i:] + ranks[:i], default=0)


def _common_prefix_len(u: str, v: str) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


class _Backend:
    """The backend protocol, with the code the backends share.

    Arithmetic: normal_form, mul, inv, equal, is_identity.  Metric:
    dist(u, v) and geodesic_word(g) (exact, or BudgetExceeded), ball(radius)
    (check_radius(radius) raises where it would, without building it) and
    length(g) -> (n, certificate).  On every backend the ball's words are
    geodesics listed in BFS order, layer by layer, and they are
    prefix-closed: each layer is the last one extended by a letter, so a
    word w of layer d has its BFS parent w[:-1] in layer d - 1.  Each
    instance grows one ball as far as its calls ask (_grow), and a backend
    decides only which extended words are new elements (_is_new).  Path
    states are stacks of letters on every backend: parse_state,
    append_letter (free cancellation here; the free product and Dehn
    backends override both), render (a join), and state_dist, the length
    of the element a state stands for (the stack's length here; Dehn
    overrides it).  On every backend length and dist are state_dist of g
    and of u^-1 v, with "lower_bound(bound - 1)" where it raises, so
    lengths and distances are defined in one place.  On every backend a
    state is empty iff it stands for the identity: here and on the free
    product a state holds the normal form, and on Dehn it is Dehn-reduced,
    and by Dehn's lemma a nonempty Dehn-reduced word is nontrivial.
    append_letter need not check its letter, so a caller that appends the
    letters of a word checks the word once first (check_word).

    Capabilities:
    - cyclic_core(g): (conj, core) exactly, not rotated, or None where the
      backend cannot decide; it checks g's letters on every backend;
    - elliptic_core_len: an element is loxodromic iff its cyclic core is
      longer than this;
    - commensurate(a, b): (witness, certificate) from an exact oracle, or
      None;
    - centralizer_note(z, b): extra lemma 4.1 details, or {};
    - sharp_periods: the exact period threshold at r = 0, or None;
    - element_key(w): equal for equal elements.  Two words with equal
      keys are one element if they are identical, and otherwise equal
      decides.  Here the key is w itself: callers pass normal forms.

    The code here assumes canonical normal forms that are geodesic words,
    and its _is_new, cyclic_core and commensurate hold in free groups and
    free products; a backend without these properties overrides them (a
    backend without a core has no oracle).  The other capabilities default
    to "not available".
    """

    elliptic_core_len = 0
    sharp_periods = None

    def __init__(self, letters: list[str], aliases: str = ""):
        self.letters = letters
        self._letterset = frozenset(letters).union(aliases)
        self._cancelling = re.compile("|".join(c + c.swapcase() for c in letters))
        self._ranked_letters = sorted(letters, key=letter_rank)
        # The ball: its elements in BFS order as ShortLex geodesics, and the
        # index of each.  Layer d is _canon[_layer_start[d]:_layer_start[d + 1]].
        self._canon: list[str] = [""]
        self._index: dict[str, int] = {"": 0}
        self._layer_start: list[int] = [0, 1]

    def check_word(self, w: str) -> None:
        if not self._letterset.issuperset(w):
            for c in w:
                if c not in self._letterset:
                    raise BackendError(f"letter {c!r} not in generating set")

    def _free_reduce(self, w: str) -> str:
        self.check_word(w)
        return w if self._cancelling.search(w) is None else _reduce(w)

    def equal(self, u: str, v: str) -> bool:
        return self.normal_form(u) == self.normal_form(v)

    def is_identity(self, w: str) -> bool:
        return self.normal_form(w) == ""

    def mul(self, u: str, v: str) -> str:
        return self.normal_form(u + v)

    def inv(self, w: str) -> str:
        return self.normal_form(inverse_word(w))

    def length(self, g: str) -> tuple[int, str]:
        try:
            return self.state_dist(self.parse_state(g)), "exact"
        except BudgetExceeded as exc:
            return exc.bound - 1, f"lower_bound({exc.bound - 1})"

    def dist(self, u: str, v: str) -> int:
        try:
            return self.state_dist(self.parse_state(inverse_word(u) + v))
        except BackendError:
            self.check_word(u)  # name a bad letter of u as written, not as in u^-1
            raise

    def geodesic_word(self, g: str) -> str:
        return self.normal_form(g)

    def check_radius(self, radius: int, name: str = "ball radius") -> None:
        """Raise as ball(radius) would before building anything: BackendError
        for a negative radius (and BudgetExceeded past a budget, on Dehn, whose
        message calls the radius name: a caller passes its parameter's name)."""
        if radius < 0:
            raise BackendError("radius must be >= 0")

    def ball(self, radius: int) -> dict[str, int]:
        """Every element at distance <= radius with its exact distance,
        in deterministic ShortLex BFS order."""
        self.check_radius(radius)
        self._grow(radius)
        # canonical words are geodesics: a word's length is its distance
        return {w: len(w) for w in self._canon[:self._layer_start[radius + 1]]}

    def _grow(self, radius: int) -> None:
        """Grow the ball up to radius.  A w c that cancels freely is w[:-1], of
        the layer before w's; the other candidates come in ShortLex order, so
        the first word reaching an element is its ShortLex geodesic."""
        while len(self._layer_start) <= radius + 1:
            d = len(self._layer_start) - 1
            for w in self._canon[self._layer_start[d - 1]:self._layer_start[d]]:
                for c in self._ranked_letters:
                    cand = w + c
                    if w[-1:] != c.swapcase() and self._is_new(cand, d):
                        self._index[cand] = len(self._canon)
                        self._canon.append(cand)
            self._layer_start.append(len(self._canon))

    def _is_new(self, cand: str, d: int) -> bool:
        """Whether cand, a word of layer d - 1 extended by a letter that does
        not cancel, is an element no built layer holds: here iff it is its
        own normal form, since normal forms are the unique geodesics."""
        return self.normal_form(cand) == cand

    def append_letter(self, state: list[str], c: str) -> None:
        if state and state[-1] == c.swapcase():
            state.pop()
        else:
            state.append(c)

    def parse_state(self, w: str) -> list[str]:
        return list(self._free_reduce(w))

    def render(self, state: list[str]) -> str:
        return "".join(state)

    def state_dist(self, state: list[str]) -> int:
        """|g| for the element g a state stands for, which is d(v, v g) for
        a state anchored at a vertex v: exact, or BudgetExceeded as dist.
        A stack that holds the normal form, a geodesic, has that length."""
        return len(state)

    def cyclic_core(self, g: str) -> tuple[str, str] | None:
        """(conj, core) with conj^-1 g conj = core and core cyclically
        reduced, hence shortest in the conjugacy class of g.  The core is
        not rotated: conj is a prefix of g's normal form w, and conj is
        empty iff core is w.

        In a free group or a free product every element is conjugate to a
        cyclically reduced word, unique up to cyclic permutation
        (Lyndon-Schupp, Ch. IV, Sec. 1).  One pass over w from both ends
        finds it, with no product of words.  Letters of w are syllables,
        so its two end letters fold together exactly when the last one
        times the first, read onto a one-letter state, is shorter than two
        letters.  A pair that cancels is stripped and the pass goes on.  A
        pair that merges into one letter (two syllables of one finite
        factor) ends it: the merged letter lies in the factor of the last
        letter, the next first letter in the other factor."""
        w = self.normal_form(g)
        i, j = 0, len(w)
        while j - i >= 2:
            ends = [w[j - 1]]
            self.append_letter(ends, w[i])
            if len(ends) == 2:
                break
            if ends:  # w[i]^-1 w[i:j] w[i] = w[i + 1:j - 1] (w[j - 1] w[i])
                return w[:i + 1], w[i + 1:j - 1] + ends[0]
            i, j = i + 1, j - 1
        return w[:i], w[i:j]

    def element_key(self, w: str):
        return w

    def commensurate(self, a: str, b: str):
        """Exact commensurability of loxodromic a and b: ({g, s, t} with
        g^-1 b^t g = a^s and s > 0, or None, certificate), read off their
        cyclic cores by freewords.match_roots, with the backend's inverse
        (on Z/2, x is its own inverse, so not its swapcase), and verified
        by the word problem before it is returned.  On a free group this is
        freewords.free_commensurate's witness.  None where a core is
        missing or at most elliptic_core_len long: elements of finite order
        are left to the bounded search."""
        cores = [self.cyclic_core(a), self.cyclic_core(b)]
        if None in cores or min(len(core) for _, core in cores) <= self.elliptic_core_len:
            return None
        res = match_roots(*cores, self.inv)
        if res is None:
            return None, "exact: non-commensurable"
        g, s, t = self.normal_form(res[0]), res[1], res[2]
        b_t = b * t if t > 0 else inverse_word(b) * -t
        if not self.equal(inverse_word(g) + b_t + g, a * s):
            raise RuntimeError("witness failed to verify")
        return {"g": g, "s": s, "t": t}, "exact"

    def centralizer_note(self, z: str, b: str) -> dict:
        return {}


class FreeBackend(_Backend):
    """Free group of given rank; reduced words are the normal forms and the
    unique geodesics."""

    sharp_periods = 2

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise BackendError(f"rank must be in 1..26, got {rank}")
        lowers = [chr(ord("a") + i) for i in range(rank)]
        super().__init__([c for low in lowers for c in (low, low.upper())])

    def normal_form(self, w: str) -> str:
        return self._free_reduce(w)

    def centralizer_note(self, z: str, b: str) -> dict:
        """Centralizers are cyclic, so z commutes with a power of b iff z is
        a power of b's primitive root.  b must be cyclically reduced: then
        every power of the root is a reduced word."""
        if not z:
            return {}
        c, _ = primitive_root(self.normal_form(b))
        member = primitive_root(z)[0] in (c, inverse_word(c))
        return {"centralizer_member": member, "primitive_root": c}


class FreeProductBackend(_Backend):
    """Free product of two finite cyclic groups of orders 2 or 3.

    The generating set consists of all nontrivial elements of each factor,
    so word length equals syllable count.  Factor 0 uses letter 'x',
    factor 1 uses 'y'; for an order-3 factor the uppercase letter is the
    inverse (the square), for an order-2 factor the letter is self-inverse
    and the uppercase form is accepted as an alias.

    A path state is the stack of canonical letters of the normal form, one
    letter per syllable.  A letter read onto the stack merges with the
    last one through the product table of same-factor letter pairs.
    """

    elliptic_core_len = 1  # a single syllable lies in a finite factor

    def __init__(self, orders: tuple[int, int] = (2, 3)):
        if len(orders) != 2 or any(o not in (2, 3) for o in orders):
            raise BackendError("orders must be a pair drawn from {2, 3}")
        self.orders = tuple(orders)
        letters, aliases = [], ""
        # canonical letter of each input letter, and the product of each
        # same-factor pair of canonical letters ("" where they cancel)
        self._canonical: dict[str, str] = {}
        self._product: dict[str, str] = {}
        for base, o in zip("xy", self.orders):
            up = base.upper()
            if o == 3:
                letters += [base, up]
                self._canonical.update({base: base, up: up})
                self._product.update({base + base: up, base + up: "",
                                      up + base: "", up + up: base})
            else:
                letters.append(base)
                aliases += up
                self._canonical.update({base: base, up: base})
                self._product[base + base] = ""
        super().__init__(letters, aliases)

    def parse_state(self, w: str) -> list[str]:
        state: list[str] = []
        for c in w:
            self.append_letter(state, c)
        return state

    def append_letter(self, state: list[str], c: str) -> None:
        try:
            c = self._canonical[c]
        except KeyError:
            raise BackendError(f"letter {c!r} not in generating set") from None
        merged = self._product.get(state[-1] + c) if state else None
        if merged is None:
            state.append(c)
        elif merged:
            state[-1] = merged
        else:
            state.pop()

    def normal_form(self, w: str) -> str:
        return "".join(self.parse_state(w))


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def __post_init__(self):
        for g in self.generators:
            if not (len(g) == 1 and g.isascii() and g.islower()):
                raise BackendError(f"bad generator {g!r}")
        if len(set(self.generators)) != len(self.generators):
            raise BackendError("duplicate generators")
        for rel in self.relators:
            if not rel:
                raise BackendError("empty relator")
            for c in rel:
                if c.lower() not in self.generators:
                    raise BackendError(f"relator letter {c!r} unknown")
            if not is_cyclically_reduced(rel):
                raise BackendError(f"relator {rel!r} not cyclically reduced")

    def symmetrized_occurrences(self) -> list[str]:
        """All cyclic permutations of each relator and of its inverse, one
        entry per occurrence (duplicates kept: a repeated word signals a
        relator overlapping itself)."""
        occ = []
        for rel in self.relators:
            for w in (rel, inverse_word(rel)):
                for i in range(len(w)):
                    occ.append(w[i:] + w[:i])
        return occ

    def symmetrized(self) -> list[str]:
        seen = []
        for w in self.symmetrized_occurrences():
            if w not in seen:
                seen.append(w)
        return seen


def parse_presentation(text: str) -> Presentation:
    """File format: line `gens: a,b,...`, then `rel: <word>` lines.
    Uppercase letters denote inverses.  Blank lines and `#` comments
    are ignored."""
    gens: tuple[str, ...] | None = None
    rels: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            gens = tuple(g.strip() for g in line[len("gens:"):].split(",") if g.strip())
        elif line.startswith("rel:"):
            rels.append(line[len("rel:"):].strip())
        else:
            raise BackendError(f"unparseable line {raw!r}")
    if gens is None:
        raise BackendError("missing gens: line")
    if not rels:
        raise BackendError("no relators")
    return Presentation(gens, tuple(rels))


def longest_pieces(p: Presentation) -> list[int]:
    """For each relator, the length of the longest piece it contains.

    A piece is a common prefix of two distinct occurrences in the symmetrized
    closure (occurrences in cyclic words correspond to prefixes of cyclic
    shifts), and it lies in the relators of both.  An occurrence's longest
    common prefix with any other is reached at a neighbour in sorted order,
    so one sort replaces the loop over all pairs.  Identical occurrences,
    a relator overlapping itself completely, sort next to each other and
    share a piece of full length.
    """
    occ = p.symmetrized_occurrences()
    owner = [i for i, rel in enumerate(p.relators) for _ in range(2 * len(rel))]
    order = sorted(range(len(occ)), key=occ.__getitem__)
    longest = [0] * len(p.relators)
    for i, j in zip(order, order[1:]):
        piece = _common_prefix_len(occ[i], occ[j])
        for r in (owner[i], owner[j]):
            longest[r] = max(longest[r], piece)
    return longest


def verify_small_cancellation(p: Presentation, lambda_denominator: int) -> bool:
    """True iff every piece is strictly shorter than 1/lambda_denominator of
    each relator containing it (see longest_pieces)."""
    return all(piece * lambda_denominator < len(rel)
               for rel, piece in zip(p.relators, longest_pieces(p)))


def _integer_kernel(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """A basis of integer vectors phi of length n with phi . row = 0 for
    every row: the rational null space by Gauss-Jordan elimination over
    Fractions, one vector per free column, each scaled to integers."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(n):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[k])]
        pivots.append(c)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        phi = [Fraction(int(c == f)) for c in range(n)]
        for row, c in enumerate(pivots):
            phi[c] = -m[row][f]
        scale = lcm(*(x.denominator for x in phi))
        basis.append(tuple(int(x * scale) for x in phi))
    return basis


def one_cell_bound(p: Presentation) -> int:
    """L2 = 2 min over relators r of (|r| - p(r)), p(r) the longest piece in
    r.  Under C'(1/6), every nonempty cyclically reduced trivial word shorter
    than L2 is a symmetrized relator.  On genus 2, L2 = 2 (8 - 1) = 14.

    Proof, by the curvature count of Lyndon-Schupp (Combinatorial Group
    Theory, Ch. V, Sec. 3-4).  Let w be cyclically reduced and trivial, and
    D a van Kampen diagram for w with the fewest cells.  D is reduced, so
    every arc along which two cells meet is labelled by a piece.  D has a
    cell, since w is not freely trivial, and no spur, where w would
    backtrack.  So D is one disc, or it has at least two discs joined by
    arcs, which w goes around in full.  A disc of one cell has perimeter
    |r| >= n_min, the shortest relator length.  If D is that disc, w is a
    symmetrized relator.  It remains to show that a reduced disc diagram M
    of two or more cells has perimeter at least L2, which exceeds n_min as
    p(r) < |r| / 6.  Then every disc has perimeter at least n_min, and two
    discs give at least 2 n_min >= L2.

    Erase the vertices of degree 2 of M, and count V vertices, E edges and
    F cells, split into interior ones and ones on the boundary cycle
    (V_b = E_b).  Euler's formula V - E + F = 1 becomes V_i - E_i + F = 1.
    An interior vertex has degree at least 3 (a degree-1 vertex would make
    a relator not cyclically reduced), and a boundary vertex meets an
    interior edge, so 2 E_i >= 3 V_i + V_b.  For a cell D let i(D) be the
    number of interior arcs and b(D) the number of boundary arcs on it, so
    that the sum of i(D) is 2 E_i and the sum of b(D) is V_b.  Then
        sum over cells D of (6 - i(D) - 2 b(D)) >= 6.
    An interior cell is bounded by pieces, each shorter than a sixth of its
    relator, so i(D) >= 7.  A boundary cell has b(D) >= 1, hence
        sum over boundary cells D of (4 - i(D)) >= 6.
    A boundary cell of relator r has at least |r| - i(D) p(r) letters on
    the boundary.  As 4 p(r) <= |r|, for i(D) = 1, 2, 3 that is at least
    (4 - i(D)) (|r| - p(r)) / 3.  No boundary cell has i(D) = 0, since it
    would be all of M, and a cell with i(D) >= 4 adds letters and no
    curvature.  So the perimeter is at least 6 min (|r| - p(r)) / 3 = L2.
    Two octagons sharing one edge show that the bound is sharp on genus 2.
    """
    return 2 * min(len(rel) - piece for rel, piece in zip(p.relators, longest_pieces(p)))


class DehnBackend(_Backend):
    """Group given by a C'(1/6) presentation.

    The word problem is solved exactly by Dehn's algorithm, run in real time
    as one left-to-right stack pass (Domanski-Anshel 1985; Holt 2000).
    Geodesic lengths and ShortLex canonical forms are certified only within
    the ball of radius max_radius, whose new words (_is_new) neither end in
    a rule key nor lie in a built layer (_member).  Ball membership of a
    Dehn-reduced word u rests on the per-presentation bound L2 (see
    one_cell_bound): in a layer d with |u| + d < L2, u can equal only a
    word of its own length that differs from it in one half-relator, which
    one index lookup per occurrence decides (see _member).  Only layers
    with |u| + d >= L2 are scanned, bucket by bucket, each member compared
    with u by Dehn's algorithm (see _scan).  On genus 2, L2 = 14: growing
    the ball to radius 6 never scans, and at the default budget neither
    does a lookup of a word whose Dehn reduction is at most 9 letters long.

    normal_form, geodesic_word and state_dist (so length and dist) look a
    Dehn-reduced u up in one place, _canonical, which grows the ball only
    where no certified bound decides.  A u longer than max_radius lies
    outside the ball if |u| + max_radius < L2 or if a homomorphism to Z
    puts its element farther out (_length_floor).  Within the budget, a u
    with 2 |u| < L2 is a geodesic whose ShortLex form is the least of u
    and its one-half-relator rewrites, and state_dist reads |u| off a u
    with 2 |u| <= L2.  Every other u is looked up in the ball, grown to
    min(|u|, max_radius).

    A path state is the stack of the real-time reduction (see _push):
    parse_state pushes a word onto an empty stack and append_letter pushes
    one letter.  The pushes continue one pass, so a state grown from
    parse_state(w) by the letters of v renders as dehn_reduce(w + v).  It
    is Dehn-reduced, so state_dist looks it up without reducing it again.
    """

    def __init__(self, presentation: Presentation, max_radius: int = 4):
        if not verify_small_cancellation(presentation, 6):
            raise BackendError("presentation is not C'(1/6); Dehn backend refused")
        self.presentation = presentation
        self.max_radius = max_radius
        super().__init__([c for g in presentation.generators for c in (g, g.upper())])
        self._l2 = one_cell_bound(presentation)
        # Replacement rules: a subword covering more than half of a
        # symmetrized relator rho = s t is replaced by the shorter t^-1.  Only
        # the shortest such s (|s| = |rho| // 2 + 1) is a key: every longer
        # one starts with it, so a word free of the keys is Dehn-reduced.
        # Under C'(1/6) two relators never share a prefix that long.
        self._rules: dict[str, str] = {}
        # Halves: a symmetrized relator rho = s t with |s| = |t| maps s to
        # t^-1, the one-cell rewrites of _member.  A shared key would be a
        # piece of half a relator, so each key has one value.
        self._halves: dict[str, str] = {}
        for rho in presentation.symmetrized():
            h = len(rho) // 2
            self._rules[rho[:h + 1]] = inverse_word(rho[h + 1:])
            if len(rho) % 2 == 0:
                self._halves[rho[:h]] = inverse_word(rho[h:])
        self._rule_lengths = sorted({len(s) for s in self._rules})
        self._half_lengths = sorted({len(s) for s in self._halves})
        # Homomorphisms to Z: functionals on exponent-sum vectors that
        # vanish on every relator.  Equal elements agree on each of them.
        # Where every relator has exponent sums 0 they are the coordinates,
        # and the key is the exponent-sum vector itself (None below).
        vectors = [self._abelian_vector(rel) for rel in presentation.relators]
        self._homs = None if not any(map(any, vectors)) else \
            _integer_kernel(vectors, len(presentation.generators))
        # the most one letter moves each homomorphism (see _length_floor)
        self._hom_steps = [max(map(abs, phi)) for phi in self._homs or ()]
        # The scan's (homomorphism values, layer) buckets hold _canon[:_bucketed],
        # filled only when a scan needs them.
        self._buckets: dict[tuple, list[int]] = {}
        self._bucketed = 0

    def _abelian_vector(self, w: str) -> tuple:
        return tuple(w.count(g) - w.count(g.upper()) for g in self.presentation.generators)

    def element_key(self, w: str) -> tuple:
        """The values of the homomorphisms to Z at w, equal for equal
        elements."""
        v = self._abelian_vector(w)
        if self._homs is None:
            return v
        return tuple(sum(f * x for f, x in zip(phi, v)) for phi in self._homs)

    def _length_floor(self, w: str) -> int:
        """A lower bound on the length of w's element from the homomorphisms
        to Z.  A letter changes one exponent sum by 1, so where those sums
        are the homomorphisms (_homs is None) the length is at least their
        L1 norm.  Otherwise a letter moves phi by at most the largest
        |phi(letter)|, so the length is at least |phi(w)| over that, for
        every phi."""
        key = self.element_key(w)
        if self._homs is None:
            return sum(map(abs, key))
        return max((-(-abs(x) // step) for x, step in zip(key, self._hom_steps)), default=0)

    def _push(self, stack: list[str], w: str) -> None:
        """Multiply the Dehn-reduced word on `stack` by w, in place.

        Letters are pushed one at a time, cancelling freely.  No rule key is
        a subword of the stack before a push, so a key can only appear as a
        suffix after it; a matched key is popped and its replacement is
        pushed before the next letter of w.  Every replacement shortens the
        word, so the pass ends, and it is linear in |w| for a fixed
        presentation.
        """
        rules, lengths = self._rules, self._rule_lengths
        todo: list[str] = []  # replacement letters still to push, last first
        for c in w:
            while True:
                if stack and stack[-1] == c.swapcase():
                    stack.pop()
                else:
                    stack.append(c)
                    for k in lengths:
                        if len(stack) >= k:
                            repl = rules.get("".join(stack[-k:]))
                            if repl is not None:
                                del stack[-k:]
                                todo.extend(reversed(repl))
                                break
                if not todo:
                    break
                c = todo.pop()

    def dehn_reduce(self, w: str) -> str:
        """A Dehn-reduced word equal to w: freely reduced, and with no
        subword that is more than half of a symmetrized relator."""
        return "".join(self.parse_state(w))

    def is_identity(self, w: str) -> bool:
        return self.dehn_reduce(w) == ""

    def equal(self, u: str, v: str) -> bool:
        return self.is_identity(u + inverse_word(v))

    def inv(self, w: str) -> str:
        return self.dehn_reduce(inverse_word(w))

    def mul(self, u: str, v: str) -> str:
        return self.dehn_reduce(u + v)

    def _rewrites(self, u: str):
        """The one-half-relator rewrites of u: u with one occurrence of a
        half of an even symmetrized relator replaced by the other half."""
        for h in self._half_lengths:
            for i in range(len(u) - h + 1):
                t = self._halves.get(u[i:i + h])
                if t is not None:
                    yield u[:i] + t + u[i + h:]

    def _member(self, u: str, radius: int) -> int | None:
        """Index of the ball element of length <= radius equal to the
        Dehn-reduced word u, or None.  Layers up to radius must be built.

        Let v be a ball element, hence a geodesic, equal to u but another
        word.  Strip their common prefix and suffix: u = p s q, v = p t q.
        If t were empty, s would be a nonempty, freely reduced, trivial
        subword of u, so by Dehn's lemma more than half of a relator would
        lie in u; an empty s would put one in the geodesic v.  So s t^-1 is
        cyclically reduced and trivial, and if |u| + |v| < L2 it is a
        symmetrized relator rho (one_cell_bound).  As u is Dehn-reduced,
        |s| <= |rho| / 2, and as v is a geodesic, |t| <= |s|: s and t^-1
        are the two halves of rho, and |v| = |u|.  Hence, of the layers d
        with |u| + d < L2, only layer |u| can hold u's element, and
        replacing one half-relator of u by the other half finds it, one
        index lookup per occurrence.  Only layers from L2 - |u| on are
        scanned, each bucket member compared with u by equal (_scan).  At
        most one element equals u, so the order of the checks does not
        change the answer.

        Lemma: if 2 |u| <= L2, u is a geodesic.  Proof: a geodesic v for
        u's element is no longer than u; were it shorter, |u| + |v| <=
        2 |u| - 1 < L2 would give |v| = |u| by the above.  On genus 2 this
        holds for |u| <= 7, and _ball_length reads such lengths off u.
        """
        if len(u) <= radius:
            idx = self._index.get(u)
            if idx is not None:
                return idx
            for v in self._rewrites(u):
                idx = self._index.get(v)
                if idx is not None:
                    return idx
        if len(u) + radius < self._l2:
            return None
        return self._scan(u, range(max(0, self._l2 - len(u)), radius + 1))

    def _scan(self, u: str, layers: range) -> int | None:
        """Index of the element of the given built layers equal to the
        word u, or None, comparing u with each member of its bucket in each
        layer by equal, which Dehn's algorithm decides exactly."""
        for idx in range(self._bucketed, len(self._canon)):
            w = self._canon[idx]
            self._buckets.setdefault((self.element_key(w), len(w)), []).append(idx)
        self._bucketed = len(self._canon)
        key = self.element_key(u)
        for layer in layers:
            for idx in self._buckets.get((key, layer), ()):
                if self.equal(u, self._canon[idx]):
                    return idx
        return None

    def _is_new(self, cand: str, d: int) -> bool:
        # a geodesic w is Dehn-reduced, so w c is too unless it ends in a
        # rule key, and then it reduces to a shorter word
        return (not any(cand[-k:] in self._rules for k in self._rule_lengths)
                and self._member(cand, d) is None)

    def check_radius(self, radius: int, name: str = "ball radius") -> None:
        super().check_radius(radius)
        if radius > self.max_radius:
            raise BudgetExceeded(f"{name} {radius} exceeds budget; largest completed "
                                 f"radius is {self.max_radius}", None)

    def _canonical(self, red: str) -> str | None:
        """The ShortLex geodesic of the element of the Dehn-reduced word red
        if that element lies in the budget ball, or None.  The ball is grown
        only where neither of these certified bounds decides, n = |red|:

        - n > max_radius: the element lies outside the ball if
          n + max_radius < L2 (_member) or if _length_floor(red) exceeds
          max_radius.
        - n <= max_radius and 2 n < L2: the answer is the ShortLex-least of
          red and its one-half-relator rewrites (_rewrites).  Proof: red
          is a geodesic, as 2 n <= L2 (_member's lemma), so its element lies
          in layer n.  Any geodesic v of that element has |red| + |v| = 2 n
          < L2, so by _member's argument v is red or one of its one-half-
          relator rewrites; and each rewrite is a word of n letters for the
          element, hence a geodesic.  The ball's word for the element is its
          ShortLex-least geodesic g, by induction on n: g without its last
          letter is the ShortLex-least geodesic of its own element, so it is
          the ball's word for that element, and _grow, which extends the
          ShortLex-sorted layer n - 1 by letters in rank order, meets the
          words of layer n in ShortLex order, g first among the element's.

        Otherwise the ball is grown to min(n, max_radius), since an element
        is no longer than any word for it, and _member looks red up.
        """
        n, radius = len(red), self.max_radius
        if n > radius:
            if n + radius < self._l2 or self._length_floor(red) > radius:
                return None
        elif 2 * n < self._l2:
            best = red  # keys are compared only where a rewrite exists
            for cand in self._rewrites(red):
                if shortlex_key(cand) < shortlex_key(best):
                    best = cand
            return best
        radius = min(n, radius)
        self._grow(radius)
        idx = self._member(red, radius)
        return None if idx is None else self._canon[idx]

    def normal_form(self, w: str) -> str:
        """ShortLex geodesic canonical form when w lies in the budget ball,
        otherwise a Dehn-reduced form (length(w) then is not exact)."""
        red = self.dehn_reduce(w)
        canon = self._canonical(red)
        return red if canon is None else canon

    def _ball_length(self, red: str) -> int | None:
        """Length of the element of the Dehn-reduced word red if it lies in
        the budget ball, or None.  A red with 2 |red| <= L2 is a geodesic
        (_member's lemma), so its length needs no rewrite."""
        n = len(red)
        if n <= self.max_radius and 2 * n <= self._l2:
            return n
        canon = self._canonical(red)
        return None if canon is None else len(canon)

    def geodesic_word(self, g: str) -> str:
        canon = self._canonical(self.dehn_reduce(g))
        if canon is None:
            raise BudgetExceeded("geodesic unavailable at budget; largest completed "
                                 f"radius is {self.max_radius}", self.max_radius + 1)
        return canon

    def parse_state(self, w: str) -> list[str]:
        self.check_word(w)
        stack: list[str] = []
        self._push(stack, w)
        return stack

    # a letter is a one-letter word
    append_letter = _push

    def state_dist(self, state: list[str]) -> int:
        # a Dehn-reduced stack can be longer than a geodesic: look it up as
        # it stands, since reducing it again would not change it.  Outside
        # the ball the element is longer than max_radius.
        n = self._ball_length(self.render(state))
        if n is None:
            raise BudgetExceeded(f"distance not certified within radius {self.max_radius}",
                                 self.max_radius + 1)
        return n

    def cyclic_core(self, g: str) -> None:
        # no certified cyclic Dehn reduction yet: every g stays undecided,
        # once its letters are checked, as on every backend
        self.check_word(g)
        return None


SURFACE_GENUS2 = Presentation(("a", "b", "c", "d"), ("abABcdCD",))


def make_backend(spec: str):
    """Parse a backend descriptor: free:<rank> | zmzn:<m>,<n> | dehn:<file>."""
    if spec.startswith("free:"):
        return FreeBackend(int(spec[len("free:"):]))
    if spec.startswith("zmzn:"):
        parts = spec[len("zmzn:"):].split(",")
        if len(parts) != 2:
            raise BackendError("zmzn backend needs two orders")
        return FreeProductBackend((int(parts[0]), int(parts[1])))
    if spec.startswith("dehn:"):
        path = spec[len("dehn:"):]
        with open(path, encoding="utf-8") as fh:
            return DehnBackend(parse_presentation(fh.read()))
    raise BackendError(f"unknown backend spec {spec!r}")
