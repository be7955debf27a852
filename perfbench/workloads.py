"""The benchmark's workloads.

Each workload turns a seed into one pass: a fixed list of operations ("ops")
that the runner repeats in a closed loop.  An op calls into the library and
returns its output; its check judges that output with the oracles in
oracles.py, never with the library:

- OK: the output is what the oracle says it must be;
- FAILED: the op raised, exited 1 or 64, or gave no answer where the oracle
  knows one exists (a refused hypothesis, a missing witness);
- WRONG: the output contradicts the oracle.
"""

import contextlib
import io
import itertools
import json
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from oracles import (
    FP_DELTA,
    FP_INJECTIVITY,
    FREE_DELTA,
    Genus2Fuchsian,
    fp_acylindricity,
    fp_ball,
    fp_commensurable,
    fp_cyclic_core,
    fp_inverse,
    fp_loxodromic_corpus,
    fp_mul,
    fp_power,
    fp_reduce,
    free_commensurable,
    free_power,
    free_reduce,
    inverse,
    primitive_root,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"

DATA = Path(__file__).resolve().parent / "data"


class Op:
    """One closed-loop operation: run(env) is timed, check(result, exc)
    returns (verdict, detail) afterwards."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def _judge(check):
    """Wrap a check of a normal return: an exception is a failure."""

    def judged(result, exc):
        if exc is not None:
            return FAILED, f"{type(exc).__name__}: {exc}"
        return check(result)

    return judged


def _rotate(w, i):
    return w[i:] + w[:i]


# ------------------------------------------------------------- free-corpus

def free_rank2_corpus(max_len=4):
    """Every cyclically reduced word of length 1..max_len over a, b."""
    out = []
    for n in range(1, max_len + 1):
        for tup in itertools.product("abAB", repeat=n):
            w = "".join(tup)
            if free_reduce(w) == w and (n < 2 or w[0] != w[-1].swapcase()):
                out.append(w)
    return out


def apportion(sizes, total):
    """Split total over the keys of sizes in proportion to them, by largest
    remainder."""
    whole = sum(sizes.values())
    quotas = {k: total * n / whole for k, n in sizes.items()}
    shares = {k: int(q) for k, q in quotas.items()}
    for k in sorted(quotas, key=lambda k: shares[k] - quotas[k])[:total - sum(shares.values())]:
        shares[k] += 1
    return shares


class FreeCorpus:
    """Pairs (a, b), |a| >= |b|, from the acceptance-4 corpus.  Stratified,
    so every pass has the corpus' share of commensurable pairs, of each pair
    of lengths (|a|, |b|) among them and among the others, and of each r in
    {0, 1, 2} within a pair of lengths: an op's cost depends mostly on these,
    so the cost of a pass varies little from seed to seed."""

    name = "free-corpus"
    COMMENSURABLE, OTHER = 18, 222

    def __init__(self, lib, seed):
        self.lib = lib
        self.free = lib.backends.FreeBackend(2)
        rng = random.Random(seed)
        corpus = free_rank2_corpus()
        comm, other = defaultdict(list), defaultdict(list)
        for a in corpus:
            for b in corpus:
                if len(a) >= len(b):
                    (comm if free_commensurable(a, b) else other)[len(a), len(b)].append((a, b))
        shares = apportion({k: len(v) for k, v in comm.items()}, self.COMMENSURABLE)
        self.ops = [self._commensurable(a, b)
                    for k, group in comm.items() for a, b in rng.sample(group, shares[k])]
        shares = apportion({(k, r): len(v) for k, v in other.items() for r in range(3)},
                           self.OTHER)
        for k, group in other.items():
            rs = [r for r in range(3) for _ in range(shares[k, r])]
            self.ops += [self._threshold(a, b, r)
                         for (a, b), r in zip(rng.sample(group, len(rs)), rs)]
        rng.shuffle(self.ops)

    def _commensurable(self, a, b):
        lib = self.lib

        def run(env):
            res = lib.freewords.overlap_root(a, b)
            if res is None:
                return None, None
            inst = lib.harness.TheoremInstance(env.free, _rotate(a, res.shift_a),
                                               _rotate(b, res.shift_b), "", "", 0)
            return res, lib.harness.weak_theorem_check(inst, None, min_periods=2)

        def check(result):
            res, out = result
            if res is None:
                return WRONG, "overlap_root missed a commensurable pair"
            ra, rb = _rotate(a, res.shift_a), _rotate(b, res.shift_b)
            cb = res.c if res.exp_b > 0 else inverse(res.c)
            if ra != res.c * res.exp_a or rb != cb * abs(res.exp_b):
                return WRONG, f"overlap root {res} does not rotate onto {a!r}, {b!r}"
            if out.status != "witness":
                return FAILED, f"status {out.status}"
            s, t = out.witness["s"], out.witness["t"]
            # x = y = "": the witness says b'^s == a'^t
            if not s or not t or free_power(rb, s) != free_power(ra, t):
                return WRONG, f"witness {out.witness} does not verify"
            return OK, ""

        return Op("commensurable", run, _judge(check))

    def _threshold(self, a, b, r):
        lib = self.lib

        def run(env):
            return lib.harness.empirical_period_threshold(env.free, a, b, "", "", r, max_periods=8)

        def check(m):
            return (OK, "") if m is None else (WRONG, f"threshold {m} for a non-commensurable pair")

        return Op(f"threshold-r{r}", run, _judge(check))


# ------------------------------------------------------------ fp-theorem

def fp_shortest_conjugate(g):
    """(w, core) with core = w^-1 g w cyclically alternating."""
    w, core = "", fp_reduce(g)
    while len(core) >= 2 and fp_cyclic_core(core) != core:
        head = core[0]
        w = fp_mul(w, head)
        core = fp_mul(fp_inverse(head), core, head)
    return w, core


class FpTheorem:
    """main_theorem_check on Z/2*Z/3 with the acceptance-10 profile, built as
    acceptance 10 builds its instances: b is the shortest conjugate w^-1 c w
    of a period word c by a short h, y = x w and r = max(1, |w|), so the
    a-line L(x, c^k) and the b-line L(y, b) overlap by construction.

    A pass holds one instance for each ratio K = |a|/|b| in {1, 2, 3} and one
    non-commensurable instance.  _b_window ignores the trim shift of k
    periods, k = 3 at r = 1 and 4 at r = 2 or 3, which leaves the last
    K(k - 1) - 3 periods of the a-line, 2K(k - 1) - 6 edges, outside the
    b-window, farther than r_base = 3 from it once that exceeds 3 + |w|.
    This breaks ratio 3 at every r, and ratio 2 at r = 2 but not at r = 1,
    so ratio 2 comes twice, with |w| <= 1 and with |w| = 2.  Ratio 1, the
    cheapest, comes twice too: with an even number of ops the median latency
    averages two ops.  Each class is (label, K or None, least |w|, largest
    |w|)."""

    name = "fp-theorem"
    CLASSES = (("ratio-1", 1, 0, 3), ("ratio-1", 1, 0, 3),
               ("ratio-2 r=1", 2, 0, 1), ("ratio-2 r=2", 2, 2, 2),
               ("ratio-3", 3, 0, 3), ("non-commensurable", None, 0, 3))
    # delta, tau, mu and the acylindricity table: f(1) = 911 periods
    PROFILE = (Fraction(1, 2), 2, 1, {64: (70, 2)})

    def __init__(self, lib, seed):
        self.lib = lib
        self.fp = lib.backends.FreeProductBackend((2, 3))
        delta, tau, mu, acyl = self.PROFILE
        self.profile = lib.constants.ConstantsProfile.create(delta, tau, mu, "user-supplied", acyl)
        rng = random.Random(seed)
        ball = fp_ball(3)
        short = sorted(w for w in ball if w)
        periods = fp_loxodromic_corpus(2)
        primitive4 = [w for w in fp_loxodromic_corpus(4)
                      if len(w) == 4 and primitive_root(w)[1] == 1
                      and not any(fp_commensurable(w, c) for c in periods)]
        self.ops = []
        for label, k, w_min, w_max in self.CLASSES:
            c = rng.choice(periods)
            while True:
                h = rng.choice(short)
                inner, b = fp_shortest_conjugate(fp_mul(fp_inverse(h), c, h))
                w = fp_mul(h, inner)
                if w_min <= len(w) <= w_max:
                    break
            x = rng.choice(sorted(v for v, d in ball.items() if d <= 2))
            a = rng.choice(primitive4) if k is None else fp_power(c, k)
            self.ops.append(self._instance(label, a, b, x, fp_mul(x, w), max(1, len(w)),
                                           k is not None))
        rng.shuffle(self.ops)

    def _instance(self, label, a, b, x, y, r, commensurable):
        lib = self.lib
        if fp_commensurable(a, b) != commensurable:
            raise AssertionError(f"instance {a!r}, {b!r} built wrongly")

        def run(env):
            inst = lib.harness.TheoremInstance(env.fp, a, b, x, y, r)
            return lib.harness.main_theorem_check(inst, self.profile)

        def check(res):
            if res.status != "witness":
                if commensurable:
                    return FAILED, f"{res.status}: {res.details.get('reason', '')}"
                return OK, ""
            if not commensurable:
                return WRONG, f"witness {res.witness} for a non-commensurable pair"
            s, t = res.witness["s"], res.witness["t"]
            u = fp_mul(fp_inverse(x), y)
            if not s or not t or fp_mul(u, fp_power(b, s), fp_inverse(u)) != fp_power(a, t):
                return WRONG, f"witness {res.witness} does not verify"
            return OK, ""

        return Op(label, run, _judge(check))


# ----------------------------------------------------------- fp-estimate

class FpEstimate:
    """The constant estimators on Z/2*Z/3 (plus free:2 for delta), and the
    Hausdorff and quasi-geodesic scans on multi-period lines of every
    conjugacy-shortest loxodromic of length <= 4, each from a seeded base
    point."""

    name = "fp-estimate"
    PERIODS = 8
    INJ_LENGTH = 6
    ACYL = (3, 10)

    def __init__(self, lib, seed):
        self.lib = lib
        self.fp = lib.backends.FreeProductBackend((2, 3))
        self.free = lib.backends.FreeBackend(2)
        # delta, tau and mu of the acceptance-10 profile fix (kappa0, eps0)
        self.profile = lib.constants.ConstantsProfile.create(
            Fraction(1, 2), 2, 1, "user-supplied", {})
        rng = random.Random(seed)
        acyl = fp_acylindricity(*self.ACYL)
        self.ops = [
            self._delta("fp", 2, FP_DELTA),
            self._delta("fp", 3, FP_DELTA),
            self._delta("free", 2, FREE_DELTA),
            Op("injectivity", lambda env: lib.geometry.injectivity_radius_estimate(
                env.fp, self.INJ_LENGTH), _judge(self._expect_value(FP_INJECTIVITY))),
            Op("acylindricity", lambda env: lib.geometry.acylindricity_profile(env.fp, *self.ACYL),
               _judge(lambda out: (OK, "") if out[:2] == acyl else (WRONG, f"{out} != {acyl}"))),
        ]
        sphere3 = sorted(w for w, d in fp_ball(3).items() if d == 3)
        for g in fp_loxodromic_corpus(4):
            # base points that do not merge with g keep every line's vertex
            # lengths, and so its cost, the same from seed to seed
            self.ops.append(self._line(g, rng.choice(
                [x for x in sphere3 if len(fp_mul(x, g)) == len(x) + len(g)])))
        rng.shuffle(self.ops)

    @staticmethod
    def _expect_value(expected):
        def check(out):
            return (OK, "") if out[0] == expected else (WRONG, f"{out[0]} != {expected}")
        return check

    def _delta(self, backend, radius, expected):
        lib = self.lib

        def run(env):
            return lib.geometry.estimate_delta(getattr(env, backend), radius)

        def check(out):
            if "exhaustive" not in out[1]:
                return WRONG, f"certificate {out[1]!r} is not exhaustive"
            return self._expect_value(expected)(out)

        return Op(f"delta-{backend}-{radius}", run, _judge(check))

    def _line(self, g, x):
        lib, n = self.lib, self.PERIODS
        # g is cyclically alternating, so g^n never cancels: the line is the
        # unique geodesic between its ends, at Hausdorff distance 0 from it
        # and free of quasi-geodesic violations at any (kappa, eps).
        if len(fp_power(g, n)) != n * len(g):
            raise AssertionError(f"{g!r} is not cyclically alternating")
        vertices = [fp_reduce(x + (g * n)[:i]) for i in range(n * len(g) + 1)]

        def run(env):
            fp, geo = env.fp, lib.geometry
            line = geo.periodic_line(fp, x, g, 0, n)
            geodesic = geo.path_from_word(fp, line.start,
                                          fp.geodesic_word(fp.mul(fp.inv(line.start), line.end)))
            params = lib.constants.kappa_eps_zero(self.profile)
            return (line.vertices, geo.hausdorff_distance(line, geodesic, fp),
                    geo.quasi_geodesic_check(line, params, fp))

        def check(out):
            verts, hd, violations = out
            if verts != vertices:
                return WRONG, "line vertices differ from x g^n"
            if hd != 0:
                return WRONG, f"Hausdorff distance {hd} to the geodesic, expected 0"
            if violations:
                return WRONG, f"quasi-geodesic violations {violations[:3]}"
            return OK, ""

        return Op(f"line-len{len(g)}", run, _judge(check))


# --------------------------------------------------------------- dehn-cli

def _reduced_words(length, cyclic):
    out = []
    for tup in itertools.product("aAbBcCdD", repeat=length):
        w = "".join(tup)
        if free_reduce(w) == w and (not cyclic or length < 2 or w[0] != w[-1].swapcase()):
            out.append(w)
    return out


class DehnCli:
    """Seeded periodlines.cli.main(argv) calls on the genus-2 surface
    presentation, run in-process with stdout captured.  Every call builds its
    own backend, as a real CLI call does.  Five of the eleven calls in a pass
    hit defects known at the seed commit: delta --radius 2, stable-norm on a
    length-3 word and fourgon-selfcheck raise BudgetExceeded, inj-radius and
    lemma41 exit 1."""

    name = "dehn-cli"

    def __init__(self, lib, seed):
        self.lib = lib
        self.group = Genus2Fuchsian(4)
        if tuple(self.group.spheres) != Genus2Fuchsian.SPHERES:
            raise AssertionError(f"Fuchsian sphere sizes {self.group.spheres}")
        self.acyl = self._acyl_profile(1, 3)
        spec = "dehn:" + str(DATA / "genus2.txt")
        rng = random.Random(seed)
        letter = rng.choice("aAbBcCdD")
        two = rng.choice(_reduced_words(2, cyclic=True))
        three = rng.choice(_reduced_words(3, cyclic=True))
        word = rng.choice([w for n in (1, 2, 3, 4) for w in _reduced_words(n, cyclic=False)])
        x = rng.choice(_reduced_words(rng.randint(0, 2), cyclic=False))
        b = rng.choice(_reduced_words(2, cyclic=True))
        square = rng.choice([two, inverse(two)]) * 2
        self.ops = [
            # ball(2) has more than --sample triangles, so delta samples them
            # with --seed; a fixed one keeps the call's cost the same
            self._call("delta-r1", ["delta", "--radius", "1"], spec, self._delta_r1),
            self._call("delta-r2", ["delta", "--radius", "2", "--seed", "0"], spec,
                       self._delta_r2),
            self._call("acyl-profile", ["acyl-profile", "--eps", "1", "--radius", "3"], spec,
                       self._acyl),
            self._call("commensurate", ["commensurate", "--a", square, "--b", two], spec,
                       self._commensurate(square, two)),
            self._call("stable-norm", ["stable-norm", "--g", letter, "--n-max", "4"], spec,
                       self._stable_norm(letter, 4)),
            self._call("stable-norm-long", ["stable-norm", "--g", three], spec,
                       self._stable_norm(three, 8)),
            self._call("classify", ["classify", "--g", word], spec, self._classify(word)),
            self._call("line", ["line", "--a", two, "--x", x, "--n-max", "3"], spec,
                       self._line(two, x, 3)),
            self._call("inj-radius", ["inj-radius"], spec, self._inj_radius),
            self._call("lemma41", ["lemma41", "--b", b, "--x-q", b, "--window", "4", "--r", "2"],
                       spec, self._lemma41(b)),
            # a fixed seed keeps the call's cost and outcome the same; 24 of
            # the seeds 0-24 meet the BudgetExceeded defect, seed 10 does not
            self._call("fourgon-selfcheck",
                       ["fourgon-selfcheck", "--count", "5", "--seed", "0"], spec,
                       self._fourgon),
        ]
        rng.shuffle(self.ops)

    def _call(self, label, argv, spec, check):
        cli_module = self.lib.cli
        argv = argv[:1] + ["--backend", spec] + argv[1:] + ["--json"]

        def run(env):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_module.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def judged(result, exc):
            if exc is not None:
                return FAILED, f"{type(exc).__name__}: {exc}"
            code, out, err = result
            if code in (1, 64):
                return FAILED, f"exit {code}: {err.strip()}"
            try:
                record = json.loads(out)
            except ValueError:
                return WRONG, f"exit {code} without a JSON record"
            return check(code, record["result"])

        return Op(label, run, judged)

    # Checks take (exit code, result record).  A defect that is fixed later
    # meets the range check of the correct answer here.

    @staticmethod
    def _delta_r1(code, result):
        # Frozen: the Cayley graph has girth 8 (spheres 1, 8, 56, 392 as in a
        # tree), so ball(2) is a tree and every triangle on ball(1) a tripod.
        return (OK, "") if result.get("delta") == "0" else (WRONG, f"delta {result}")

    @staticmethod
    def _delta_r2(code, result):
        # ball(2) has diameter 4, and slimness never exceeds half of it
        delta = Fraction(result.get("delta", "-1"))
        return (OK, "") if 0 <= delta <= 2 else (WRONG, f"delta {delta} out of [0, 2]")

    def _acyl_profile(self, eps, radius):
        """acyl-profile from its definition, on the Fuchsian ball (radius <= 3
        lies inside the girth, so the ball is every reduced word)."""
        g = self.group
        ball = [w for n in range(radius + 1) for w in _reduced_words(n, cyclic=False)]
        small = [w for w in ball if len(w) <= eps]
        counts = []
        for h in ball[1:]:
            lengths = [g.word_length(inverse(h) + f + h) for f in small]
            counts.append((len(h), sum(1 for n in lengths if n is not None and n <= eps)))
        top = {t: max(c for d, c in counts if d >= t) for t in range(1, radius + 1)}
        return {"R": min(t for t in top if top[t] == top[radius]), "N": top[radius]}

    def _acyl(self, code, result):
        if result == self.acyl:
            return OK, ""
        return WRONG, f"{result} != {self.acyl}"

    def _commensurate(self, a, b):
        def check(code, result):
            wit = result.get("witness")
            if wit is None:
                return FAILED, "no witness for a commensurable pair"
            s, t, h = wit["s"], wit["t"], wit["g"]
            if s and t and self.group.equal(free_power(a, s), inverse(h) + free_power(b, t) + h):
                return OK, ""
            return WRONG, f"witness {wit} does not verify"
        return check

    def _stable_norm(self, g, n_max):
        def check(code, result):
            value = Fraction(result["stable_norm"])
            lengths = [self.group.word_length(g * n) for n in range(1, n_max + 1)]
            if None in lengths:  # beyond the oracle's ball: bound by |g|
                ok = 0 < value <= len(g)
            else:
                ok = value == min(Fraction(d, n) for n, d in enumerate(lengths, 1))
            return (OK, "") if ok else (WRONG, f"stable norm {value}")
        return check

    def _classify(self, w):
        def check(code, result):
            # torsion-free: every nontrivial element is loxodromic
            if self.group.is_identity(w) or result["class"] == "elliptic":
                return WRONG, f"class {result['class']} for {w!r}"
            return OK, ""
        return check

    def _line(self, a, x, n):
        def check(code, result):
            verts, label = result["vertices"], result["label"]
            if len(label) != n * len(a) or result["phase_indices"] != list(range(0, len(label) + 1, len(a))):
                return WRONG, f"line shape {label!r}"
            if not self.group.equal(label[:len(a)], a) or label != label[:len(a)] * n:
                return WRONG, f"label {label!r} is not a power of {a!r}"
            if any(not self.group.equal(v, x + label[:i]) for i, v in enumerate(verts)):
                return WRONG, "vertex is not x times a prefix of the label"
            return OK, ""
        return check

    @staticmethod
    def _inj_radius(code, result):
        # the generator a has |a^n| <= n, so the estimate is at most 1
        value = Fraction(result["inj_radius"])
        return (OK, "") if 0 < value <= 1 else (WRONG, f"inj radius {value}")

    def _lemma41(self, b):
        def check(code, result):
            # x_q = b: both lines are L(1, b) up to one period, so the
            # hypothesis holds and z = b^-1 commutes with b
            wit = result.get("witness")
            if result.get("status") != "witness":
                return FAILED, f"status {result.get('status')}"
            z, n = wit["element"], wit["n"]
            bn = b * n
            if self.group.equal(z + bn, bn + z):
                return OK, ""
            return WRONG, f"witness {wit} does not commute with b^n"
        return check

    @staticmethod
    def _fourgon(code, result):
        if result.get("checked") == 5 and result.get("failures") == 0:
            return OK, ""
        return WRONG, f"4-gon identities failed: {result}"


WORKLOADS = {w.name: w for w in (FreeCorpus, FpTheorem, FpEstimate, DehnCli)}
