"""Command line interface: every operation as a subcommand with
machine-readable output.

Exit codes: 0 success, 2 hypothesis failure / witness not found within
bounds, 64 usage error, 1 runtime error (a bad backend, word or file, a
budget that runs out before a result is certified, or a refused hypothesis
such as an element that is not loxodromic), with one `error:` line.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from . import constants, freewords, geometry, harness, words
from .backends import BackendError, BudgetExceeded, make_backend
from .constants import ConstantsProfile, ProfileError
from .fourgon import FourGon, compose, side_elements
from .geometry import PathInGraph, path_from_word, periodic_line
from .harness import TheoremInstance

USAGE_EXIT = 64
HYPOTHESIS_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def parse_fraction(text) -> Fraction:
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        return Fraction(text).limit_denominator(10**9)
    return Fraction(str(text))


def load_profile(path: str) -> ConstantsProfile:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        mu = data["mu"]
        if isinstance(mu, dict):
            mu_value, mu_prov = mu["value"], mu["provenance"]
        else:
            mu_value, mu_prov = mu, "user-supplied"
        acyl = {}
        for entry in data.get("acyl", []):
            acyl[parse_fraction(entry["eps"])] = (parse_fraction(entry["R"]), int(entry["N"]))
        delta, tau = data["delta"], data["tau"]
    except KeyError as exc:
        raise ProfileError(f"profile {path} is missing the key {exc.args[0]!r}") from None
    return ConstantsProfile.create(
        parse_fraction(delta), parse_fraction(tau),
        parse_fraction(mu_value), mu_prov, acyl)


def profile_echo(profile: ConstantsProfile | None):
    if profile is None:
        return None
    return {
        "delta": str(profile.delta),
        "tau": str(profile.tau),
        "mu": {"value": str(profile.mu), "provenance": profile.mu_provenance},
        "acyl": [{"eps": str(e), "R": str(R), "N": N}
                 for e, (R, N) in sorted(profile.acyl.items())],
        "kappa0": profile.kappa0,
        "eps0": profile.eps0,
    }


def emit(args, record: dict) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        return
    if getattr(args, "json", False):
        print(json.dumps(record, indent=2))
    else:
        for key, value in record.items():
            if key in ("subcommand", "wall_time_s"):
                continue
            print(f"{key}: {json.dumps(value) if not isinstance(value, str) else value}")


def run_record(args, result: dict, certificate=None, profile=None) -> dict:
    record = {
        "subcommand": args.command,
        "inputs": {k: v for k, v in vars(args).items()
                   if k not in ("command", "func", "json", "out", "start_time")
                   and v is not None},
        "result": result,
    }
    if certificate is not None:
        record["certificate"] = certificate
    if profile is not None:
        record["profile"] = profile_echo(profile)
    if getattr(args, "seed", None) is not None:
        record["seed"] = args.seed
    record["wall_time_s"] = time.perf_counter() - args.start_time
    return record


def _harness_exit(res: harness.HarnessResult) -> int:
    return 0 if res.ok else HYPOTHESIS_EXIT


def cmd_periods(args):
    emit(args, run_record(args, {"periods": words.period_lengths(args.word)}))
    return 0


def cmd_fine_wilf(args):
    try:
        root = words.fine_wilf_root(args.word, args.p, args.q)
    except words.PeriodError as exc:
        emit(args, run_record(args, {"error": str(exc)}))
        return HYPOTHESIS_EXIT
    emit(args, run_record(args, {"root": root}))
    return 0


def cmd_primroot(args):
    c, k = words.primitive_root(args.word)
    emit(args, run_record(args, {"root": c, "exponent": k}))
    return 0


def cmd_free_reduce(args):
    emit(args, run_record(args, {"reduced": freewords.free_reduce(args.word)}))
    return 0


def cmd_overlap_root(args):
    res = freewords.overlap_root(args.a, args.b)
    if res is None:
        emit(args, run_record(args, {"overlap": None}))
        return HYPOTHESIS_EXIT
    emit(args, run_record(args, {"overlap": {
        "c": res.c, "shift_a": res.shift_a, "shift_b": res.shift_b,
        "exp_a": res.exp_a, "exp_b": res.exp_b}}))
    return 0


def cmd_commensurate(args):
    backend = make_backend(args.backend)
    witness, cert = harness.commensurability_search(
        backend, args.a, args.b, args.max_exponent, args.conjugator_bound)
    emit(args, run_record(args, {"witness": witness}, certificate=cert))
    return 0 if witness is not None else HYPOTHESIS_EXIT


def cmd_delta(args):
    backend = make_backend(args.backend)
    value, cert = geometry.estimate_delta(backend, args.radius,
                                          max_triangles=args.sample, seed=args.seed)
    emit(args, run_record(args, {"delta": str(value)}, certificate=cert))
    return 0


def cmd_stable_norm(args):
    backend = make_backend(args.backend)
    value, cert = geometry.stable_norm_estimate(backend, args.g, args.n_max)
    emit(args, run_record(args, {"stable_norm": str(value)}, certificate=cert))
    return 0


def cmd_classify(args):
    backend = make_backend(args.backend)
    emit(args, run_record(args, {"class": geometry.classify_element(backend, args.g, args.n_max)}))
    return 0


def cmd_inj_radius(args):
    backend = make_backend(args.backend)
    value, cert = geometry.injectivity_radius_estimate(backend, args.length_bound, args.n_max)
    emit(args, run_record(args, {"inj_radius": str(value)}, certificate=cert))
    return 0


def cmd_acyl_profile(args):
    backend = make_backend(args.backend)
    r_est, n_est, cert = geometry.acylindricity_profile(backend, args.eps, args.radius)
    emit(args, run_record(args, {"R": r_est, "N": n_est}, certificate=cert))
    return 0


def cmd_line(args):
    backend = make_backend(args.backend)
    path = periodic_line(backend, args.x, args.a, args.n_min, args.n_max)
    emit(args, run_record(args, {
        "vertices": path.vertices, "label": path.label,
        "phase_indices": path.phase_indices, "period_element": path.period_element,
    }, certificate="exact"))
    return 0


def cmd_constants(args):
    profile = load_profile(args.profile)
    report = constants.pipeline_report(profile, args.r)
    emit(args, run_record(args, report, profile=profile))
    return 0


def cmd_fourgon_selfcheck(args):
    import random

    backend = make_backend(args.backend)
    rng = random.Random(args.seed)
    from .testutil import random_composable_pair  # local import: test helper

    failures = 0
    for _ in range(args.count):
        P, Q = random_composable_pair(backend, rng)
        S = compose(P, Q, backend)
        LP, TP, RP, BP = side_elements(P, backend)
        LQ, TQ, RQ, BQ = side_elements(Q, backend)
        LS, TS, RS, BS = side_elements(S, backend)
        ok = (backend.equal(LS, backend.mul(LP, backend.inv(LQ)))
              and backend.equal(RS, backend.mul(RP, backend.inv(RQ)))
              and backend.equal(BS, BP) and backend.equal(TS, BQ))
        if not ok:
            failures += 1
    emit(args, run_record(args, {"checked": args.count, "failures": failures}))
    return 0 if failures == 0 else 1


def cmd_lemma41(args):
    backend = make_backend(args.backend)
    profile = load_profile(args.profile) if args.profile else None
    res = harness.lemma41_check(backend, args.b, args.x_p, args.x_q,
                                args.window, args.r, profile, args.max_exponent)
    emit(args, run_record(args, {"status": res.status, "witness": res.witness,
                                 "details": res.details}, profile=profile))
    return _harness_exit(res)


def _theorem_one(backend, args, profile, a, b, x, y, r):
    inst = TheoremInstance(backend, a, b, x, y, r,
                           max_exponent=args.max_exponent)
    if args.sharp_free:
        return harness.main_theorem_check(inst, None, sharp_free=True)
    if args.periods is not None:
        return harness.weak_theorem_check(inst, profile, min_periods=args.periods)
    return harness.main_theorem_check(inst, profile)


def cmd_theorem(args):
    backend = make_backend(args.backend)
    profile = load_profile(args.profile) if args.profile else None
    if args.batch:
        with open(args.batch, encoding="utf-8") as fh:
            instances = json.load(fh)
        records = []
        worst = 0
        for item in instances:
            res = _theorem_one(backend, args, profile, item["a"], item["b"],
                               item.get("x", ""), item.get("y", ""), item.get("r", 0))
            records.append({"instance": item, "hypothesis_status": res.status,
                            "witness": res.witness, "certificate": res.details})
            worst = max(worst, _harness_exit(res))
        emit(args, run_record(args, {"reports": records}, profile=profile))
        return worst
    res = _theorem_one(backend, args, profile, args.a, args.b, args.x, args.y, args.r)
    emit(args, run_record(args, {"hypothesis_status": res.status,
                                 "witness": res.witness, "details": res.details},
                          profile=profile))
    return _harness_exit(res)


def cmd_threshold(args):
    backend = make_backend(args.backend)
    if args.sweep:
        rows = ["r,threshold"]
        results = {}
        for r in range(args.r + 1):
            m = harness.empirical_period_threshold(
                backend, args.a, args.b, args.x, args.y, r,
                args.max_periods, args.max_exponent)
            results[r] = m
            rows.append(f"{r},{m if m is not None else 'none'}")
        if args.csv:
            print("\n".join(rows))
        else:
            emit(args, run_record(args, {"thresholds": {str(k): v for k, v in results.items()}}))
        return 0
    m = harness.empirical_period_threshold(backend, args.a, args.b, args.x, args.y,
                                           args.r, args.max_periods, args.max_exponent)
    result = {"threshold": m if m is not None else f"none up to {args.max_periods}"}
    emit(args, run_record(args, result))
    return 0 if m is not None else HYPOTHESIS_EXIT


def build_parser() -> _Parser:
    parser = _Parser(prog="periodlines")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON record")
        p.add_argument("--out", help="write the JSON record to a file")
        return p

    p = add("periods", cmd_periods, help="period lengths of a word")
    p.add_argument("--word", required=True)

    p = add("fine-wilf", cmd_fine_wilf, help="common period root of two periods")
    p.add_argument("--word", required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = add("primroot", cmd_primroot, help="primitive root of a word")
    p.add_argument("--word", required=True)

    p = add("free-reduce", cmd_free_reduce, help="free-group reduction")
    p.add_argument("--word", required=True)

    p = add("overlap-root", cmd_overlap_root, help="common root of two free-group lines")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("commensurate", cmd_commensurate, help="commensurability witness search")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--backend", default="free:2")
    p.add_argument("--max-exponent", type=int, default=8)
    p.add_argument("--conjugator-bound", type=int, default=4)

    p = add("delta", cmd_delta, help="hyperbolicity constant estimate")
    p.add_argument("--backend", required=True)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--sample", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)

    p = add("stable-norm", cmd_stable_norm, help="stable norm estimate")
    p.add_argument("--backend", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n-max", type=int, default=8)

    p = add("classify", cmd_classify, help="elliptic/loxodromic classification")
    p.add_argument("--backend", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n-max", type=int, default=12)

    p = add("inj-radius", cmd_inj_radius, help="injectivity radius estimate")
    p.add_argument("--backend", required=True)
    p.add_argument("--length-bound", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)

    p = add("acyl-profile", cmd_acyl_profile, help="observed acylindricity constants")
    p.add_argument("--backend", required=True)
    p.add_argument("--eps", type=int, default=0)
    p.add_argument("--radius", type=int, default=4)

    p = add("line", cmd_line, help="periodic line window")
    p.add_argument("--backend", required=True)
    p.add_argument("--x", default="")
    p.add_argument("--a", required=True)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=2)

    p = add("constants", cmd_constants, help="constant pipeline for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--r", type=int, nargs="+", default=[0])

    p = add("fourgon-selfcheck", cmd_fourgon_selfcheck, help="random 4-gon identity checks")
    p.add_argument("--backend", default="free:2")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("lemma41", cmd_lemma41, help="parallel periodic lines centralizer check")
    p.add_argument("--backend", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--x-p", default="")
    p.add_argument("--x-q", default="")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--profile")
    p.add_argument("--max-exponent", type=int, default=8)

    p = add("theorem", cmd_theorem, help="overlap theorem harness")
    p.add_argument("--backend", required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--x", default="")
    p.add_argument("--y", default="")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--sharp-free", action="store_true")
    p.add_argument("--profile")
    p.add_argument("--periods", type=int)
    p.add_argument("--max-exponent", type=int, default=8)
    p.add_argument("--batch", help="JSON array of instances")

    p = add("threshold", cmd_threshold, help="empirical period threshold")
    p.add_argument("--backend", default="free:2")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--x", default="")
    p.add_argument("--y", default="")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max-periods", type=int, default=8)
    p.add_argument("--max-exponent", type=int, default=8)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--csv", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.start_time = time.perf_counter()
    try:
        return args.func(args)
    except (BackendError, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
