"""Command line interface: every operation as a subcommand with
machine-readable output.

The subcommands are one table, COMMANDS.  A call builds one parser, its
own command's, and parses its arguments once; the full parser, with a
subparsers action over the table, is built only for what it alone
prints: the top-level help and the top-level usage errors.

Handlers compute and return (exit code, result) or (exit code, result,
certificate); main loads --profile, calls the handler and writes the run
record once, so every subcommand's record is built in one place.

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
from .fourgon import compose, side_elements
from .geometry import periodic_line
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
    if not isinstance(data, dict):
        raise ProfileError(f"profile {path} is not a JSON object")
    entries = data.get("acyl", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ProfileError(f"profile {path}: acyl is not a JSON array of objects")
    try:
        mu = data["mu"]
        if isinstance(mu, dict):
            mu_value, mu_prov = mu["value"], mu["provenance"]
        else:
            mu_value, mu_prov = mu, "user-supplied"
        acyl = {}
        for entry in entries:
            acyl[parse_fraction(entry["eps"])] = (parse_fraction(entry["R"]), entry["N"])
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        return
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        for key, value in record.items():
            if key in ("subcommand", "wall_time_s"):
                continue
            print(f"{key}: {json.dumps(value) if not isinstance(value, str) else value}")


def run_record(args, start: float, result: dict, certificate=None, profile=None) -> dict:
    record = {
        "subcommand": args.command,
        "inputs": {k: v for k, v in vars(args).items()
                   if k not in ("command", "func", "parser", "json", "out") and v is not None},
        "result": result,
    }
    if certificate is not None:
        record["certificate"] = certificate
    if profile is not None:
        record["profile"] = profile_echo(profile)
    if getattr(args, "seed", None) is not None:
        record["seed"] = args.seed
    record["wall_time_s"] = time.perf_counter() - start
    return record


# Handlers take the parsed arguments and the loaded --profile (None where
# none was given); a result of None means the handler printed its own output.
# Each builds its own backend, so an input it refuses first builds none.
def cmd_periods(args, profile):
    return 0, {"periods": words.period_lengths(args.word)}


def cmd_fine_wilf(args, profile):
    try:
        return 0, {"root": words.fine_wilf_root(args.word, args.p, args.q)}
    except words.PeriodError as exc:
        return HYPOTHESIS_EXIT, {"error": str(exc)}


def cmd_primroot(args, profile):
    c, k = words.primitive_root(args.word)
    return 0, {"root": c, "exponent": k}


def cmd_free_reduce(args, profile):
    return 0, {"reduced": freewords.free_reduce(args.word)}


def cmd_overlap_root(args, profile):
    res = freewords.overlap_root(args.a, args.b)
    if res is None:
        return HYPOTHESIS_EXIT, {"overlap": None}
    return 0, {"overlap": {"c": res.c, "shift_a": res.shift_a, "shift_b": res.shift_b,
                           "exp_a": res.exp_a, "exp_b": res.exp_b}}


def cmd_commensurate(args, profile):
    witness, cert = harness.commensurability_search(
        make_backend(args.backend), args.a, args.b, args.max_exponent, args.conjugator_bound)
    return (0 if witness is not None else HYPOTHESIS_EXIT), {"witness": witness}, cert


def cmd_delta(args, profile):
    value, cert = geometry.estimate_delta(make_backend(args.backend), args.radius,
                                          max_triangles=args.sample, seed=args.seed)
    return 0, {"delta": str(value)}, cert


def cmd_stable_norm(args, profile):
    value, cert = geometry.stable_norm_estimate(make_backend(args.backend), args.g, args.n_max)
    return 0, {"stable_norm": str(value)}, cert


def cmd_classify(args, profile):
    return 0, {"class": geometry.classify_element(make_backend(args.backend), args.g)}


def cmd_inj_radius(args, profile):
    value, cert = geometry.injectivity_radius_estimate(make_backend(args.backend),
                                                       args.length_bound, args.n_max)
    return 0, {"inj_radius": str(value)}, cert


def cmd_acyl_profile(args, profile):
    r_est, n_est, cert = geometry.acylindricity_profile(make_backend(args.backend),
                                                        args.eps, args.radius)
    return 0, {"R": r_est, "N": n_est}, cert


def cmd_line(args, profile):
    path = periodic_line(make_backend(args.backend), args.x, args.a, args.n_min, args.n_max)
    return 0, {"vertices": path.vertices, "label": path.label,
               "phase_indices": path.phase_indices, "period_element": path.period_element}, "exact"


def cmd_constants(args, profile):
    return 0, constants.pipeline_report(profile, args.r)


def cmd_fourgon_selfcheck(args, profile):
    import random

    if args.count < 1:
        raise ValueError(f"need count >= 1, got {args.count}")
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
    if failures:
        raise ValueError(f"{failures} of {args.count} 4-gon checks failed")
    return 0, {"checked": args.count, "failures": 0}


def cmd_lemma41(args, profile):
    res = harness.lemma41_check(make_backend(args.backend), args.b, args.x_p, args.x_q,
                                args.window, args.r, profile)
    return (0 if res.ok else HYPOTHESIS_EXIT), {"status": res.status, "witness": res.witness,
                                                "details": res.details}


def _theorem_one(backend, args, profile, a, b, x, y, r):
    inst = TheoremInstance(backend, a, b, x, y, r,
                           max_exponent=args.max_exponent)
    if args.sharp_free:
        return harness.main_theorem_check(inst, None, sharp_free=True)
    if args.periods is not None:
        return harness.weak_theorem_check(inst, profile, min_periods=args.periods)
    return harness.main_theorem_check(inst, profile)


def cmd_theorem(args, profile):
    if not args.batch and (args.a is None or args.b is None):
        args.parser.error("the following arguments are required: --a, --b (or --batch)")
    backend = make_backend(args.backend)
    if args.batch:
        with open(args.batch, encoding="utf-8") as fh:
            instances = json.load(fh)
        if not isinstance(instances, list):
            raise ValueError("batch must be a JSON array of instances")
        records = []
        code = 0
        for i, item in enumerate(instances):
            if not isinstance(item, dict):
                raise ValueError(f"batch instance {i} is not a JSON object")
            try:
                a, b = item["a"], item["b"]
            except KeyError as exc:
                raise ValueError(f"batch instance {i} is missing the key {exc.args[0]!r}") from None
            x, y, r = item.get("x", ""), item.get("y", ""), item.get("r", 0)
            if not all(isinstance(w, str) for w in (a, b, x, y)) or type(r) is not int:
                raise ValueError(f"batch instance {i} needs words a, b, x, y and an integer r")
            res = _theorem_one(backend, args, profile, a, b, x, y, r)
            records.append({"instance": item, "hypothesis_status": res.status,
                            "witness": res.witness, "certificate": res.details})
            if not res.ok:
                code = HYPOTHESIS_EXIT
        return code, {"reports": records}
    res = _theorem_one(backend, args, profile, args.a, args.b, args.x, args.y, args.r)
    return (0 if res.ok else HYPOTHESIS_EXIT), {
        "hypothesis_status": res.status, "witness": res.witness, "details": res.details}


def cmd_threshold(args, profile):
    if args.csv and not args.sweep:
        args.parser.error("--csv needs --sweep")
    backend = make_backend(args.backend)
    if args.sweep:
        harness.require_overlap_parameter(args.r)  # the sweep's largest r
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
            return 0, None
        return 0, {"thresholds": {str(k): v for k, v in results.items()}}
    m = harness.empirical_period_threshold(backend, args.a, args.b, args.x, args.y,
                                           args.r, args.max_periods, args.max_exponent)
    result = {"threshold": m if m is not None else f"none up to {args.max_periods}"}
    return (0 if m is not None else HYPOTHESIS_EXIT), result


REQ = {"required": True}
REQ_INT = {"type": int, "required": True}
FLAG = {"action": "store_true"}
EMPTY = {"default": ""}
FREE2 = {"default": "free:2"}


def _int(default=None):
    return {"type": int, "default": default}


# name: (handler, help, {option: add_argument keywords}); every command also
# takes --json and --out
COMMANDS = {
    "periods": (cmd_periods, "period lengths of a word", {"--word": REQ}),
    "fine-wilf": (cmd_fine_wilf, "common period root of two periods",
                  {"--word": REQ, "-p": REQ_INT, "-q": REQ_INT}),
    "primroot": (cmd_primroot, "primitive root of a word", {"--word": REQ}),
    "free-reduce": (cmd_free_reduce, "free-group reduction", {"--word": REQ}),
    "overlap-root": (cmd_overlap_root, "common root of two free-group lines",
                     {"--a": REQ, "--b": REQ}),
    "commensurate": (cmd_commensurate, "commensurability witness search", {
        "--a": REQ, "--b": REQ, "--backend": FREE2, "--max-exponent": _int(8),
        "--conjugator-bound": _int(4)}),
    "delta": (cmd_delta, "hyperbolicity constant estimate", {
        "--backend": REQ, "--radius": _int(3), "--sample": _int(20000), "--seed": _int(0)}),
    "stable-norm": (cmd_stable_norm, "stable norm estimate",
                    {"--backend": REQ, "--g": REQ, "--n-max": _int(8)}),
    "classify": (cmd_classify, "elliptic/loxodromic classification",
                 {"--backend": REQ, "--g": REQ}),
    "inj-radius": (cmd_inj_radius, "injectivity radius estimate",
                   {"--backend": REQ, "--length-bound": _int(3), "--n-max": _int(8)}),
    "acyl-profile": (cmd_acyl_profile, "observed acylindricity constants",
                     {"--backend": REQ, "--eps": _int(0), "--radius": _int(4)}),
    "line": (cmd_line, "periodic line window", {
        "--backend": REQ, "--x": EMPTY, "--a": REQ, "--n-min": _int(0), "--n-max": _int(2)}),
    "constants": (cmd_constants, "constant pipeline for a profile",
                  {"--profile": REQ, "--r": {"type": int, "nargs": "+", "default": [0]}}),
    "fourgon-selfcheck": (cmd_fourgon_selfcheck, "random 4-gon identity checks",
                          {"--backend": FREE2, "--count": _int(50), "--seed": _int(0)}),
    "lemma41": (cmd_lemma41, "parallel periodic lines centralizer check", {
        "--backend": REQ, "--b": REQ, "--x-p": EMPTY, "--x-q": EMPTY, "--window": _int(8),
        "--r": _int(0), "--profile": {}}),
    "theorem": (cmd_theorem, "overlap theorem harness", {
        "--backend": REQ, "--a": {}, "--b": {}, "--x": EMPTY, "--y": EMPTY, "--r": _int(0),
        "--sharp-free": FLAG, "--profile": {}, "--periods": _int(), "--max-exponent": _int(8),
        "--batch": {"help": "JSON array of instances"}}),
    "threshold": (cmd_threshold, "empirical period threshold", {
        "--backend": FREE2, "--a": REQ, "--b": REQ, "--x": EMPTY, "--y": EMPTY, "--r": _int(0),
        "--max-periods": _int(8), "--max-exponent": _int(8), "--sweep": FLAG, "--csv": FLAG}),
}


def _add_command(p: _Parser, name: str) -> None:
    """Give p the options and defaults of the command name."""
    func, _, options = COMMANDS[name]
    p.set_defaults(command=name, func=func, parser=p)
    p.add_argument("--json", action="store_true", help="emit a JSON record")
    p.add_argument("--out", help="write the JSON record to a file")
    for option, keywords in options.items():
        p.add_argument(option, **keywords)


def build_parser() -> _Parser:
    """The full parser, one subcommand per COMMANDS entry."""
    parser = _Parser(prog="periodlines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call builds only its own command's parser, with the prog that the
    # full parser gives that subcommand, and parses its arguments once.
    # The full parser prints the top-level help and the top-level usage
    # errors: no command, an unknown one, and arguments that the command
    # does not know.
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"periodlines {argv[0]}")
        _add_command(parser, argv[0])
        args, unknown = parser.parse_known_args(argv[1:])
        if unknown:
            build_parser().parse_args(argv)
    else:
        args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        profile = load_profile(args.profile) if getattr(args, "profile", None) else None
        code, result, *certificate = args.func(args, profile)
        if result is not None:
            emit(args, run_record(args, start, result, *certificate, profile=profile))
        return code
    except (BackendError, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
