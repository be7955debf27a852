import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from periodlines.backends import SURFACE_GENUS2, DehnBackend, FreeBackend
from periodlines.freewords import inverse_word
from periodlines import cli
from periodlines.cli import COMMANDS, build_parser, main

PROFILE = {
    "delta": "0",
    "tau": "2",
    "mu": {"value": "1", "provenance": "user-supplied"},
    "acyl": [{"eps": "24", "R": "10", "N": 5}, {"eps": "48", "R": "10", "N": 5}],
}


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(PROFILE))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_periods(capsys):
    code, rec = run_json(capsys, ["periods", "--word", "abaab"])
    assert code == 0
    assert rec["result"]["periods"] == [3, 5]
    assert rec["subcommand"] == "periods"


def test_fine_wilf(capsys):
    code, rec = run_json(capsys, ["fine-wilf", "--word", "ababab", "-p", "2", "-q", "4"])
    assert code == 0 and rec["result"]["root"] == "ab"
    code, rec = run_json(capsys, ["fine-wilf", "--word", "aaaa", "-p", "2", "-q", "3"])
    assert code == 2 and "overlap too short" in rec["result"]["error"]


def test_primroot(capsys):
    code, rec = run_json(capsys, ["primroot", "--word", "ababab"])
    assert code == 0 and rec["result"] == {"root": "ab", "exponent": 3}


def test_free_reduce(capsys):
    code, rec = run_json(capsys, ["free-reduce", "--word", "aBbA"])
    assert code == 0 and rec["result"]["reduced"] == ""


def test_overlap_root(capsys):
    code, rec = run_json(capsys, ["overlap-root", "--a", "ab", "--b", "ba"])
    assert code == 0 and rec["result"]["overlap"]["c"] == "ab"
    code, rec = run_json(capsys, ["overlap-root", "--a", "ab", "--b", "aab"])
    assert code == 2 and rec["result"]["overlap"] is None


def test_commensurate(capsys):
    code, rec = run_json(capsys, ["commensurate", "--a", "ab", "--b", "baba"])
    assert code == 0 and rec["certificate"] == "exact"
    code, rec = run_json(capsys, ["commensurate", "--a", "ab", "--b", "aabb"])
    assert code == 2


def test_commensurate_needs_nontrivial_powers(capsys):
    # x^2 = y^3 = 1 in Z/2*Z/3, but that common power is trivial
    # and x and y lie in conjugates of different factors, which the oracle
    # knows without a search
    code, rec = run_json(capsys, ["commensurate", "--backend", "zmzn:2,3", "--a", "x", "--b", "y"])
    assert code == 2 and rec["result"] == {"witness": None}
    assert rec["certificate"] == "exact: non-commensurable"


def test_delta(capsys):
    code, rec = run_json(capsys, ["delta", "--backend", "zmzn:2,3", "--radius", "2"])
    assert code == 0 and rec["result"]["delta"] == "1/2"


def test_stable_norm(capsys):
    code, rec = run_json(capsys, ["stable-norm", "--backend", "free:2",
                                  "--g", "Bab", "--n-max", "8"])
    assert code == 0 and rec["result"]["stable_norm"] == "5/4"


def test_classify(capsys):
    code, rec = run_json(capsys, ["classify", "--backend", "zmzn:2,3", "--g", "xy"])
    assert code == 0 and rec["result"]["class"] == "loxodromic"


def test_inj_radius(capsys):
    code, rec = run_json(capsys, ["inj-radius", "--backend", "free:2"])
    assert code == 0 and rec["result"]["inj_radius"] == "1"


def test_acyl_profile(capsys):
    code, rec = run_json(capsys, ["acyl-profile", "--backend", "free:2",
                                  "--eps", "0", "--radius", "2"])
    assert code == 0 and rec["result"] == {"R": 1, "N": 1}


def test_line(capsys):
    code, rec = run_json(capsys, ["line", "--backend", "free:2",
                                  "--a", "ab", "--n-min", "0", "--n-max", "2"])
    assert code == 0
    assert rec["result"]["vertices"][-1] == "abab"
    assert rec["result"]["phase_indices"] == [0, 2, 4]


def test_constants(capsys, profile_path):
    code, rec = run_json(capsys, ["constants", "--profile", profile_path, "--r", "0"])
    assert code == 0
    assert rec["result"]["C"] == "180"
    assert rec["result"]["rows"][0] == {"r": 0, "eps": "24", "K": 48, "F": 163,
                                        "f": "180", "k": 2}
    assert rec["profile"]["mu"]["provenance"] == "user-supplied"


def _without(path):
    """PROFILE with the key at path (a tuple of keys and list indices) removed."""
    data = json.loads(json.dumps(PROFILE))
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


@pytest.mark.parametrize("path", [("delta",), ("tau",), ("mu",), ("mu", "value"),
                                  ("mu", "provenance"), ("acyl", 1, "eps"),
                                  ("acyl", 0, "R"), ("acyl", 0, "N")],
                         ids=lambda path: ".".join(map(str, path)))
def test_constants_profile_missing_key(capsys, tmp_path, path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(_without(path)))
    assert main(["constants", "--profile", str(profile)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(path[-1]) in err


def test_fourgon_selfcheck(capsys):
    code, rec = run_json(capsys, ["fourgon-selfcheck", "--backend", "free:2",
                                  "--count", "10", "--seed", "1"])
    assert code == 0 and rec["result"]["failures"] == 0
    assert rec["seed"] == 1


def test_fourgon_selfcheck_failure_is_an_error(capsys, monkeypatch):
    # a failed 4-gon check is a runtime error: one error: line, no record
    class Disagreeing(FreeBackend):
        def equal(self, u, v):
            return False

    monkeypatch.setattr(cli, "make_backend", lambda spec: Disagreeing(2))
    assert main(["fourgon-selfcheck", "--count", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: 2 of 2 4-gon checks failed\n"


def test_lemma41(capsys):
    code, rec = run_json(capsys, ["lemma41", "--backend", "free:2", "--b", "ab",
                                  "--x-q", "ab", "--window", "6", "--r", "2"])
    assert code == 0 and rec["result"]["status"] == "witness"
    code, rec = run_json(capsys, ["lemma41", "--backend", "free:2", "--b", "ab",
                                  "--x-q", "bb", "--window", "6", "--r", "1"])
    assert code == 2


def test_theorem_sharp_free(capsys):
    code, rec = run_json(capsys, ["theorem", "--backend", "free:2",
                                  "--a", "ab", "--b", "ab", "--sharp-free"])
    assert code == 0 and rec["result"]["hypothesis_status"] == "witness"


def test_theorem_batch(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"a": "ab", "b": "ab"},
        {"a": "ab", "b": "ba", "y": "bb"},
    ]))
    code, rec = run_json(capsys, ["theorem", "--backend", "free:2",
                                  "--sharp-free", "--batch", str(batch)])
    assert code == 2  # the second instance fails the hypothesis
    statuses = [r["hypothesis_status"] for r in rec["result"]["reports"]]
    assert statuses == ["witness", "hypothesis-failed"]


def test_threshold_sweep_csv(capsys):
    code = main(["threshold", "--backend", "free:2", "--a", "ab", "--b", "ab",
                 "--r", "1", "--max-periods", "2", "--sweep", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "r,threshold"
    assert out[1].startswith("0,")


def test_run_record_wall_time(capsys):
    code, rec = run_json(capsys, ["periods", "--word", "abaab"])
    assert code == 0
    assert rec["wall_time_s"] >= 0
    assert "start_time" not in rec["inputs"]


def test_out_file(capsys, tmp_path):
    dest = tmp_path / "rec.json"
    code = main(["periods", "--word", "abaab", "--out", str(dest)])
    assert code == 0
    rec = json.loads(dest.read_text())
    assert rec["result"]["periods"] == [3, 5]


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["periods"])  # missing --word
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 64


def _required_options(name):
    return [a for opt, kw in COMMANDS[name][2].items() if kw.get("required") for a in (opt, "1")]


# --help, a missing required argument and an unknown one for every command
# (fourgon-selfcheck requires none), then bare periodlines, its --help and
# an unknown command
PARSE_CASES = [[name, "--help"] for name in COMMANDS] + \
    [[name] for name in COMMANDS if _required_options(name)] + \
    [[name, *_required_options(name), "--bogus"] for name in COMMANDS] + \
    [[], ["--help"], ["not-a-command"]]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(a) or "bare" for a in PARSE_CASES])
def test_one_command_parser_matches_full_parser(capsys, argv):
    """main builds only the invoked command's parser, yet prints what the
    full parser prints, byte for byte, and exits with its code."""
    outputs = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outputs.append((exc.value.code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (0 if "--help" in argv else 64)


def test_command_table_is_the_full_parsers_choices():
    choices = build_parser()._subparsers._group_actions[0].choices
    assert list(choices) == list(COMMANDS)


def test_main_builds_only_the_invoked_parser(capsys, monkeypatch):
    """A valid call builds one parser, its own command's, with no
    subparsers action; the full parser would build one per command more."""
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counting)
    assert main(["periods", "--word", "abab"]) == 0
    assert [p.prog for p in built] == ["periodlines periods"]
    assert built[0]._subparsers is None
    assert capsys.readouterr().out.endswith('result: {"periods": [2, 4]}\n')
    build_parser()
    assert len(built) == 1 + 1 + len(COMMANDS)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["periodlines", "periods", "--word", "abab", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"periods": [2, 4]}


def test_bad_backend_is_runtime_error(capsys):
    assert main(["classify", "--backend", "nope:1", "--g", "a"]) == 1


# One call per error class: (argv, exit code, part of the message).  Each
# ends in one `error:` line on stderr; a usage error prints the usage first.
# {dir} is a directory holding genus2.txt and a profile without mu.
ERROR_CASES = {
    "usage": (["periods"], 64, "the following arguments are required: --word"),
    "BackendError": (["classify", "--backend", "nope:1", "--g", "a"], 1,
                     "unknown backend spec"),
    "FreeWordError": (["free-reduce", "--word", "ab1"], 1, "bad letter '1'"),
    "OSError": (["classify", "--backend", "dehn:{dir}/missing.txt", "--g", "a"], 1,
                "No such file"),
    "ProfileError": (["constants", "--profile", "{dir}/profile.json"], 1,
                     "missing the key 'mu'"),
    "BudgetExceeded": (["delta", "--backend", "dehn:{dir}/genus2.txt", "--radius", "2",
                        "--seed", "0"], 1, "distance not certified within radius 4"),
    "conjugator-bound-past-budget": (["commensurate", "--backend", "dehn:{dir}/genus2.txt",
                                      "--a", "ab", "--b", "ab", "--conjugator-bound", "5"], 1,
                                     "conjugator_bound 5 exceeds budget; largest completed "
                                     "radius is 4"),
    "length-bound-past-budget": (["inj-radius", "--backend", "dehn:{dir}/genus2.txt",
                                  "--length-bound", "5"], 1,
                                 "length_bound 5 exceeds budget; largest completed radius is 4"),
    "geodesic-past-budget": (["delta", "--backend", "dehn:{dir}/genus2.txt", "--radius", "3"],
                             1, "geodesic unavailable at budget; largest completed radius is 4"),
    "negative-radius-dehn": (["delta", "--backend", "dehn:{dir}/genus2.txt", "--radius", "-1"],
                             1, "radius must be >= 0"),
    "theorem-usage": (["theorem", "--backend", "free:2", "--sharp-free"], 64,
                      "the following arguments are required: --a, --b (or --batch)"),
    "theorem-batch-key": (["theorem", "--backend", "free:2", "--sharp-free",
                           "--batch", "{dir}/batch.json"], 1,
                          "batch instance 1 is missing the key 'b'"),
    "theorem-batch-item": (["theorem", "--backend", "free:2", "--sharp-free",
                            "--batch", "{dir}/batch-item.json"], 1,
                           "batch instance 0 is not a JSON object"),
    "theorem-batch-array": (["theorem", "--backend", "free:2", "--sharp-free",
                             "--batch", "{dir}/batch-array.json"], 1,
                            "batch must be a JSON array of instances"),
    "profile-not-object": (["constants", "--profile", "{dir}/profile-list.json"], 1,
                           "is not a JSON object"),
    "profile-acyl-list": (["constants", "--profile", "{dir}/acyl-list.json"], 1,
                          "acyl is not a JSON array of objects"),
    "profile-acyl-object": (["constants", "--profile", "{dir}/acyl-object.json"], 1,
                            "acyl is not a JSON array of objects"),
    "profile-fractional-N": (["constants", "--profile", "{dir}/fractional-n.json"], 1,
                             "acylindricity N must be a positive integer"),
    "profile-null-N": (["constants", "--profile", "{dir}/null-n.json"], 1,
                       "acylindricity N must be a positive integer"),
    "theorem-batch-word": (["theorem", "--backend", "free:2", "--sharp-free",
                            "--batch", "{dir}/batch-word.json"], 1,
                           "batch instance 0 needs words a, b, x, y and an integer r"),
    "theorem-batch-null": (["theorem", "--backend", "free:2", "--sharp-free",
                            "--batch", "{dir}/batch-null.json"], 1,
                           "batch instance 0 needs words a, b, x, y and an integer r"),
    "theorem-batch-r": (["theorem", "--backend", "free:2", "--periods", "2",
                         "--batch", "{dir}/batch-r.json"], 1,
                        "batch instance 0 needs words a, b, x, y and an integer r"),
    "threshold-max-periods": (["threshold", "--a", "ab", "--b", "ab", "--max-periods", "-3"],
                              1, "need max_periods >= 1"),
    "threshold-max-periods-before-a": (["threshold", "--a", "aA", "--b", "ab",
                                        "--max-periods", "0"], 1, "need max_periods >= 1"),
    "classify-n-max": (["classify", "--backend", "free:2", "--g", "ab", "--n-max", "3"], 64,
                       "unrecognized arguments: --n-max 3"),
    "acyl-radius-0": (["acyl-profile", "--backend", "zmzn:2,3", "--eps", "0", "--radius", "0"],
                      1, "need radius >= 1"),
    "acyl-negative-eps": (["acyl-profile", "--backend", "zmzn:2,3", "--eps", "-1", "--radius", "3"],
                          1, "need eps >= 0"),
    "threshold-negative-r": (["threshold", "--a", "ab", "--b", "ab", "--r", "-2"], 1,
                             "need r >= 0, got -2"),
    "threshold-sweep-negative-r": (["threshold", "--a", "ab", "--b", "ab", "--r", "-2", "--sweep"],
                                   1, "need r >= 0, got -2"),
    "lemma41-negative-r": (["lemma41", "--backend", "free:2", "--b", "ab", "--r", "-1"], 1,
                           "need r >= 0, got -1"),
    "theorem-negative-r": (["theorem", "--backend", "free:2", "--a", "ab", "--b", "ab", "--r", "-1",
                            "--periods", "2"], 1, "need r >= 0, got -1"),
    "theorem-sharp-negative-r": (["theorem", "--backend", "free:2", "--a", "ab", "--b", "ab",
                                  "--r", "-1", "--sharp-free"], 1, "need r >= 0, got -1"),
    "theorem-batch-negative-r": (["theorem", "--backend", "free:2", "--periods", "2",
                                  "--batch", "{dir}/batch-negative-r.json"], 1,
                                 "need r >= 0, got -1"),
    "threshold-bad-x-and-y": (["threshold", "--a", "ab", "--b", "ab", "--x", "q", "--y", "z"], 1,
                              "letter 'z' not in generating set"),
    "threshold-max-exponent-0": (["threshold", "--a", "ab", "--b", "ab", "--max-exponent", "0"],
                                 1, "need max_exponent >= 1, got 0"),
    "theorem-sharp-max-exponent": (["theorem", "--backend", "free:2", "--a", "ab", "--b", "ab",
                                    "--sharp-free", "--max-exponent", "-2"], 1,
                                   "need max_exponent >= 1, got -2"),
    "theorem-batch-max-exponent": (["theorem", "--backend", "free:2", "--periods", "2",
                                    "--batch", "{dir}/batch-ok.json", "--max-exponent", "0"], 1,
                                   "need max_exponent >= 1, got 0"),
    "lemma41-max-exponent": (["lemma41", "--backend", "free:2", "--b", "ab", "--x-q", "ab",
                              "--max-exponent", "3"], 64,
                             "unrecognized arguments: --max-exponent 3"),
    "commensurate-max-exponent-0": (["commensurate", "--backend", "zmzn:2,3", "--a", "xy",
                                     "--b", "xyxy", "--max-exponent", "0"], 1,
                                    "need max_exponent >= 1, got 0"),
    "theorem-periods-negative": (["theorem", "--backend", "free:2", "--a", "ab", "--b", "ab",
                                  "--periods", "-5"], 1, "need min_periods >= 1, got -5"),
    "theorem-periods-0": (["theorem", "--backend", "free:2", "--a", "ab", "--b", "ba",
                           "--periods", "0"], 1, "need min_periods >= 1, got 0"),
    "lemma41-window-0": (["lemma41", "--backend", "free:2", "--b", "ab", "--x-q", "ab",
                          "--window", "0"], 1, "need window >= 1, got 0"),
    "lemma41-window-before-b": (["lemma41", "--backend", "zmzn:2,3", "--b", "x",
                                 "--window", "-1"], 1, "need window >= 1, got -1"),
    "delta-sample-negative": (["delta", "--backend", "free:2", "--radius", "1", "--sample", "-5"],
                              1, "need max_triangles >= 1, got -5"),
    "delta-sample-0": (["delta", "--backend", "free:2", "--radius", "2", "--sample", "0"], 1,
                       "need max_triangles >= 1, got 0"),
    "fourgon-count-negative": (["fourgon-selfcheck", "--backend", "dehn:{dir}/missing.txt",
                                "--count", "-4"], 1, "need count >= 1, got -4"),
    "commensurate-conjugator-bound-negative": (["commensurate", "--a", "ab", "--b", "ab",
                                                "--conjugator-bound", "-1"], 1,
                                               "need conjugator_bound >= 0, got -1"),
    "inj-radius-length-bound-negative": (["inj-radius", "--backend", "free:2",
                                          "--length-bound", "-1"], 1,
                                         "need length_bound >= 0, got -1"),
    "threshold-csv-without-sweep": (["threshold", "--a", "ab", "--b", "ab", "--csv"], 64,
                                    "--csv needs --sweep"),
}


@pytest.mark.parametrize("argv,code,message", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_exit_code(capsys, tmp_path, argv, code, message):
    (tmp_path / "genus2.txt").write_text("gens: a,b,c,d\nrel: abABcdCD\n")
    files = {
        "profile.json": {"delta": "0", "tau": "2"},
        "profile-list.json": [1],
        "acyl-list.json": {**PROFILE, "acyl": [1]},
        "acyl-object.json": {**PROFILE, "acyl": {"a": 1}},
        "fractional-n.json": {**PROFILE, "acyl": [{"eps": "24", "R": "10", "N": 1.5}]},
        "null-n.json": {**PROFILE, "acyl": [{"eps": "24", "R": "10", "N": None}]},
        "batch.json": [{"a": "ab", "b": "ab"}, {"a": "ab"}],
        "batch-item.json": [1],
        "batch-array.json": {"a": "ab"},
        "batch-word.json": [{"a": 1, "b": "ab"}],
        "batch-null.json": [{"a": "ab", "b": "ab", "x": None}],
        "batch-r.json": [{"a": "ab", "b": "ab", "r": "1"}],
        "batch-negative-r.json": [{"a": "ab", "b": "ab", "r": -1}],
        "batch-ok.json": [{"a": "ab", "b": "ab"}],
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    try:
        got = main([arg.format(dir=tmp_path) for arg in argv])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert err.splitlines()[-1].startswith("error: ") and message in err, err
    if code == 1:
        assert err.count("\n") == 1, err


# The README contract for every integer option of every command, at -1, 0,
# 1 and its default (the option left out), with cheap values for the other
# options: exit 0 or 2 with a JSON record, or exit 1 or 64 with one error:
# line.  delta runs on zmzn:2,3, since free:2 at the default radius takes
# seconds, and theorem passes --periods, since without a profile only the
# weak theorem answers.
SWEEP_BASE = {
    "fine-wilf": {"--word": "ababab", "-p": "2", "-q": "4"},
    "commensurate": {"--a": "ab", "--b": "ab"},
    "delta": {"--backend": "zmzn:2,3"},
    "stable-norm": {"--backend": "free:2", "--g": "ab"},
    "inj-radius": {"--backend": "free:2"},
    "acyl-profile": {"--backend": "zmzn:2,3"},
    "line": {"--backend": "free:2", "--a": "ab"},
    "constants": {"--profile": "{profile}"},
    "fourgon-selfcheck": {},
    "lemma41": {"--backend": "free:2", "--b": "ab", "--x-q": "ab"},
    "theorem": {"--backend": "free:2", "--a": "ab", "--b": "ab", "--periods": "2"},
    "threshold": {"--a": "ab", "--b": "ab"},
}
# No exit-0 or exit-2 record may echo a value below the option's floor
# (inj-radius needs a nontrivial element, so a length bound of 1).
SWEEP_FLOORS = {
    ("commensurate", "--max-exponent"): 1, ("commensurate", "--conjugator-bound"): 0,
    ("delta", "--radius"): 0, ("delta", "--sample"): 1,
    ("stable-norm", "--n-max"): 1,
    ("inj-radius", "--length-bound"): 1, ("inj-radius", "--n-max"): 1,
    ("acyl-profile", "--eps"): 0, ("acyl-profile", "--radius"): 1,
    ("constants", "--r"): 0,
    ("fourgon-selfcheck", "--count"): 1,
    ("lemma41", "--window"): 1, ("lemma41", "--r"): 0,
    ("theorem", "--r"): 0, ("theorem", "--periods"): 1, ("theorem", "--max-exponent"): 1,
    ("threshold", "--r"): 0, ("threshold", "--max-periods"): 1,
    ("threshold", "--max-exponent"): 1,
}
# Options without a floor: a p or q that is not a period of the word is
# answered "not a period", any seed is a seed, and line asks only
# n_min < n_max, refusing the rest.
SWEEP_NO_FLOOR = {("fine-wilf", "-p"), ("fine-wilf", "-q"), ("delta", "--seed"),
                  ("fourgon-selfcheck", "--seed"), ("line", "--n-min"), ("line", "--n-max")}
SWEEP_CASES = [(name, option, value) for name, (_, _, options) in COMMANDS.items()
               for option, keywords in options.items() if keywords.get("type") is int
               for value in ("-1", "0", "1", None)]


def test_sweep_classifies_every_integer_option():
    swept = {(name, option) for name, option, _ in SWEEP_CASES}
    assert swept == set(SWEEP_FLOORS) | SWEEP_NO_FLOOR
    assert not set(SWEEP_FLOORS) & SWEEP_NO_FLOOR


@pytest.mark.parametrize("name,option,value", SWEEP_CASES,
                         ids=[f"{n} {o} {v or 'default'}" for n, o, v in SWEEP_CASES])
def test_integer_option_contract(capsys, profile_path, name, option, value):
    options = {**SWEEP_BASE[name], option: value}
    argv = [name] + [arg.format(profile=profile_path) for opt, v in options.items()
                     if v is not None for arg in (opt, v)] + ["--json"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code in (0, 2):
        assert err == ""
        echoed = json.loads(out)["inputs"].get(option.lstrip("-").replace("-", "_"))
        floor = SWEEP_FLOORS.get((name, option))
        if floor is not None and echoed is not None:
            assert min(echoed if isinstance(echoed, list) else [echoed]) >= floor, out
    else:
        assert code in (1, 64), (code, err)
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            err.splitlines()[-1:], err


# Frozen outputs of genus-2 surface group calls, which a faster Dehn backend
# must reproduce exactly: (argv, exit code, result, certificate).  One
# call runs out of budget (BudgetExceeded) and, like inj-radius and lemma41,
# exits 1 without a record.  fourgon-selfcheck closes its 4-gons with
# Dehn-reduced words, which need no budget.  stable-norm answers beyond the
# budget from word lengths, and its certificate names the powers that used
# them.
GENUS2_GOLDEN = [
    (["delta", "--radius", "1"], 0, {"delta": "0"}, "lower_bound(exhaustive on ball(1))"),
    (["delta", "--radius", "2", "--seed", "0"], 1, None, None),
    (["acyl-profile", "--eps", "1", "--radius", "3"], 0, {"R": 1, "N": 3},
     "observed_on_ball(3)"),
    (["commensurate", "--a", "DDDD", "--b", "dd"], 0,
     {"witness": {"g": "", "s": -1, "t": 2}}, "bounded(8,4)"),
    (["stable-norm", "--g", "d", "--n-max", "4"], 0, {"stable_norm": "1"},
     "upper_bound(n_max=4)"),
    (["stable-norm", "--g", "Caa"], 0, {"stable_norm": "3"},
     "upper_bound(n_max=8, word_length_at_n=2,3,4,5,6,7,8)"),
    (["classify", "--g", "bac"], 0, {"class": "undecided"}, None),
    (["line", "--a", "dd", "--x", "D", "--n-max", "3"], 0,
     {"vertices": ["D", "", "d", "dd", "ddd", "dddd", "ddddd"], "label": "dddddd",
      "phase_indices": [0, 2, 4, 6], "period_element": "dd"}, "exact"),
    (["inj-radius"], 1, None, None),
    (["lemma41", "--b", "BC", "--x-q", "BC", "--window", "4", "--r", "2"], 1, None, None),
    (["fourgon-selfcheck", "--count", "5", "--seed", "0"], 0,
     {"checked": 5, "failures": 0}, None),
]


@pytest.mark.parametrize("argv,code,result,certificate", GENUS2_GOLDEN,
                         ids=[" ".join(case[0][:1] + case[0][1:3]) for case in GENUS2_GOLDEN])
def test_genus2_golden(capsys, tmp_path, argv, code, result, certificate):
    pres = tmp_path / "genus2.txt"
    pres.write_text("gens: a,b,c,d\nrel: abABcdCD\n")
    argv = argv[:1] + ["--backend", f"dehn:{pres}"] + argv[1:] + ["--json"]
    assert main(argv) == code
    out = capsys.readouterr().out
    rec = json.loads(out) if out else {}
    assert rec.get("result") == result
    assert rec.get("certificate") == certificate


def test_genus2_acyl_profile_never_scans(capsys, tmp_path, monkeypatch):
    # every conjugate it looks up reduces to at most 7 letters, and
    # 7 + 4 < L2 = 14, so one-cell rewrites decide each lookup (the bucket
    # scan compared 14,016 pairs here)
    calls = []
    scan = DehnBackend._scan
    monkeypatch.setattr(DehnBackend, "_scan",
                        lambda self, u, layers: calls.append((u, layers)) or scan(self, u, layers))
    pres = tmp_path / "genus2.txt"
    pres.write_text("gens: a,b,c,d\nrel: abABcdCD\n")
    assert main(["acyl-profile", "--backend", f"dehn:{pres}", "--eps", "1", "--radius", "3",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"R": 1, "N": 3}
    assert calls == []


@pytest.mark.parametrize("a,x,n_min,n_max", [
    ("Bc", "abA", 0, 2), ("abA", "CD", 0, 2), ("Adc", "aB", -1, 2), ("ab", "cd", -2, 2),
    ("dd", "D", 0, 3),
])
def test_genus2_line_vertices_are_dehn_reduced(capsys, tmp_path, a, x, n_min, n_max):
    # A Dehn path vertex renders its path state, the Dehn-reduced stack:
    # on L(abA, Bc) the freely reduced abABc, five letters of the relator
    # abABcdCD, is printed as the other three, dcD.  Every vertex is
    # x a^n_min times the label's prefix in the group.
    pres = tmp_path / "genus2.txt"
    pres.write_text("gens: a,b,c,d\nrel: abABcdCD\n")
    assert main(["line", "--backend", f"dehn:{pres}", "--a", a, "--x", x, "--n-min", str(n_min),
                 "--n-max", str(n_max), "--json"]) == 0
    line = json.loads(capsys.readouterr().out)["result"]
    if (a, x) == ("Bc", "abA"):
        assert line["vertices"] == ["abA", "abAB", "dcD", "dcDB", "dcDBc"]
    d = DehnBackend(SURFACE_GENUS2)
    start = x + (a if n_min > 0 else inverse_word(a)) * abs(n_min)
    assert len(line["vertices"]) == len(line["label"]) + 1
    for i, v in enumerate(line["vertices"]):
        assert d.dehn_reduce(v) == v
        assert d.equal(v, start + line["label"][:i]), (i, v)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples(capsys, tmp_path, monkeypatch):
    # every command of README's CLI block, run beside README's profile JSON
    text = README.read_text(encoding="utf-8")
    cli_block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    profile = re.search(r"^### Profile JSON$.*?^```json\n(.*?)^```", text, re.M | re.S).group(1)
    (tmp_path / "profile.json").write_text(profile)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in cli_block.splitlines()]
    assert len(commands) == 11 and all(argv[0] == "periodlines" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
