"""Tests of the benchmark itself: every workload at a tiny size, the oracles
against tampered outputs, the host-speed scaling, and self time on a
hand-built span tree.

    python3 -m pytest perfbench/tests -q
"""

import io
import itertools
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, WRONG  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send the records to a temporary directory."""
    monkeypatch.setattr(workloads.FreeCorpus, "COMMENSURABLE", 2)
    monkeypatch.setattr(workloads.FreeCorpus, "OTHER", 3)
    # delta 0 and a small acylindricity table: 78-period windows, with the
    # same trim shift (k = 3) and so the same verdict per instance class
    monkeypatch.setattr(workloads.FpTheorem, "PROFILE", (0, 2, 1, {48: (0, 1)}))
    monkeypatch.setattr(workloads.FpEstimate, "PERIODS", 2)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def lib():
    return run.import_library()


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


# Layer metrics that a traced pass of each workload must move.
USED = {
    "free-corpus": ["geometry.neighborhood.calls", "backends.normal_form.calls",
                    "freewords.overlap_root.calls", "geometry.neighborhood.fallback_ratio"],
    "fp-theorem": ["geometry.periodic_line.edges", "geometry.render_chars_per_edge",
                   "constants.self_s", "harness.main_theorem_check.self_s",
                   "harness.hypothesis_failed"],
    "fp-estimate": ["geometry.hausdorff_distance.calls", "geometry.quasi_geodesic_check.calls",
                    "geometry.estimate_delta.self_s", "geometry.acylindricity_profile.calls"],
    "dehn-cli": ["backends.dehn_reduce.calls", "backends.ball.self_s", "cli.main.self_s",
                 "cli.make_backend.self_s"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny(tiny, name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json_line(out.getvalue())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    for metric in USED[name]:
        assert result["metrics"][metric]["value"] > 0, metric

    record = json.loads((tiny / f"{name}-seed3-trace1.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["end_to_end"].items()} == end_to_end
    assert all(v["value"] > 0 for v in record["end_to_end"].values())
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["python"]
    assert record["attempted"] == result["attempted"] == 2 * record["ops_per_pass"]
    assert (tiny / f"{name}-seed3-spans.tsv.gz").is_file()


def test_same_seed_same_inputs():
    labels = [[op.label for op in workloads.FpTheorem(lib(), 5).ops] for _ in range(2)]
    assert labels[0] == labels[1]
    assert sorted(labels[0]) == sorted(c[0] for c in workloads.FpTheorem.CLASSES)


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "free-corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ------------------------------------------------------------ oracles

def test_free_oracle_rejects_tampered_witness():
    wl = workloads.FreeCorpus(lib(), 1)
    env = SimpleNamespace(free=wl.free)
    op = next(op for op in wl.ops if op.label == "commensurable")
    res, out = op.run(env)
    assert op.check((res, out), None) == (OK, "")
    out.witness = {"s": out.witness["s"] + 1, "t": out.witness["t"]}
    assert op.check((res, out), None)[0] == WRONG


def test_free_oracle_rejects_threshold_for_non_commensurable():
    wl = workloads.FreeCorpus(lib(), 1)
    op = next(op for op in wl.ops if op.label.startswith("threshold"))
    assert op.check(None, None) == (OK, "")
    assert op.check(3, None)[0] == WRONG


def test_commensurability_oracles():
    assert oracles.free_commensurable("ab", "baba")
    assert oracles.free_commensurable("ab", "BA")
    assert not oracles.free_commensurable("ab", "aabb")
    assert oracles.fp_commensurable("xyxy", "Yx")  # (xy)^2 and a conjugate of (xy)^-1
    assert not oracles.fp_commensurable("xyxY", "xy")


def test_fp_theorem_oracle_rejects_tampered_witness(monkeypatch):
    monkeypatch.setattr(workloads.FpTheorem, "PROFILE", (0, 2, 1, {48: (0, 1)}))
    wl = workloads.FpTheorem(lib(), 2)
    env = SimpleNamespace(fp=wl.fp)
    op = next(op for op in wl.ops if op.label == "ratio-1")
    res = op.run(env)
    assert res.status == "witness" and op.check(res, None) == (OK, "")
    s, t = res.witness["s"], res.witness["t"]
    for tampered in ({"s": s, "t": t + 1}, {"s": -s, "t": t}, {"s": 0, "t": 0}):
        res.witness = tampered
        assert op.check(res, None)[0] == WRONG, tampered
    non = next(op for op in wl.ops if op.label == "non-commensurable")
    assert non.check(SimpleNamespace(status="witness", witness={"s": 1, "t": 1}), None)[0] == WRONG


def test_fp_frozen_values_match_definitions():
    # every conjugacy-shortest loxodromic of length <= 4, acceptance 7's corpus
    assert len(oracles.fp_loxodromic_corpus(4)) == 12
    assert oracles.fp_acylindricity(1, 4) == (2, 1)
    assert [sum(1 for d in oracles.fp_ball(6).values() if d == n) for n in range(7)] == \
        [1, 3, 4, 6, 8, 12, 16]


def test_fuchsian_relation_holds_for_one_orientation_only():
    found = []
    for flips in itertools.product((False, True), repeat=4):
        gens = {}
        for (low, (j, k)), flip in zip(oracles._SIDES.items(), flips):
            g = oracles._pairing(k, j) if flip else oracles._pairing(j, k)
            gens[low], gens[low.upper()] = g, oracles._minv(g)
        m = oracles._IDENTITY
        for c in "abABcdCD":
            m = oracles._mmul(m, gens[c])
        if oracles._key(m) == oracles._key(oracles._IDENTITY):
            found.append(flips)
    assert found == [(False, False, False, False)]


def test_fuchsian_spheres_and_word_problem():
    g = oracles.Genus2Fuchsian(4)
    assert tuple(g.spheres) == oracles.Genus2Fuchsian.SPHERES
    assert g.is_identity("abABcdCD") and g.is_identity("dcDCbaBA")
    assert not g.is_identity("abAB")
    assert g.equal("abAB", "dcDC") and g.word_length("abAB") == 4
    assert g.word_length("abABc") == 3  # abAB = dcDC, so abABc = dcD
    assert g.word_length("aaaaa") is None  # length 5, beyond the ball


def test_dehn_oracle_rejects_tampered_sphere_size(monkeypatch):
    monkeypatch.setattr(oracles.Genus2Fuchsian, "SPHERES", (1, 8, 56, 392, 2744))
    with pytest.raises(AssertionError, match="sphere sizes"):
        workloads.DehnCli(lib(), 1)


def test_dehn_oracle_rejects_tampered_outputs():
    wl = workloads.DehnCli(lib(), 4)
    ops = {op.label: op for op in wl.ops}
    env = SimpleNamespace(free=None, fp=None)
    for label, tamper in (
        ("commensurate", lambda r: r["witness"].update(t=r["witness"]["t"] * 2)),
        ("line", lambda r: r["vertices"].__setitem__(2, r["vertices"][2] + "a")),
        ("stable-norm", lambda r: r.update(stable_norm="1/2")),
        ("acyl-profile", lambda r: r.update(N=r["N"] + 1)),
        ("delta-r1", lambda r: r.update(delta="1/2")),
    ):
        code, out, err = ops[label].run(env)
        assert ops[label].check((code, out, err), None) == (OK, ""), label
        record = json.loads(out)
        tamper(record["result"])
        assert ops[label].check((code, json.dumps(record), err), None)[0] == WRONG, label


# ------------------------------------------------------------ host speed

def test_scaling_cancels_a_uniform_slowdown():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(0.2, ref, ref) == pytest.approx(0.2)
    # a spell that slows the op and the reference work beside it alike
    assert hostspeed.scale(0.3, 1.5 * ref, 1.5 * ref) == pytest.approx(0.2)
    assert hostspeed.scale(0.2, ref, 3 * ref) == pytest.approx(0.1)
    assert run.scaled([0.2, 0.4], [ref, 2 * ref, ref]) == pytest.approx([0.4 / 3, 0.8 / 3])
    assert hostspeed.reference_time() > 0


# ------------------------------------------------------------ spans

def test_self_time_on_hand_built_tree():
    #  0 root  [0, 10]
    #  1   a   [1, 4]
    #  2     b [2, 3]
    #  3   c   [5, 9]    two children overlapping each other and c's end
    #  4     d [6, 8]
    #  5     e [7, 9.5]
    #  6 root  [20, 21]  a second root
    parents = [-1, 0, 1, 0, 3, 3, -1]
    names = ["root", "a", "b", "c", "d", "e", "root"]
    starts = [0, 1, 2, 5, 6, 7, 20]
    ends = [10, 4, 3, 9, 8, 9.5, 21]
    st = spans.self_times(parents, names, starts, ends)
    assert st["root"] == [2, (10 - 3 - 4) + 1]
    assert st["a"] == [1, 2]
    assert st["b"] == [1, 1]
    assert st["c"] == [1, 4 - 3]       # d and e cover [6, 9] of c
    assert st["d"] == [1, 2]
    assert st["e"] == [1, 2.5]


def test_self_time_rejects_spans_out_of_order():
    with pytest.raises(ValueError):
        spans.self_times([1, -1], ["a", "b"], [1, 0], [2, 3])


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("backends.normal_form", lambda w: w.lower(), spans._in_chars)
    outer = tracer.wrap("geometry.path_from_word", lambda w: inner(w) + inner(w))
    assert outer("AB") == "abab"
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.counts["backends.in_chars"] == 4
    st = tracer.self_times()
    assert st["backends.normal_form"][0] == 2
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(v[1] for v in st.values()) - total) < 1e-9
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("x", lambda: 1 / 0)()
    assert tracer.stack == [-1]

