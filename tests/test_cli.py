import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import eqclus
from eqclus import verify
from eqclus.cli import (
    EXIT_FORMAT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from eqclus.core import clustering_cost, make_instance
from eqclus.formats import format_instance, parse_clustering, parse_instance
from eqclus.oracle import brute_force_opt

FIG1_RSM = "RSM 3 6 4\n1 2 3\n4 5 6\n1 3 5\n2 4 5\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--n", "8", "--k", "2", "--d", "2", "--p", "1", "--B", "3",
            "--seed", "4", "--coord-bound", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    inst = parse_instance(first)
    assert inst.n == 8 and inst.k == 2 and inst.B == 3


def test_gen_planted_zero_noise_evaluates_to_zero(tmp_path, capsys):
    inst_f = str(tmp_path / "i.ecl")
    plant_f = str(tmp_path / "p.assign")
    assert main(["gen", "--n", "12", "--k", "3", "--d", "2", "--p", "1", "--B", "2",
                 "--seed", "9", "--planted", "--noise", "0", "--spread", "7",
                 "-o", inst_f, "--planted-out", plant_f]) == EXIT_OK
    assert main(["eval", inst_f, plant_f]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["cost 0", "truncated 0"]


def test_kernelize_solve_lift_pipeline(tmp_path, capsys):
    inst = make_instance([(0,)] * 4 + [(9,), (9,), (9,), (10,)] + [(20,), (20,), (20,), (23,)],
                         p=1, k=3, B=4)
    inst_f = write(tmp_path / "inst.ecl", format_instance(inst))
    kern_f = str(tmp_path / "kern.ecl")
    ctx_f = str(tmp_path / "ctx.json")
    sol_f = str(tmp_path / "sol.assign")
    out_f = str(tmp_path / "lifted.assign")

    assert main(["kernelize", inst_f, "--mode", "lossy", "-o", kern_f, "--ctx", ctx_f]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", kern_f, "--method", "brute", "-o", sol_f]) == EXIT_OK
    capsys.readouterr()
    assert main(["lift", sol_f, "--ctx", ctx_f, "-o", out_f]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", inst_f, out_f]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    lifted_trunc = int(lines[1].split()[1])
    _, opt = brute_force_opt(inst)
    assert lifted_trunc <= 2 * min(opt.exact, inst.B + 1)

    with open(out_f, encoding="utf-8") as fh:
        lifted = parse_clustering(fh.read(), inst.ids())
    lifted.validate_equal(inst.ids(), inst.k)


# each command with two outputs: argv for inputs in tmp_path and the two output flags
TWO_OUTPUTS = {
    "kernelize": (lambda d: ["kernelize", str(d / "inst.ecl"), "--mode", "lossy"],
                  ("--ctx", "-o")),
    "gen": (lambda d: ["gen", "--n", "12", "--k", "3", "--planted"], ("-o", "--planted-out")),
    "reduce-rsm": (lambda d: ["reduce-rsm", str(d / "h.rsm"), "--matching", str(d / "m.txt")],
                   ("-o", "--clustering-out")),
    "reduce-3dm": (lambda d: ["reduce-3dm", str(d / "t.tdm"), "--matching", str(d / "m.txt")],
                   ("-o", "--clustering-out")),
}


def _write_inputs(d):
    inst = make_instance([(0,)] * 4 + [(9,), (9,), (9,), (10,)] + [(20,), (20,), (20,), (23,)],
                         p=1, k=3, B=4)
    write(d / "inst.ecl", format_instance(inst))
    write(d / "h.rsm", FIG1_RSM)
    write(d / "t.tdm", "TDM 2 4\n1 1 1\n2 2 2\n1 2 2\n2 1 1\n")
    write(d / "m.txt", "1 2\n")


def _tree(d):
    return sorted(str(f.relative_to(d)) for f in d.rglob("*"))


@pytest.mark.parametrize("command, broken, how, existing", [
    pytest.param(command, broken, how, existing,
                 id=f"{command}-{flag.lstrip('-')}-{how}-{'existing' if existing else 'fresh'}")
    for command, (_, flags) in TWO_OUTPUTS.items()
    for broken, flag in enumerate(flags)
    for how in ("nodir", "isdir")
    for existing in (False, True)])
def test_failed_write_leaves_no_output(tmp_path, capsys, command, broken, how, existing):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    _write_inputs(inputs)
    make_argv, flags = TWO_OUTPUTS[command]
    dests = [out / "first", out / "second"]
    if existing:
        for dest in dests:
            dest.write_bytes(b"old\n")
    if how == "nodir":
        dests[broken] = out / "nodir" / "x"
    else:
        dests[broken] = out / "adir"
        dests[broken].mkdir()
    before = _tree(out)
    argv = make_argv(inputs) + [flags[0], str(dests[0]), flags[1], str(dests[1])]
    assert main(argv) == EXIT_FORMAT
    assert _tree(out) == before  # no output, no temp file
    if existing:
        assert dests[1 - broken].read_bytes() == b"old\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(dests[broken]) in captured.err


def test_kernelize_context_to_stdout(tmp_path, capsys, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["kernelize", "inst.ecl", "--mode", "lossy", "--ctx", "-",
                 "-o", "k.ecl"]) == EXIT_OK
    ctx_text = capsys.readouterr().out
    assert json.loads(ctx_text)["format"] == "ECLCTX"
    assert not (tmp_path / "-").exists() and (tmp_path / "k.ecl").is_file()
    # and lift reads it back from stdin
    assert main(["solve", "k.ecl", "--method", "brute", "-o", "ks.assign"]) == EXIT_OK
    monkeypatch.setattr(sys, "stdin", io.StringIO(ctx_text))
    assert main(["lift", "ks.assign", "--ctx", "-", "-o", "l.assign"]) == EXIT_OK
    inst = parse_instance((tmp_path / "inst.ecl").read_text(encoding="utf-8"))
    parse_clustering((tmp_path / "l.assign").read_text(encoding="utf-8"),
                     inst.ids()).validate_equal(inst.ids(), inst.k)
    assert not (tmp_path / "-").exists()


def test_outputs_write_through_symlinks_and_pipes(tmp_path, monkeypatch):
    # a symlinked target is written through, and a pipe is written, not renamed onto
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.ecl").write_text("old\n", encoding="utf-8")
    (tmp_path / "link.ecl").symlink_to("real.ecl")
    os.mkfifo(tmp_path / "pipe")
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp_path / "pipe").read_text()),
                              daemon=True)
    reader.start()
    assert main(["gen", "--n", "4", "--k", "2", "--planted", "-o", "link.ecl",
                 "--planted-out", "pipe"]) == EXIT_OK
    reader.join(timeout=10)
    assert not reader.is_alive() and got[0].startswith("ASSIGN 1 4 2\n")
    assert (tmp_path / "link.ecl").is_symlink()
    assert (tmp_path / "real.ecl").read_text(encoding="utf-8").startswith("ECL 1\n")
    assert (tmp_path / "pipe").is_fifo()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.ecl", "pipe", "real.ecl"]


@pytest.mark.parametrize("argv", [
    pytest.param(["reduce-rsm", "h.rsm", "--matching", "m.txt"], id="reduce-rsm-defaults"),
    pytest.param(["reduce-rsm", "h.rsm", "--matching", "m.txt", "-o", "-", "--clustering-out", "-"],
                 id="reduce-rsm-dashes"),
    pytest.param(["solve", "inst.ecl", "-o", "-"], id="solve"),
    pytest.param(["kernelize", "inst.ecl", "--mode", "lossy", "--ctx", "-"], id="kernelize"),
    pytest.param(["gen", "--n", "4", "--k", "2", "--planted", "--planted-out", "-"], id="gen"),
])
def test_two_outputs_on_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")
    assert _tree(tmp_path) == before


def test_exact_kernelize_mode(tmp_path, capsys):
    inst = make_instance([(7, 0), (7, 1)], p=1, k=1, B=1)
    inst_f = write(tmp_path / "i.ecl", format_instance(inst))
    kern_f = str(tmp_path / "k.ecl")
    assert main(["kernelize", inst_f, "--mode", "exact", "-o", kern_f]) == EXIT_OK
    with open(kern_f, encoding="utf-8") as fh:
        kern = parse_instance(fh.read())
    assert [pt.coords for pt in kern.points] == [(0,), (1,)]


def test_solve_large_reports_nobudget(tmp_path, capsys):
    inst = make_instance([(0,)] * 5 + [(5,)] * 2 + [(9,)] * 2 + [(17,)], p=1, k=2, B=1)
    inst_f = write(tmp_path / "i.ecl", format_instance(inst))
    assert main(["solve", inst_f, "--method", "large"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "NOBUDGET"


def test_solve_auto_picks_regime(tmp_path, capsys):
    large = make_instance([(0,)] * 5 + [(5,)] * 4 + [(6,)], p=1, k=2, B=1)
    f1 = write(tmp_path / "a.ecl", format_instance(large))
    assert main(["solve", f1, "--method", "auto"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "cost 1"
    small = make_instance([(0,), (1,), (2,), (9,)], p=1, k=2, B=10)
    f2 = write(tmp_path / "b.ecl", format_instance(small))
    assert main(["solve", f2, "--method", "auto"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "cost 8"


def test_solve_matching_against_median_file(tmp_path, capsys):
    inst = make_instance([(0,), (1,), (2,), (9,)], p=1, k=2, B=0)
    inst_f = write(tmp_path / "i.ecl", format_instance(inst))
    meds = make_instance([(0,), (9,)], p=1, k=2, B=0)
    meds_f = write(tmp_path / "m.ecl", format_instance(meds))
    out_f = str(tmp_path / "c.assign")
    assert main(["solve", inst_f, "--method", "matching", "--medians", meds_f,
                 "-o", out_f]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "cost 8"
    with open(out_f, encoding="utf-8") as fh:
        clustering = parse_clustering(fh.read(), inst.ids())
    assert clustering.clusters() == [[0, 1], [2, 3]]


def test_medians_that_do_not_fit_the_instance_are_a_file_error(tmp_path, capsys):
    inst_f = write(tmp_path / "i.ecl", format_instance(
        make_instance([(0, 0), (1, 1), (2, 2), (9, 9)], p=1, k=2, B=0)))
    three_f = write(tmp_path / "three.ecl", format_instance(
        make_instance([(0, 0), (1, 1), (9, 9)], p=1, k=1, B=0)))
    cube_f = write(tmp_path / "cube.ecl", format_instance(
        make_instance([(0, 0, 0), (9, 9, 9)], p=1, k=1, B=0)))
    for meds_f, err in ((three_f, "error: medians file has 3 points, instance needs k = 2\n"),
                        (cube_f, "error: medians file has dimension 3, "
                                 "instance has dimension 2\n")):
        assert main(["solve", inst_f, "--method", "matching", "--medians", meds_f]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err


def test_reduce_rsm_planted_evaluates_to_budget(tmp_path, capsys):
    rsm_f = write(tmp_path / "h.rsm", FIG1_RSM)
    match_f = write(tmp_path / "m.txt", "1 2\n")
    inst_f = str(tmp_path / "i.ecl")
    plant_f = str(tmp_path / "p.assign")
    assert main(["reduce-rsm", rsm_f, "-o", inst_f, "--matching", match_f,
                 "--clustering-out", plant_f]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", inst_f, plant_f]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "cost 42"


def test_reduce_3dm_planted_costs_seven_n(tmp_path, capsys):
    tdm_f = write(tmp_path / "t.tdm", "TDM 2 4\n1 1 1\n2 2 2\n1 2 2\n2 1 1\n")
    match_f = write(tmp_path / "m.txt", "1 2\n")
    inst_f = str(tmp_path / "i.ecl")
    plant_f = str(tmp_path / "p.assign")
    assert main(["reduce-3dm", tdm_f, "-o", inst_f, "--matching", match_f,
                 "--clustering-out", plant_f]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", inst_f, plant_f]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "cost 42"


def test_exit_codes(tmp_path, capsys):
    junk_f = write(tmp_path / "junk.ecl", "not an instance\n")
    assert main(["solve", junk_f]) == EXIT_FORMAT
    # k does not divide n: infeasible, not a format error
    bad_f = write(tmp_path / "bad.ecl", "ECL 1\n1 1 3 2 0\n0\n1\n2\n")
    assert main(["solve", bad_f]) == EXIT_INFEASIBLE
    capsys.readouterr()
    # an instance with no points and no clusters: one error, whatever the command
    empty_f = write(tmp_path / "empty.ecl", "ECL 1\n1 1 0 0 0\n")
    ctx_f = str(tmp_path / "empty.ctx")
    for argv in (["solve", empty_f], ["solve", empty_f, "--method", "large"],
                 ["solve", empty_f, "--method", "brute"],
                 ["kernelize", empty_f, "--ctx", ctx_f], ["kernelize", empty_f, "--mode", "exact"],
                 ["eval", empty_f, write(tmp_path / "empty.asg", "ASSIGN 1 0 1\n")]):
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.splitlines() == ["error: k must be >= 1, got 0"]
    assert not os.path.exists(ctx_f)
    # a bad header, no points, a missing or needless flag: one error line each
    two_f = write(tmp_path / "two.ecl", "ECL 1\n1 1 2 1 0\n0\n1\n")
    pair_f = write(tmp_path / "pair.asg", "ASSIGN 1 2 1\n1\n1\n")
    for argv, code, err in (
            (["eval", write(tmp_path / "d0.ecl", "ECL 1\n1 0 2 1 0\n"), pair_f], EXIT_FORMAT,
             "error: instance: bad header dimensions"),
            (["eval", two_f, write(tmp_path / "k0.asg", "ASSIGN 1 2 0\n1\n1\n")], EXIT_FORMAT,
             "error: clustering: bad header"),
            (["eval", write(tmp_path / "n0.ecl", "ECL 1\n1 1 0 1 0\n"), pair_f], EXIT_INFEASIBLE,
             "error: need n >= k for cluster size >= 1 (n=0, k=1)"),
            (["solve", two_f, "--method", "matching"], EXIT_USAGE,
             "usage error: --method matching requires --medians FILE"),
            (["gen", "--planted", "--n", "10", "--k", "3"], EXIT_INFEASIBLE,
             "error: n = 10 is not divisible by k = 3")):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [err]
    # usage errors exit with 2 via argparse
    for argv in (["kernelize", junk_f, "--mode", "lossy"],
                 ["kernelize", two_f, "--mode", "exact", "--ctx", ctx_f]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "eqclus: error: --ctx applies only to --mode lossy (exact kernels need no lifting)")
    assert not os.path.exists(ctx_f)
    # guard overflow
    big = make_instance([(i,) for i in range(20)], p=1, k=10, B=0)
    big_f = write(tmp_path / "big.ecl", format_instance(big))
    assert main(["solve", big_f, "--method", "brute"]) == EXIT_INFEASIBLE
    capsys.readouterr()
    # bytes that are not UTF-8 make a malformed file, not infeasible parameters
    raw_f = tmp_path / "raw.ecl"
    raw_f.write_bytes(b"\xff\xfe")
    good = make_instance([(0,), (1,)], p=1, k=1, B=0)
    good_f = write(tmp_path / "good.ecl", format_instance(good))
    for argv in (["solve", str(raw_f)], ["eval", str(raw_f), str(raw_f)],
                 ["eval", good_f, str(raw_f)], ["reduce-rsm", str(raw_f)]):
        assert main(argv) == EXIT_FORMAT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
    # a pth-power sum beyond float range (p = 400) whose root is not: the
    # distance is rescaled by the largest gap
    huge_f = write(tmp_path / "huge.ecl", "ECL 1\n400 1 41 1 10\n" + "0\n" * 40 + "10\n")
    assert main(["solve", huge_f]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "cost 10.0"
    # a distance beyond float range itself: one error line, exit 4
    beyond_f = write(tmp_path / "beyond.ecl", f"ECL 1\n2 1 2 1 0\n0\n{10 ** 400}\n")
    one_f = write(tmp_path / "one.asg", "ASSIGN 1 2 1\n1\n1\n")
    assert main(["eval", beyond_f, one_f]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # at p = 1 the same points have an exact integer cost, which no command
    # turns into a float
    exact_f = write(tmp_path / "exact.ecl", f"ECL 1\n1 1 2 1 0\n0\n{10 ** 400}\n")
    zero_f = write(tmp_path / "zero.ecl", "ECL 1\n1 1 1 1 0\n0\n")
    for argv, want in (
            (["eval", exact_f, one_f], [f"cost {10 ** 400}", "truncated 1"]),
            (["solve", exact_f, "--method", "brute"], [f"cost {10 ** 400}"]),
            (["solve", exact_f, "--method", "matching", "--medians", zero_f],
             [f"cost {10 ** 400}"])):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == want
    # a point farther than B from every candidate is never priced: the exact
    # budget check alone answers NO
    far_f = write(tmp_path / "far.ecl", "ECL 1\n400 1 10 1 1\n" + "0\n" * 9 + "10\n")
    assert main(["solve", far_f]) == EXIT_OK
    assert capsys.readouterr().out == "NOBUDGET\n"


@pytest.mark.parametrize("method", ["auto", "brute"])
def test_solve_singleton_clusters_at_scale(tmp_path, capsys, method):
    # s = 1 < 4B + 1, so auto takes the exhaustive search as brute does
    inst_f = write(tmp_path / "s1.ecl", format_instance(
        make_instance([(i,) for i in range(2000)], p=1, k=2000, B=1)))
    sol_f = tmp_path / "s1.assign"
    assert main(["solve", inst_f, "--method", method, "-o", str(sol_f)]) == EXIT_OK
    assert capsys.readouterr().out == "cost 0\n"
    clustering = parse_clustering(sol_f.read_text(encoding="utf-8"), range(2000))
    assert clustering.clusters() == [[i] for i in range(2000)]


def _context(branch, ids=(0, 1), k=1, blocks=None, version=3):
    # the original as its ids and k
    return json.dumps({"format": "ECLCTX", "version": version, "branch": branch,
                       "original": {"k": k, "ids": ids}, "blocks": blocks})


# contexts as `kernelize --mode lossy` wrote them before version 3: version 1
# stored the original's coordinates, the kernel and a large-yes optimum as a
# clustering; version 2 stored the kernel
V1_LARGE_YES_CONTEXT = json.dumps({
    "format": "ECLCTX", "version": 1, "branch": "large-yes",
    "original": {"p": 1, "k": 2, "B": 1, "dim": 1, "ids": list(range(10)),
                 "coords": [[0], [10], [10], [0], [11], [0], [10], [0], [10], [0]]},
    "kernel": {"p": 1, "k": 1, "B": 0, "dim": 1, "ids": [0], "coords": [[0]]},
    "blocks": None,
    "solved": {"k": 2, "assignment": {"0": 1, "3": 1, "5": 1, "7": 1, "9": 1,
                                      "1": 2, "2": 2, "6": 2, "8": 2, "4": 2}}})
V2_GENERIC_CONTEXT = json.dumps({
    "format": "ECLCTX", "version": 2, "branch": "generic",
    "original": {"k": 3, "ids": list(range(12))},
    "kernel": {"p": 1, "k": 2, "B": 4, "dim": 3, "ids": [0, 1, 3, 4, 7, 9, 10, 11],
               "coords": [[1, 4, 0], [0, 2, 0], [3, 3, 0], [3, 1, 0], [3, 4, 0], [2, 1, 0],
                          [4, 0, 0], [2, 0, 0]]},
    "blocks": [[2, 5, 6, 8]]})

NOT_V3 = "not an ECLCTX version 3 file"
NOT_IDS = "the original's ids must be increasing nonnegative integers"
NOT_BLOCK_IDS = "the blocks must be lists of integer ids"
NOT_DISJOINT = "the blocks are not disjoint sets of the original's ids"
NOT_FITTING = "the blocks do not fit the original's k"


@pytest.mark.parametrize("text, message", [
    pytest.param('{"format": "ECLCTX", "version": 1}', NOT_V3,
                 id='{"format": "ECLCTX", "version": 1}'),
    pytest.param("[1, 2]", "not a JSON object", id="[1, 2]"),
    pytest.param("not json", "not JSON (Expecting value: line 1 column 1 (char 0))",
                 id="not json"),
    pytest.param(V1_LARGE_YES_CONTEXT, NOT_V3, id="v1-context"),
    pytest.param(V2_GENERIC_CONTEXT, NOT_V3, id="v2-context"),
    pytest.param(_context("generic", ids=(0, 1, 2, 3), k=2, blocks=[[0, 999]]), NOT_DISJOINT,
                 id="block-id-not-in-original"),
    pytest.param(_context("empty-after-greedy", blocks=[[0]]), NOT_FITTING,
                 id="blocks-miss-an-id"),
    pytest.param(_context("dimreduce-no", ids=(0.5, 1.5)), NOT_IDS, id="fractional-ids"),
    pytest.param(_context("large-no", ids=(0, 0)), NOT_IDS, id="v3-duplicate-ids"),
    pytest.param(_context("large-no", ids=(-1, 0)), NOT_IDS, id="v3-negative-id"),
    pytest.param(_context("large-no", ids=(False, True)), NOT_IDS, id="v3-bool-ids"),
    pytest.param(_context("large-no", ids=(1, 0)), NOT_IDS, id="v3-decreasing-ids"),
    pytest.param(_context("weird"), "unknown branch 'weird'", id="v3-unknown-branch"),
    pytest.param(_context("large-no", k=0), "k = 0 does not split 2 ids equally",
                 id="v3-k-zero"),
    pytest.param(_context("large-no", ids=(0, 1, 2), k=2), "k = 2 does not split 3 ids equally",
                 id="v3-k-not-dividing-n"),
    pytest.param(_context("large-yes"), "branch large-yes needs field 'blocks'",
                 id="v3-large-yes-without-blocks"),
    pytest.param(_context("large-yes", blocks=[0, 1]), NOT_BLOCK_IDS,
                 id="v3-block-not-a-list"),
    pytest.param(_context("large-yes", blocks=[[False, True]]), NOT_BLOCK_IDS,
                 id="v3-bool-block-entries"),
    pytest.param(_context("large-yes", blocks=[[0.0, 1.0]]), NOT_BLOCK_IDS,
                 id="v3-float-block-entries"),
    pytest.param(_context("generic", ids=(0, 1, 2, 3), k=2, blocks=[[0, 1], [2, 3]]),
                 NOT_FITTING, id="v3-generic-blocks-leave-no-kernel"),
    pytest.param(_context("large-yes", ids=(0, 1, 2, 3), k=2, blocks=[[0, 1]]), NOT_FITTING,
                 id="v3-large-yes-too-few-blocks"),
    pytest.param(_context("large-yes", ids=(0, 1, 2, 3), k=2, blocks=[[0, 1], [1, 2]]),
                 NOT_DISJOINT, id="v3-overlapping-blocks"),
    pytest.param(_context("generic", ids=(0, 1, 2, 3), k=2, blocks=[[0]]), NOT_FITTING,
                 id="v3-block-of-wrong-size"),
    pytest.param(_context("generic", ids=(0, 1, 2, 3), k=2, blocks=[[0, 1]], version=4),
                 NOT_V3, id="v4"),
])
def test_lift_rejects_malformed_context(tmp_path, capsys, text, message):
    ctx_f = write(tmp_path / "ctx.json", text + "\n")
    assert main(["lift", "--ctx", ctx_f]) == EXIT_FORMAT
    assert capsys.readouterr().err == f"error: lift context: {message}\n"


# each command that reads two inputs, both from stdin, and what stdin holds
TWO_STDIN_INPUTS = {
    "eval": (["eval", "-", "-"], "inst.ecl"),
    "lift": (["lift", "-", "--ctx", "-"], "inst.ctx"),
    "solve": (["solve", "-", "--method", "matching", "--medians", "-"], "inst.ecl"),
    "reduce-rsm": (["reduce-rsm", "-", "--matching", "-"], "h.rsm"),
    "reduce-3dm": (["reduce-3dm", "-", "--matching", "-"], "t.tdm"),
}


@pytest.mark.parametrize("command", TWO_STDIN_INPUTS)
def test_two_inputs_from_stdin_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # stdin can be read once, so the second input would be an empty file
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["kernelize", "inst.ecl", "-o", "inst.kern", "--ctx", "inst.ctx"]) == EXIT_OK
    capsys.readouterr()
    argv, stdin_file = TWO_STDIN_INPUTS[command]
    monkeypatch.setattr(sys, "stdin", io.StringIO((tmp_path / stdin_file).read_text()))
    before = _tree(tmp_path)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: at most one input can come from stdin\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command, clustering, message", [
    pytest.param("eval", "ASSIGN 1 12 2\n" + "1\n2\n" * 6,
                 "error: clustering has k=2, needs k=3\n", id="eval-wrong-k"),
    pytest.param("eval", "ASSIGN 1 12 3\n" + "1\n" * 5 + "2\n" * 3 + "3\n" * 4, None,
                 id="eval-wrong-size"),
    pytest.param("eval", "ASSIGN 1 11 3\n" + "1\n2\n3\n" * 3 + "1\n2\n",
                 "error: clustering: 11 entries for 12 points\n", id="eval-wrong-count"),
    pytest.param("lift", "ASSIGN 1 8 1\n" + "1\n" * 8,
                 "error: clustering has k=1, needs k=2\n", id="lift-wrong-k"),
    pytest.param("lift", "ASSIGN 1 8 2\n" + "1\n" * 5 + "2\n" * 3, None, id="lift-wrong-size"),
    pytest.param("lift", "ASSIGN 1 12 3\n" + "1\n2\n3\n" * 4,
                 "error: clustering: 12 entries for 8 points\n", id="lift-wrong-count"),
    pytest.param("lift", None, None, id="lift-no-kernel-clustering"),
])
def test_clustering_that_does_not_fit_is_a_file_error(tmp_path, capsys, monkeypatch,
                                                       command, clustering, message):
    # the instance has 12 points in 3 clusters; its generic kernel 8 in 2
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["kernelize", "inst.ecl", "-o", "inst.kern", "--ctx", "inst.ctx"]) == EXIT_OK
    assert json.loads((tmp_path / "inst.ctx").read_text())["branch"] == "generic"
    capsys.readouterr()
    files = [] if clustering is None else [write(tmp_path / "c.assign", clustering)]
    if command == "eval":
        argv = ["eval", "inst.ecl", *files]
    else:
        argv = ["lift", *files, "--ctx", "inst.ctx", "-o", "lifted.assign"]
    assert main(argv) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    if message is not None:
        assert captured.err == message
    assert not (tmp_path / "lifted.assign").exists()


@pytest.mark.parametrize("argv, text", [
    (["reduce-rsm"], "RSM 4 800 0\n"),  # 12 bytes: 2400 points in dimension 6400
    (["reduce-3dm"], "TDM 700 0"),    # 4200 points in dimension 12600
    (["gen", "--n", "10", "--k", "1", "--d", "2000000"], None),
    (["gen", "--n", "10", "--k", "1", "--d", "2000000", "--planted"], None),
])
def test_sizes_are_bounded_before_building(tmp_path, capsys, argv, text):
    # the header alone asks for more than MAX_COORDINATES coordinates
    if text is not None:
        argv = argv + [write(tmp_path / "problem.txt", text)]
    assert main(argv + ["-o", str(tmp_path / "out.ecl")]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "coordinates" in err[0]
    assert not (tmp_path / "out.ecl").exists()


def test_rsm_header_uniformity_is_checked_before_the_edges(tmp_path, capsys):
    # with r <= 0 no edge reads a token, so m alone would size the edge list
    def timeout(signum, frame):
        raise TimeoutError("reduce-rsm read the edges of an invalid header")

    rsm_f = write(tmp_path / "h.rsm", "RSM 0 1 1000000000\n")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        assert main(["reduce-rsm", rsm_f]) == EXIT_FORMAT
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err == "error: hypergraph: uniformity r must be >= 3\n"


SUITE_LINE = re.compile(r"verify: suite (\S+): (\d+) instances, (\d+\.\d\d) s, "
                        r"slowest (\S+)\(n=\d+,k=\d+,B=\d+,p=[01],seed=\d+\) (\d+\.\d\d) s")


def assert_suite_timings(err: str, per_suite: int) -> None:
    # one stderr line per suite: instance count, total wall time, slowest case
    matches = [SUITE_LINE.fullmatch(line) for line in err.splitlines()]
    assert all(matches), err
    assert [m[1] for m in matches] == ["exact-kernel", "large", "ratio", "structure"]
    for m in matches:
        assert int(m[2]) == per_suite
        assert m[4] == m[1]
        assert float(m[5]) <= float(m[3])


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--count", "2", "--seed", "11"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "verify: all 8 checks passed\n"
    assert_suite_timings(captured.err, 2)


def test_verify_parallel_jobs(capsys):
    assert main(["verify", "--count", "2", "--seed", "12", "--jobs", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "checks passed" in captured.out
    assert_suite_timings(captured.err, 2)


def test_verify_reports_each_violation_and_fails(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "ratio", lambda inst: [f"planted at n={inst.n}"])
    assert main(["verify", "--count", "2", "--seed", "11"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == (
        "VIOLATION ratio(n=8,k=2,B=1,p=0,seed=1152019): planted at n=8\n"
        "VIOLATION ratio(n=8,k=4,B=1,p=1,seed=1152020): planted at n=8\n"
        "verify: 2 of 8 checks failed\n")
    assert_suite_timings(captured.err, 2)


@pytest.mark.parametrize("flags", [["--count", "0"], ["--count", "-1"],
                                   ["--jobs", "0"], ["--jobs", "-2"]])
def test_verify_rejects_a_run_that_checks_nothing(flags, capsys):
    # no checks, or no worker to run them, is a usage error, not "all 0 checks passed"
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and flags[0] in captured.err


def test_costs_print_beyond_the_int_to_str_digit_limit(tmp_path, capsys):
    # X = 9*10^4299 has 4300 digits, the most int() parses by default; the
    # cost 2X has 4301, which Python would refuse to turn into text
    x_text = "9" + "0" * 4299
    inst_f = write(tmp_path / "x.ecl", f"ECL 1\n1 1 2 1 0\n-{x_text}\n{x_text}\n")
    one_f = write(tmp_path / "one.asg", "ASSIGN 1 2 1\n1\n1\n")
    cost = "cost 18" + "0" * 4299
    limit = sys.get_int_max_str_digits()
    for argv, want in ((["eval", inst_f, one_f], [cost, "truncated 1"]),
                       (["solve", inst_f, "--method", "brute"], [cost])):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == want
        assert sys.get_int_max_str_digits() == limit
    # parsing keeps the limit: a coordinate of 4301 digits is a malformed file
    long_f = write(tmp_path / "long.ecl", "ECL 1\n1 1 2 1 0\n0\n1" + "0" * 4300 + "\n")
    assert main(["eval", long_f, one_f]) == EXIT_FORMAT


def test_generator_commands_import_generators_themselves(tmp_path):
    # importing the cli leaves eqclus.generators out; in a fresh interpreter
    # each command that builds instances must import it on its own
    src = str(Path(eqclus.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    write(tmp_path / "h.rsm", FIG1_RSM)
    write(tmp_path / "t.tdm", "TDM 1 1\n1 1 1\n")
    write(tmp_path / "hm.txt", "1 2\n")
    write(tmp_path / "tm.txt", "1\n")
    for argv in (["gen", "--n", "6", "--k", "2", "--planted", "-o", "g.ecl",
                  "--planted-out", "g.asg"],
                 ["reduce-rsm", "h.rsm", "-o", "r.ecl", "--matching", "hm.txt",
                  "--clustering-out", "r.asg"],
                 ["reduce-3dm", "t.tdm", "-o", "t.ecl", "--matching", "tm.txt",
                  "--clustering-out", "t.asg"],
                 ["verify", "--count", "1", "--jobs", "2"]):
        proc = subprocess.run([sys.executable, "-m", "eqclus", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, (argv, proc.stderr)
    for stem in ("g", "r", "t"):
        inst = parse_instance((tmp_path / f"{stem}.ecl").read_text(encoding="utf-8"))
        planted = parse_clustering((tmp_path / f"{stem}.asg").read_text(encoding="utf-8"),
                                   inst.ids())
        assert len(planted.assignment) == inst.n and planted.k == inst.k
    assert proc.stdout == "verify: all 4 checks passed\n"


def test_verify_and_oracle_layering():
    # only the verify command loads eqclus.verify; the oracle imports nothing
    # of the pipeline, and the package root imports nothing at all
    src = str(Path(eqclus.__file__).resolve().parent.parent)

    def loaded(module: str) -> set[str]:
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 f"import {module}; print(*sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                              capture_output=True, text=True, check=True)
        return {name for name in proc.stdout.split() if name.partition(".")[0] == "eqclus"}

    assert "eqclus.verify" not in loaded("eqclus.cli")
    assert loaded("eqclus.oracle") == {"eqclus", "eqclus.core", "eqclus.oracle"}


def test_console_entry_point_round_trip(tmp_path):
    # the installed package must be runnable as python -m eqclus
    inst_f = str(tmp_path / "i.ecl")
    # the subprocesses import the same package as this test, installed or not
    src = str(Path(eqclus.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    gen = subprocess.run([sys.executable, "-m", "eqclus", "gen", "--n", "4", "--k", "2",
                          "--d", "1", "--p", "1", "--B", "1", "--seed", "3",
                          "-o", inst_f], capture_output=True, text=True, env=env)
    assert gen.returncode == 0, gen.stderr
    solve = subprocess.run([sys.executable, "-m", "eqclus", "solve", inst_f,
                            "--method", "brute"], capture_output=True, text=True, env=env)
    assert solve.returncode == 0, solve.stderr
    assert solve.stdout.startswith("cost ")
