import subprocess
import sys

import pytest

from eqclus.cli import (
    EXIT_FORMAT,
    EXIT_INFEASIBLE,
    EXIT_OK,
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
        lifted = parse_clustering(fh.read())
    lifted.validate_equal(inst)


def test_exact_kernelize_mode(tmp_path, capsys):
    inst = make_instance([(7, 0), (7, 1)], p=1, k=1, B=1)
    inst_f = write(tmp_path / "i.ecl", format_instance(inst))
    kern_f = str(tmp_path / "k.ecl")
    assert main(["kernelize", inst_f, "--mode", "exact", "-o", kern_f]) == EXIT_OK
    with open(kern_f, encoding="utf-8") as fh:
        kern = parse_instance(fh.read())
    assert [pt.coords for pt in kern.points] == [(0, 0), (1, 0)]


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
        clustering = parse_clustering(fh.read())
    assert clustering.clusters() == [[0, 1], [2, 3]]


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
    # usage errors exit with 2 via argparse
    with pytest.raises(SystemExit) as exc:
        main(["kernelize", junk_f, "--mode", "lossy"])
    assert exc.value.code == 2
    # guard overflow
    big = make_instance([(i,) for i in range(20)], p=1, k=10, B=0)
    big_f = write(tmp_path / "big.ecl", format_instance(big))
    assert main(["solve", big_f, "--method", "brute"]) == EXIT_INFEASIBLE
    capsys.readouterr()


@pytest.mark.parametrize("text", ['{"format": "ECLCTX", "version": 1}', "[1, 2]", "not json"])
def test_lift_rejects_malformed_context(tmp_path, capsys, text):
    ctx_f = write(tmp_path / "ctx.json", text + "\n")
    assert main(["lift", "--ctx", ctx_f]) == EXIT_FORMAT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lift context:")


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--count", "2", "--seed", "11"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 8 checks passed" in out


def test_verify_parallel_jobs(capsys):
    assert main(["verify", "--count", "2", "--seed", "12", "--jobs", "2"]) == EXIT_OK
    assert "checks passed" in capsys.readouterr().out


def test_console_entry_point_round_trip(tmp_path):
    # the installed package must be runnable as python -m eqclus
    inst_f = str(tmp_path / "i.ecl")
    gen = subprocess.run([sys.executable, "-m", "eqclus", "gen", "--n", "4", "--k", "2",
                          "--d", "1", "--p", "1", "--B", "1", "--seed", "3",
                          "-o", inst_f], capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr
    solve = subprocess.run([sys.executable, "-m", "eqclus", "solve", inst_f,
                            "--method", "brute"], capture_output=True, text=True)
    assert solve.returncode == 0, solve.stderr
    assert solve.stdout.startswith("cost ")
