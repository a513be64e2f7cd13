import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lsquare import complexes
from lsquare.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_exit(capsys, *argv):
    """The exit code of a command line that argparse itself ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_usage_errors_exit_one_not_the_fail_code(capsys):
    # exit 2 means "a checked criterion is false"; a bad command line is not that
    for argv in (
        ["betti", "--bogus", "x,y"],
        ["verify", "--count", "abc"],
        ["betti"],
        ["betti", "x,y", "--format", "xml"],
        [],
    ):
        code, out, err = parse_exit(capsys, *argv)
        assert code == 1, argv
        assert out == "" and "usage: lsquare" in err, argv
    code, out, _ = parse_exit(capsys, "--help")
    assert code == 0 and "usage: lsquare" in out
    code, out, _ = parse_exit(capsys, "betti", "--help")
    assert code == 0 and "--max-taylor" in out


def run_bounded(*argv, seconds=5):
    """The CLI in a child process killed after `seconds`, so a hang fails the
    test instead of stalling the suite: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lsquare.cli", *argv],
        capture_output=True, text=True, env=env, timeout=seconds,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_usage_error_exit_code_of_the_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lsquare.cli", "betti", "--bogus", "x,y"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and "--bogus" in proc.stderr


def test_python_dash_m_lsquare_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lsquare", "betti", "--power", "2", "--format", "csv",
         "x,y,z,w"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "beta,10,20,15,4" in proc.stdout.splitlines()


def test_a_reader_that_closes_the_pipe_early_gets_a_quiet_exit_one():
    # as `lsquare betti ... | head -1`; the graded table of this q = 10 square
    # is about 75 kB, more than a pipe holds, so the writer is still writing
    # when the read end closes and always meets the broken pipe
    ideal = "degkl,bfghjk,defikl,cdefghk,acdfgh,bcegijk,cdefhijk,acdeijk,abdefhk,bcdfgi"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-m", "lsquare.cli", "betti", "--power", "2", "--graded",
         "--format", "json", "--max-q", "10", ideal],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 1 and err == b""


def test_each_subcommand_takes_only_the_options_it_reads(capsys):
    unread = (
        ["power", "x,y", "--field", "gf:2"],
        ["power", "x,y", "--max-faces", "1"],
        ["power", "x,y", "--max-taylor", "1"],
        ["power", "x,y", "--max-q", "1"],
        ["build-l2", "x,y", "--field", "gf:2"],
        ["build-l2", "x,y", "--max-faces", "1"],
        ["build-l2", "x,y", "--max-taylor", "1"],
        ["bounds", "x,y", "--max-taylor", "1"],
        ["check-support", "--ideal", "x,y", "--format", "json"],
    )
    for argv in unread:
        code, _, err = parse_exit(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err, argv
    # csv only where a table of rows is printed
    for argv in (["power", "x,y", "--format", "csv"], ["build-l2", "x,y", "--format", "csv"]):
        code, _, err = parse_exit(capsys, *argv)
        assert code == 1 and "invalid choice: 'csv'" in err, argv
    # what each subcommand does read still parses
    for argv in (
        ["power", "x,y", "--vars", "y,x", "-r", "3", "--format", "json"],
        ["build-l2", "x,y", "--vars", "y,x", "--max-q", "2", "--format", "json"],
        ["bounds", "x,y", "--field", "gf:2", "--max-faces", "100", "--max-q", "2",
         "--format", "csv"],
        ["check-support", "--ideal", "x,y", "--power", "2", "--field", "gf:2",
         "--max-faces", "100", "--max-taylor", "5", "--max-q", "2", "--vars", "x,y"],
        ["betti", "x,y", "--power", "2", "--field", "gf:2", "--max-faces", "100",
         "--max-taylor", "5", "--max-q", "2", "--vars", "x,y", "--format", "csv"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_power_command(capsys):
    code, out, _ = run(capsys, "power", "abe,bc,cdf,ad")
    assert code == 0
    assert "s = 9" in out

    code, out, _ = run(capsys, "power", "x,y,z,w", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 10 and len(obj["generators"]) == 10

    code, out, _ = run(capsys, "power", "ab", "-r", "1")
    assert "s = 1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "-r", "6", "a,b,c,d,e,f,g,h,i,j"],
        ["power", "-r", "40", "ab,bc,cd,de,ea,ac"],
        ["betti", "--power", "40", "ab,bc,cd,de,ea,ac"],
        ["check-support", "--power", "40", "--ideal", "ab,bc,cd,de,ea,ac"],
        ["power", "-r", "1000000000", "x"],
        ["power", "-r", "3998", "x,y"],
    ],
)
def test_a_power_with_too_many_products_is_refused_before_any_is_built(capsys, argv):
    # r * C(q + r - 1, r) generator factors: 30 030 for the first, 48 870 360
    # for the next three, 10^9 for one product of 10^9 factors, and
    # 15 988 002 for 3999 products of 3998 factors; the child process bounds a
    # hang, the in-process run times the refusal
    code, out, err = run_bounded(*argv)
    assert code == 3 and out == "", argv
    assert "generator factors" in err and err.rstrip().endswith("raise --max-products")
    start = time.monotonic()
    assert run(capsys, *argv)[0] == 3
    assert time.monotonic() - start < 1, argv


def test_max_products_lifts_the_power_cap(capsys):
    # x, y, z cubed: 10 products of 3 factors each
    code, _, err = run(capsys, "power", "-r", "3", "x,y,z", "--max-products", "29")
    assert code == 3 and "(estimate 30, cap 29: 1.0x the cap)" in err
    code, out, _ = run(capsys, "power", "-r", "3", "x,y,z", "--max-products", "30")
    assert code == 0 and "s = 10" in out
    # the square of the q = 4 running example has C(5, 2) = 10 products
    for argv in (
        ["betti", "--power", "2", "abe,bc,cdf,ad"],
        ["check-support", "--power", "2", "--ideal", "abe,bc,cdf,ad"],
    ):
        code, _, err = run(capsys, *argv, "--max-products", "19")
        assert code == 3 and err.rstrip().endswith("raise --max-products"), argv
        code, _, err = run(capsys, *argv, "--max-products", "20")
        assert code == 0, (argv, err)


@pytest.mark.parametrize("power", ["0", "-1"])
def test_a_power_below_one_is_an_input_error(capsys, power):
    for argv in (
        ["power", "-r", power, "ab,bc"],
        ["betti", "--power", power, "ab,bc"],
        ["check-support", "--power", power, "--ideal", "ab,bc"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err == "error: power exponent must be >= 1\n", argv


def test_power_warns_on_nonminimal_input(capsys):
    code, out, err = run(capsys, "power", "x,xy,y")
    assert code == 0
    assert "not minimal" in err and "xy" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "power", "ab,?")
    assert code == 1 and "position" in err
    code, _, err = run(capsys, "power", "")
    assert code == 1


def test_superscript_exponent_is_a_parse_error(capsys):
    for text in ("x^²", "x*y^²"):
        code, _, err = run(capsys, "betti", text)
        assert code == 1
        assert "expected digits after '^'" in err and "position" in err


def test_build_l2_table_and_json(capsys):
    code, out, _ = run(capsys, "build-l2", "abe,bc,cdf,ad")
    assert code == 0
    assert "s = 9" in out and "l(1,3)" in out and "t = [1, 0, 1, 0]" in out

    code, out, _ = run(capsys, "build-l2", "abe,bc,cdf,ad", "--format", "json")
    obj = json.loads(out)
    assert len(obj["vertices"]) == 9
    assert obj["deletion"] == {"deleted": [[1, 3]], "s": 9, "t": [1, 0, 1, 0]}
    assert set(obj["labels"]) == {str(v) for v in obj["vertices"]}


def test_check_support_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "check-support", "--ideal", "abe,bc,cdf,ad", "--power", "2"
    )
    assert code == 0
    assert out.count("PASS") == 2

    # Taylor complex of the ideal itself always passes
    code, out, _ = run(capsys, "check-support", "--ideal", "xy,yz")
    assert code == 0

    # non-square-free ideals fall back to the Taylor complex of the power
    code, out, _ = run(capsys, "check-support", "--ideal", "x^2,y", "--power", "2")
    assert code == 0 and "Taylor" in out


def test_build_l2_rejects_non_squarefree(capsys):
    code, _, err = run(capsys, "build-l2", "x^2,y")
    assert code == 1 and "square-free" in err


def test_check_support_with_complex_file(tmp_path, capsys):
    code, out, _ = run(capsys, "build-l2", "x,y,z", "--format", "json")
    path = tmp_path / "complex.json"
    path.write_text(out)
    code, out, _ = run(
        capsys,
        "check-support",
        "--ideal",
        "x,y,z",
        "--power",
        "2",
        "--complex",
        str(path),
    )
    assert code == 0 and out.count("PASS") == 2


def test_check_support_failure_has_witness_and_exit_two(tmp_path, capsys):
    # a disconnected labeled complex for (x, y, z): two vertices plus a point
    obj = {
        "vertices": [0, 1, 2],
        "facets": [[0, 1], [2]],
        "labels": {"0": "x", "1": "y", "2": "z"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(
        capsys, "check-support", "--ideal", "x,y,z", "--complex", str(path)
    )
    assert code == 2
    assert "FAIL" in out and "witness" in out


def test_betti_commands(capsys):
    code, out, _ = run(capsys, "betti", "--power", "2", "x,y,z,w")
    assert code == 0
    assert "beta | 10 20 15 4" in [" ".join(ln.split()) for ln in out.splitlines()]

    code, out, _ = run(capsys, "betti", "x,y,z,w")
    data = [ln for ln in out.splitlines() if ln.startswith("beta")]
    assert data and data[0].split("|")[1].split() == ["4", "6", "4", "1"]

    code, out, _ = run(
        capsys, "betti", "--power", "2", "abe,bc,cdf,ad", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["total"] == {"0": 9, "1": 14, "2": 6}

    code, out, _ = run(
        capsys, "betti", "--power", "2", "x,y,z", "--graded", "--field", "gf:2"
    )
    assert code == 0
    rows = [" ".join(ln.split()) for ln in out.splitlines()]
    assert "xyz | 0 2 0" in rows  # two first syzygies live at xyz


def test_betti_of_a_square_still_checks_that_l2_supports_it(monkeypatch, capsys):
    # points on the square's generators have the right labels, but the
    # restriction at x^2y is two points, so the L2(I) check must fail before
    # any Betti number is read off the Taylor complex
    from lsquare import l2
    from lsquare.labeled import LabeledComplex

    real = l2.l2_of_ideal

    def points(ideal):
        lab, record = real(ideal)
        delta = complexes.SimplicialComplex.from_facets(
            [{v} for v in lab.complex.vertices]
        )
        return LabeledComplex(delta, lab.labels, lab.ideal), record

    monkeypatch.setattr(l2, "l2_of_ideal", points)
    for argv in (["betti", "--power", "2", "x,y"], ["bounds", "x,y"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("FAIL: "), argv


def test_betti_of_a_square_ranks_only_the_taylor_read_off(monkeypatch, capsys):
    # L2(I) has a hub, its off-diagonal facet, so its support check ranks no
    # restriction; the Taylor read-off ranks one per lcm-lattice point
    from lsquare import homology
    from lsquare.monomials import parse_ideal

    calls = []
    real = homology.ranks_from_members

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "ranks_from_members", spy)
    for text in ("abe,bc,cdf,ad", "xabc,yade,zbdf,wcef"):
        calls.clear()
        code, _, _ = run(capsys, "betti", "--power", "2", text)
        assert code == 0
        assert len(calls) == len(parse_ideal(text)[0].power(2).sorted_lattice), text


def test_betti_round_trips_through_json(capsys):
    code, out, _ = run(
        capsys, "betti", "--power", "2", "abe,bc,cdf,ad", "--format", "json", "--graded"
    )
    assert code == 0
    assert json.loads(out)["total"] == {"0": 9, "1": 14, "2": 6}


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "abe,bc,cdf,ad")
    assert code == 0
    joined = [" ".join(ln.split()) for ln in out.splitlines()]
    assert any(ln.startswith("complex | 9 20 18 7 1 0 0") for ln in joined)
    assert any(ln.startswith("taylor | 9 36 84 126 126 84 36") for ln in joined)
    assert any(ln.startswith("betti | 9 14 6 0 0 0 0") for ln in joined)

    code, out, _ = run(capsys, "bounds", "x,y,z,w", "--format", "csv")
    lines = out.splitlines()
    assert "skeleton,10,27,32,19,6,1,0" in lines
    assert "betti,10,20,15,4,0,0,0" in lines
    # csv is the header and rows alone; json keeps the q, s, t summary
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "0", "1", "2", "3", "4", "5", "6"]
    assert all(len(row) == len(rows[0]) for row in rows)
    code, out, _ = run(capsys, "bounds", "x,y,z,w", "--format", "json")
    obj = json.loads(out)
    assert (obj["q"], obj["s"], obj["t"]) == (4, 10, [0, 0, 0, 0])


def test_bounds_of_the_sharp_example_equal_the_face_counts_of_l2(capsys):
    # L2(I) of this ideal loses no vertex and resolves I^2 minimally, so the
    # exact row equals the deletion-refined face counts
    code, out, _ = run(capsys, "bounds", "xabc,yade,zbdf,wcef")
    assert code == 0
    assert out.splitlines()[0] == "q = 4, s = 10, t = [0, 0, 0, 0]"
    rows = {}
    for line in out.splitlines()[1:]:
        label, _, values = line.partition("|")
        rows[label.strip()] = values.split()
    assert rows["betti"] == rows["complex"] == ["10", "27", "32", "19", "6", "1", "0"]


def test_bounds_max_d_runs_from_zero_to_the_largest_taylor_simplex(capsys):
    # x,y,z,w has q = 4, so the largest Taylor simplex has C(5, 2) = 10 vertices
    code, out, _ = run(capsys, "bounds", "x,y,z,w", "--max-d", "9", "--format", "csv")
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("taylor-largest,")][0].endswith(
        ",10,1"
    )
    code, out, _ = run(capsys, "bounds", "x,y,z,w", "--max-d", "0", "--format", "csv")
    assert code == 0 and "betti,10" in out.splitlines()
    # past that every row is zero; 10^8 columns once ran for minutes
    for ideal, max_d in (("x,y", "100000000"), ("x,y", "-3"), ("x,y,z,w", "11")):
        start = time.monotonic()
        code, out, err = run(capsys, "bounds", ideal, "--max-d", max_d)
        assert time.monotonic() - start < 1, max_d
        assert code == 1 and out == "", max_d
        assert err.startswith("error: ") and "max_d" in err, max_d


@pytest.mark.parametrize("command", ["betti", "check-support"])
def test_a_malformed_complex_file_is_a_clear_error(tmp_path, capsys, command):
    labels = {"0": "x", "1": "y"}
    shapes = [
        ([], "'facets'"),
        (None, "'facets'"),
        ({}, "'facets'"),
        ({"facets": 5}, "'facets'"),
        ({"facets": [5]}, "'facets'"),
        ({"facets": [["a"]]}, "'facets'"),
        ({"facets": [[0, 1]]}, "'labels'"),
        ({"facets": [[0, 1]], "labels": None}, "'labels'"),
        ({"facets": [[0, 1]], "labels": ["x", "y"]}, "'labels'"),
        ({"facets": [[0, 1]], "vertices": 3, "labels": labels}, "'vertices'"),
        ({"facets": [[0, 1]], "labels": {"0": 5, "1": "y"}}, "'labels'"),
        ({"facets": [[0, 1]], "labels": {"0": "z", "1": "y"}}, "'labels'"),
        ({"facets": [[0.7, 1.9]], "labels": labels}, "'facets'"),
        ({"facets": [[0, 1.5]], "labels": labels}, "'facets'"),
        ({"facets": [[0, 1]], "vertices": [0.5], "labels": labels}, "'vertices'"),
        # JSON true and false are not the vertex ids 1 and 0
        ({"facets": [[True, False]], "labels": labels}, "'facets'"),
        ({"facets": [[0, 1]], "vertices": [True], "labels": labels}, "'vertices'"),
        # a string is not a list of ids: "01" is not the edge {0, 1}
        ({"facets": ["01"], "labels": labels}, "'facets'"),
        ({"facets": [[0]], "vertices": "1", "labels": labels}, "'vertices'"),
        ({"facets": [[0]], "vertices": {"1": 1}, "labels": labels}, "'vertices'"),
        # an id string is an optional '-' and ASCII digits, which int() is not
        # held to: it reads "1_0" as 10 and "+1", " 1" or the Arabic-Indic
        # digit one as 1
        ({"facets": [[0], ["1_0"]], "labels": {"0": "x", "10": "y"}}, "'facets'"),
        ({"facets": [[0, "+1"]], "labels": labels}, "'facets'"),
        ({"facets": [[0, "\u0661"]], "labels": labels}, "'facets'"),
        ({"facets": [[0], [10]], "labels": {"0": "x", "1_0": "y"}}, "'labels'"),
        ({"facets": [[0, 1]], "labels": {"0": "x", " 1": "y"}}, "'labels'"),
        # a label for a vertex in no facet, though the labels are the generators
        ({"facets": [[0]], "labels": labels}, "vertices not in the complex: [1]"),
        # labels that are not the ideal's generators (xy is not one of x,y)
        # are refused as the file is read, before check-support's header
        ({"facets": [[0, 1]], "labels": {"0": "x", "1": "xy"}}, "do not biject"),
    ]
    path = tmp_path / "complex.json"
    for obj, key in shapes:
        path.write_text(json.dumps(obj))
        ideal = ["x,y"] if command == "betti" else ["--ideal", "x,y"]
        code, out, err = run(capsys, command, "--complex", str(path), *ideal)
        assert code == 1 and out == "", obj
        assert err.startswith("error: ") and key in err, obj
    path.write_text(json.dumps({"facets": [[0], [2]], "labels": {**labels, "2": "z"}}))
    ideal = ["x,y,z"] if command == "betti" else ["--ideal", "x,y,z"]
    code, out, err = run(capsys, command, "--complex", str(path), *ideal)
    assert code == 1 and out == ""
    assert err == "error: labels for vertices not in the complex: [1]\n"


@pytest.mark.parametrize("command", ["betti", "check-support"])
def test_label_keys_that_name_one_vertex_are_an_error(tmp_path, capsys, command):
    # "0" and "00" both read as vertex 0; keeping the last key dropped the x
    # label and printed the Betti table of another ideal
    path = tmp_path / "clash.json"
    path.write_text(json.dumps({"facets": [[0]], "labels": {"0": "x", "00": "y"}}))
    ideal = ["y"] if command == "betti" else ["--ideal", "y"]
    code, out, err = run(capsys, command, "--complex", str(path), *ideal)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "'0'" in err and "'00'" in err


def test_each_square_path_closes_one_lattice(monkeypatch, capsys):
    # the support checks and the Taylor read-off walk the lattice of one
    # ideal object, the square that L2(I) carries, so it is closed once
    from lsquare import monomials
    from lsquare.randoms import SHARPNESS_IDEAL_TEXT, ideal_checks

    calls = []
    real = monomials.lcm_lattice
    monkeypatch.setattr(monomials, "lcm_lattice", lambda ideal: calls.append(1) or real(ideal))
    sharp = monomials.parse_ideal(SHARPNESS_IDEAL_TEXT)[0]
    assert all(c.passed for c in ideal_checks(sharp)) and len(calls) == 1
    for argv in (
        ["betti", "--power", "2", "abe,bc,cdf,ad"],
        ["check-support", "--power", "2", "--ideal", "abe,bc,cdf,ad"],
        ["bounds", "abe,bc,cdf,ad"],
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == 1, argv


def test_a_clash_among_many_label_keys_is_found_without_pairwise_counting(tmp_path):
    # counting each of 100 000 keys among all the others took minutes
    labels = {str(k): "x" for k in range(100_000)}
    path = tmp_path / "clash.json"
    path.write_text(json.dumps({"facets": [[0]], "labels": {**labels, "00": "x"}}))
    code, out, err = run_bounded("betti", "--complex", str(path), "x", seconds=10)
    assert code == 1 and out == ""
    assert err == "error: complex JSON label keys ['0', '00'] name one vertex\n"


def test_resource_cap_exit_three(capsys):
    code, _, err = run(capsys, "bounds", "a,b,c,d,e,f,g,h")
    assert code == 3
    assert "--max-q" in err

    code, _, err = run(capsys, "bounds", "a,b,c,d,e,f,g,h", "--max-q", "9", "--max-faces", "64")
    assert code == 3
    assert "--max-faces" in err or "max-faces" in err


def test_an_ideal_of_many_generators_is_refused_without_pairwise_comparison():
    # --max-q refuses the 14 950 four-letter monomials of a..z; listing the
    # dropped generators must not compare them pairwise before it does
    letters = "abcdefghijklmnopqrstuvwxyz"
    ideal = ",".join("".join(c) for c in combinations(letters, 4))
    code, out, err = run_bounded("betti", ideal, seconds=10)
    assert code == 3 and out == ""
    assert "--max-q" in err and "Traceback" not in err


def test_resource_cap_message_says_how_far_over(capsys):
    code, _, err = run(capsys, "bounds", "a,b,c,d,e,f,g,h")
    assert code == 3
    assert "(estimate 8, cap 7: 1.1x the cap)" in err
    assert err.rstrip().endswith("raise --max-q")

    code, _, err = run(
        capsys, "betti", "--power", "2", "x^2,y^2,z^2,w^2,v^2", "--max-taylor", "12"
    )
    assert code == 3
    assert "(estimate 15, cap 12: 1.2x the cap)" in err
    assert "raise --max-taylor" in err

    code, _, err = run(capsys, "betti", "x,y", "--max-q", "0")
    assert code == 3
    assert "(estimate 2, cap 0); raise --max-q" in err


def test_max_taylor_guards_only_the_taylor_default(capsys):
    # the square of x,y,z,w has 10 generators; with --power 2 the Betti
    # numbers come off its Taylor complex after the L2(I) check, uncapped
    code, out, _ = run(
        capsys, "betti", "--power", "2", "--format", "csv", "--max-taylor", "3", "x,y,z,w"
    )
    assert code == 0 and "beta,10,20,15,4" in out.splitlines()
    # at power 1 the Taylor complex is the default complex, on 4 vertices
    for argv in (
        ["betti", "--max-taylor", "3", "x,y,z,w"],
        ["check-support", "--ideal", "x,y,z,w", "--max-taylor", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "(estimate 4, cap 3: 1.3x the cap)" in err, argv
        assert err.rstrip().endswith("raise --max-taylor"), argv


def test_huge_field_characteristic_is_a_usage_error(capsys):
    code, _, err = run(capsys, "betti", "x,y", "--field", f"gf:{2**89 - 1}")
    assert code == 1
    assert "3.3e24" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["gf:abc", "gf:", "gf:1e3"])
def test_a_malformed_field_spec_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "betti", "x,y", "--field", spec)
    assert code == 1 and out == ""
    assert err == f"error: unknown field spec {spec!r} (use 'rational' or 'gf:p')\n"


def test_huge_exponents_cost_what_small_ones_do(capsys):
    # the label table holds one entry per exponent that occurs, so neither
    # the Betti walk nor the support walk grows with the exponent's size
    start = time.perf_counter()
    code, out, _ = run(capsys, "betti", "--format", "csv", "x^30000000,y")
    assert code == 0 and "beta,2,1" in out.splitlines()
    code, out, _ = run(capsys, "check-support", "--ideal", "x^30000000,y")
    assert code == 0 and "quasi-forest connectivity criterion: PASS" in out
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--max-n", "0", "--count", "3"], "--max-n"),
        (["--max-q", "0"], "--max-q"),
        (["--max-n", "-2"], "--max-n"),
        (["--count", "-1"], "--count"),
    ],
)
def test_verify_rejects_an_empty_sampling_range(flags, name):
    code, out, err = run_bounded("verify", *flags)
    assert code == 1 and out == "", flags
    assert err.startswith(f"error: {name} must be >= "), flags


@pytest.mark.parametrize("max_n", ["27", "40"])
def test_verify_rejects_more_variables_than_letters(max_n):
    # --max-n 40 once failed on a draw with "expected 26 exponents, got 37"
    code, out, err = run_bounded(
        "verify", "--max-n", max_n, "--max-q", "3", "--count", "5", "--no-fixture"
    )
    assert code == 1 and out == ""
    assert err == f"error: --max-n must be <= 26, got {max_n}\n"


def test_verify_draws_no_more_generators_than_max_n_variables_hold():
    # q was once redrawn from 1..max_q until it fit in max_n variables
    code, out, err = run_bounded(
        "verify", "--max-q", "1000000000", "--max-n", "2", "--count", "1", "--no-fixture"
    )
    assert code == 0 and err == ""
    assert "summary: 1/1 instances passed" in out


def test_verify_command_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "1", "--count", "3")
    code2, out2, _ = run(capsys, "verify", "--seed", "1", "--count", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary: 4/4 instances passed" in out1

    code, out, _ = run(capsys, "verify", "--count", "0")
    assert code == 0 and "summary: 0/0" in out

    code, out, _ = run(
        capsys, "verify", "--seed", "2", "--count", "2", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["all_passed"] is True and len(obj["instances"]) == 3


def test_verify_lists_a_non_quasi_forest_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(complexes, "quasi_forest_order", lambda delta: None)
    code, out, err = run(
        capsys, "verify", "--seed", "1", "--count", "2", "--format", "json"
    )
    assert code == 2 and err == ""
    obj = json.loads(out)
    assert not obj["all_passed"] and len(obj["instances"]) == 3
    for inst in obj["instances"]:
        checks = {f["check"] for f in inst["failures"]}
        assert checks == {"quasi-forest", "support-connectivity"}


def test_verify_runs_past_the_default_taylor_cap(capsys):
    # draw 15 of seed 1 has a square with 27 generators; verify has no Taylor
    # flag, so its exact Betti check must not stop at the 22-vertex default
    code, out, err = run(
        capsys, "verify", "--max-q", "7", "--max-n", "7", "--count", "15", "--no-fixture"
    )
    assert code == 0, err
    assert "summary: 15/15 instances passed" in out


def test_verify_counts_faces_of_a_q8_complex_without_listing_them(capsys):
    # draw 7 of seed 1 keeps an off-diagonal facet of 27 vertices; its 2^27
    # faces once stopped the sweep at the face cap
    code, out, err = run(
        capsys, "verify", "--max-q", "8", "--max-n", "8", "--count", "10",
        "--seed", "1", "--no-fixture",
    )
    assert code == 0, err
    assert "summary: 10/10 instances passed" in out


def test_verify_ends_when_max_q_is_too_large_to_draw():
    # q near C(8, 4) = 70 never comes out of random draws; the redraws once
    # ran without end, 5000 draws per round
    code, out, err = run_bounded(
        "verify", "--max-n", "8", "--max-q", "70", "--count", "1", "--no-fixture",
        seconds=10,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--max-q" in err and "Traceback" not in err


def test_verify_stops_on_a_huge_facet_nerve(monkeypatch, capsys):
    # the face count lists the nerve of the facets; 40 edges on one apex give
    # a nerve of 2^40 faces, which must end in exit 3, not a hang
    fan = complexes.SimplicialComplex.from_facets([{0, v} for v in range(1, 41)])
    count = complexes.f_vector
    monkeypatch.setattr(complexes, "f_vector", lambda delta, limits: count(fan, limits))
    code, out, err = run(
        capsys, "verify", "--seed", "1", "--count", "1", "--max-faces", "100000"
    )
    assert code == 3 and out == ""
    assert "face enumeration would exceed the face cap" in err
    assert err.rstrip().endswith("raise --max-faces")


@pytest.mark.parametrize(
    "argv, name",
    [
        (
            ["betti", "--power", "2", "--graded", "--format", "json", "--max-q", "10",
             "aegijk,eijl,acdfk,acdefil,afgkl,bdghjkl,adfijl,afik,abfghj,aikl"],
            "betti_q10_square.json",
        ),
        (["verify", "--seed", "1", "--count", "200", "--format", "json"],
         "verify_seed1_count200.json"),
        (["build-l2", "--format", "json", "abe,bc,cdf,ad"], "build_l2_running.json"),
        (["build-l2", "--format", "json", "xabc,yade,zbdf,wcef"], "build_l2_sharp.json"),
        (
            ["build-l2", "--max-q", "12", "--format", "json",
             "deghilm,bcefghl,aehijk,abefijk,acefhilm,ceghijkm,abefgjkm,adijkmn,"
             "acdfmn,abdefgjkln,adefkm,bdfhjkmn"],
            "build_l2_q12.json",
        ),
        (["build-l2", "--format", "table", "abe,bc,cdf,ad"], "build_l2_running.txt"),
        (["build-l2", "--format", "table", "xabc,yade,zbdf,wcef"], "build_l2_sharp.txt"),
        (
            ["build-l2", "--max-q", "12", "--format", "table",
             "deghilm,bcefghl,aehijk,abefijk,acefhilm,ceghijkm,abefgjkm,adijkmn,"
             "acdfmn,abdefgjkln,adefkm,bdfhjkmn"],
            "build_l2_q12.txt",
        ),
        # q <= 2, where the off-diagonal facet is empty or inside a row
        (["build-l2", "--format", "table", "x"], "build_l2_single.txt"),
        (["build-l2", "--format", "json", "ab,bc"], "build_l2_two.json"),
        (["build-l2", "--format", "table", "ab,bc"], "build_l2_two.txt"),
    ],
)
def test_output_is_byte_identical_to_the_recorded_file(capsys, argv, name):
    # the betti and verify files were recorded before the lattice walks moved
    # to exponent tuples, the build-l2 JSON files before the pair vertices were
    # numbered by position alone, the build-l2 tables before the pairs became
    # plain tuples, and the q <= 2 files before L2(I) was built on its
    # surviving pairs; a change to any walk, order, count, vertex id, label,
    # facet or printed pair name shows here
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (DATA / name).read_text()


# JSON values of every kind, nested a little, and objects shaped almost like a
# complex file: facets of small ids, id strings and floats, and labels keyed by
# short id strings
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
vertex_ids = st.integers(-2, 6) | st.text("0123456789", max_size=2) | st.floats(-1, 7)
complex_objects = st.fixed_dictionaries(
    {"facets": st.lists(st.lists(vertex_ids, max_size=4), max_size=4)},
    optional={
        "vertices": st.lists(vertex_ids, max_size=3) | json_values,
        "labels": st.dictionaries(
            st.text("0123456789-", max_size=2),
            st.text("xyz^2", max_size=4) | json_values,
            max_size=4,
        ),
    },
)
complex_files = (
    (json_values | complex_objects).map(lambda obj: json.dumps(obj).encode())
    | st.text(max_size=20).map(str.encode)
    | st.binary(max_size=20)
)
ideal_texts = st.text("xyz^0123456789,-+* ()", max_size=12)


def run_quietly(argv):
    """`main` in process with its output captured; an argparse exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(complex_files, ideal_texts, st.sampled_from(["betti", "check-support"]))
@example(b"[" * 100_000 + b"]" * 100_000, "x", "betti")
@example(b"[" * 100_000 + b"]" * 100_000, "x", "check-support")
@settings(max_examples=150, deadline=3000)
def test_hostile_complex_files_and_ideals_end_cleanly(data, ideal, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        path.write_bytes(data)
        for argv in (
            [command, "--complex", str(path)],
            ["betti", "--power", "2"],
            ["bounds"],
            ["power"],
        ):
            argv = argv + (["--ideal", ideal] if argv[0] == "check-support" else [ideal])
            code, _, err = run_quietly(argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
