import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from codecat import morphism_from_obj, parse_code
from codecat.cli import main

from helpers import python

FOUR = json.dumps({"domain": "{12,23,1,2,0}",
                   "trunk_generators": [[], [2], [1], [1, 2]]})
BIJ = json.dumps({
    "domain": "{12,23,1,3,0}", "codomain": "{12,34,1,3,0}",
    "pairs": [[[1, 2], [1, 2]], [[2, 3], [3, 4]], [[1], [1]],
              [[3], [3]], [[], []]]})


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_normalizes(capsys):
    rc, out, _ = run(capsys, "parse", "1,12,0,23,3")
    assert rc == 0 and out == "{12,23,1,3,0}\n"


def test_parse_json_output(capsys):
    rc, out, _ = run(capsys, "parse", "{12,0}", "--json")
    assert rc == 0
    assert json.loads(out) == {"n": 2, "words": [[1, 2], []]}


def test_parse_error_is_exit_2(capsys):
    rc, _, err = run(capsys, "parse", "wat?")
    assert rc == 2 and "error:" in err


DEEP = "[" * 50000


@pytest.mark.parametrize("argv", [
    ["parse", "[[[1]]]"],
    ["parse", '[[{"a":1}]]'],
    ["parse", '{"n":2,"words":[[[1]]]}'],
    ["parse", DEEP],
    ["is-morphism", json.dumps(dict(json.loads(BIJ), pairs=5))],
    ["is-morphism", json.dumps(dict(json.loads(BIJ), pairs=[[5, [1]]]))],
    ["apply", json.dumps(dict(json.loads(FOUR), trunk_generators=5)), "1"],
    ["apply", '{"domain":%s%s,"trunk_generators":[]}' % (DEEP, "]" * 50000), "1"],
], ids=["nested-word", "object-in-word", "nested-object-word", "deep-literal",
        "pairs-not-list", "word-not-list", "generators-not-list", "deep-domain"])
def test_malformed_json_is_exit_2_without_traceback(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and err.startswith("error:") and "Traceback" not in err


def test_usage_error_is_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_trunks_sigma(capsys):
    rc, out, _ = run(capsys, "trunks", "{12,23,1,3,0}", "--sigma", "2")
    assert rc == 0 and out == "{12,23}\n"


def test_trunks_all_json(capsys):
    rc, out, _ = run(capsys, "trunks", "{12,23,1,3,0}", "--json")
    got = json.loads(out)
    assert rc == 0 and len(got) == 7
    assert {"generator": None, "members": []} in got


# The complements of the singletons on 20 neurons: 20 words, and every set of
# them is a trunk, so the lattice has 2^20 trunks.
COSINGLETONS20 = json.dumps([[j for j in range(1, 21) if j != i] for i in range(1, 21)])


def test_trunks_cap_is_exit_3(capsys):
    rc, out, err = run(capsys, "trunks", COSINGLETONS20)
    assert rc == 3 and out == ""
    assert err.startswith("error:") and "4096" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    # {12,23,1,3,0} has 7 trunks, the empty trunk included; 0 lifts the cap
    rc, out, err = run(capsys, "trunks", "{12,23,1,3,0}", "--max-trunks", "6")
    assert rc == 3 and out == "" and err.startswith("error:")
    rc, capped, _ = run(capsys, "trunks", "{12,23,1,3,0}", "--max-trunks", "7")
    rc0, uncapped, _ = run(capsys, "trunks", "{12,23,1,3,0}", "--max-trunks", "0")
    assert rc == rc0 == 0 and capped == uncapped and len(capped.splitlines()) == 7


def test_irreducible(capsys):
    rc, out, _ = run(capsys, "irreducible", "{12,23,1,3,0}")
    assert rc == 0
    assert out.splitlines() == ["1: {12,1}", "2: {12,23}", "3: {23,3}"]


def test_reduce(capsys):
    rc, out, _ = run(capsys, "reduce", "{123,1,2,0}")
    assert rc == 0 and out == "{12,1,2,0}\n"
    rc, out, _ = run(capsys, "reduce", "{123,1,2,0}", "--json")
    assert json.loads(out)["neuron_origin"] == [[1], [2]]


def test_minn(capsys):
    rc, out, _ = run(capsys, "minn", "{12,34,1,3,0}")
    assert rc == 0 and out == "4\n"


def test_iso_exit_codes(capsys):
    assert run(capsys, "iso", "{2,12}", "{0,1}")[0] == 0
    rc, out, _ = run(capsys, "iso", "{2,12}", "{0,2,3}")
    assert rc == 1 and out == "false\n"


TRIANGLES10 = json.dumps([[t + a, t + b] for t in range(1, 31, 3)
                          for a, b in ((0, 1), (0, 2), (1, 2))]
                         + [[i] for i in range(1, 31)] + [[]])


def test_iso_search_node_cap_is_exit_3(capsys):
    # 10 hollow triangles with their vertices and the empty word: the
    # search needs 661 nodes, so a cap of 100 refuses and 0 lifts the cap
    rc, out, err = run(capsys, "iso", TRIANGLES10, TRIANGLES10,
                       "--max-search-nodes", "100")
    assert rc == 3 and out == ""
    assert err.startswith("error:") and "100 nodes" in err and "Traceback" not in err
    rc, out, _ = run(capsys, "iso", TRIANGLES10, TRIANGLES10, "--max-search-nodes", "0")
    assert rc == 0 and out == "true\n"


def test_apply_and_image(capsys):
    rc, out, _ = run(capsys, "apply", FOUR, "23")
    assert rc == 0 and out == "12\n"
    rc, out, _ = run(capsys, "image", FOUR)
    assert rc == 0 and out == "{1234,12,13,1}\n"


def test_morphism_argument_from_file(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(FOUR)
    rc, out, _ = run(capsys, "image", str(p))
    assert rc == 0 and out == "{1234,12,13,1}\n"


def test_is_morphism_and_decompose(capsys):
    assert run(capsys, "is-morphism", BIJ)[0] == 0
    rc, out, _ = run(capsys, "decompose", BIJ)
    assert rc == 0
    assert out.splitlines() == ["1: 1", "2: 12", "3: 3", "4: 23"]
    bad = json.loads(BIJ)
    bad["domain"], bad["codomain"] = bad["codomain"], bad["domain"]
    bad["pairs"] = [[b, a] for a, b in bad["pairs"]]
    rc, out, _ = run(capsys, "decompose", json.dumps(bad))
    assert rc == 1 and out == "not a morphism\n"


def test_decompose_checks_each_preimage_once(capsys, monkeypatch):
    from codecat import morphisms
    checks = []
    real = morphisms.is_trunk
    monkeypatch.setattr(morphisms, "is_trunk",
                        lambda *args: checks.append(args) or real(*args))
    rc, out, _ = run(capsys, "decompose", BIJ)
    # one check per codomain neuron; test_is_morphism_and_decompose pins the refusal
    assert (rc, out, len(checks)) == (0, "1: 1\n2: 12\n3: 3\n4: 23\n", 4)


def test_product_coproduct(capsys):
    rc, out, _ = run(capsys, "product", "{12,1,2,0}", "{12,1,0}")
    assert rc == 0 and out == "{1234,123,134,234,12,13,23,34,1,2,3,0}\n"
    rc, out, _ = run(capsys, "coproduct", "{12,1,2,0}", "{12,1,0}",
                     "--with-empty")
    assert rc == 0 and out == "{125,346,15,25,36,5,6,0}\n"


def test_predicates(capsys):
    assert run(capsys, "intcomplete", "{12,34,1,3,0}")[0] == 0
    assert run(capsys, "intcomplete", "{12,23,1,3,0}")[0] == 1
    assert run(capsys, "maxint", "{12,34,1,3,0}")[0] == 0
    assert run(capsys, "maxint", "{3456,123,145,256,45,56,1,2,3,0}")[0] == 1


def test_images_golden(capsys):
    rc, out, _ = run(capsys, "images", "{12,23,1,3,0}")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 10
    assert lines[0] == "{0}" and lines[-1] == "{13,24,1,2,0}"


def test_images_stats_line(capsys):
    rc, out, _ = run(capsys, "images", "{12,23,1,3,0}", "--stats")
    assert rc == 0 and out.splitlines()[-1].startswith("# count=10 ")


def test_images_json(capsys):
    rc, out, _ = run(capsys, "images", "{12,23,1,3,0}", "--json")
    doc = json.loads(out)
    assert rc == 0 and len(doc["images"]) == 10
    assert doc["stats"]["explored"] >= 10


def test_images_json_source_witness(capsys):
    rc, out, _ = run(capsys, "images", "{12,23,1,3,0}", "--json")
    doc = json.loads(out)
    assert rc == 0
    assert doc["source"] == {"n": 3, "words": [[1, 3], [2, 3], [1], [2], []]}
    assert doc["source_witness"] == [1, 3, 2]


def test_images_cap_is_exit_3(capsys):
    rc, _, err = run(capsys, "images", "{12,23,1,3,0}", "--max-trunks", "5")
    assert rc == 3 and "error:" in err


def test_images_cache_flag(tmp_path, capsys):
    rc, first, _ = run(capsys, "images", "{12,23,1,3,0}",
                       "--cache", str(tmp_path))
    assert rc == 0
    assert len(list(tmp_path.glob("images-*.json"))) == 1
    rc, second, _ = run(capsys, "images", "{12,23,1,3,0}",
                        "--cache", str(tmp_path))
    assert second == first


def test_images_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CODECAT_CACHE_DIR", str(tmp_path))
    assert run(capsys, "images", "{12,23,1,3,0}")[0] == 0
    assert len(list(tmp_path.glob("images-*.json"))) == 1
    # --no-cache must leave the directory alone
    for f in tmp_path.glob("images-*.json"):
        f.unlink()
    assert run(capsys, "images", "{12,23,1,3,0}", "--no-cache")[0] == 0
    assert list(tmp_path.glob("images-*.json")) == []


def test_diff_images(capsys):
    rc, out, _ = run(capsys, "diff-images", "{12,23,1,3,0}", "{12,23,1,3,0}")
    assert rc == 0 and out == ""
    rc, out, _ = run(capsys, "diff-images", "{12,23,1,3,0}", "{0}")
    assert rc == 0 and len(out.splitlines()) == 9


def test_member(capsys):
    rc, out, _ = run(capsys, "member", "{12,23,1,3,0}", "{13,24,1,2,0}")
    assert rc == 0 and len(out.splitlines()) == 4
    rc, out, _ = run(capsys, "member", "{12,23,1,3,0}", "{1,2}")
    assert rc == 1 and out == "none\n"


def test_member_json_witness_applies(capsys):
    rc, out, _ = run(capsys, "member", "{12,23,1,3,0}", "{13,24,1,2,0}",
                     "--json")
    assert rc == 0
    w = morphism_from_obj(json.loads(out))
    assert w.domain == parse_code("{12,23,1,3,0}")
    assert len(w.image()) == 5


def test_local_obs(capsys):
    rc, out, _ = run(capsys, "local-obs", "{3456,123,145,256,45,56,1,2,3,0}")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "locally_good: yes"
    assert lines[1] == "locally_great: yes"
    assert len(lines) == 20
    rc, out, _ = run(capsys, "local-obs", "{12,23,13}")
    assert rc == 1 and "obstruction_first_kind (H1=1)" in out


def test_local_obs_json(capsys):
    rc, out, _ = run(capsys, "local-obs", "{12,23,13}", "--json")
    doc = json.loads(out)
    assert rc == 1 and doc["locally_good"] == "no"
    empty_entry = next(e for e in doc["entries"] if e["sigma"] == [])
    assert empty_entry["betti"]["1"] == 1


def test_ring(capsys):
    rc, out, _ = run(capsys, "ring", "{12,23,1,3,0}")
    assert rc == 0
    assert out.splitlines()[1] == "x_2: {12,23}"
    rc, out, _ = run(capsys, "ring", "{12,23,1,3,0}", "--word", "12")
    assert out == "rho_12: {12}\n"


def test_functor(capsys):
    rc, out, _ = run(capsys, "functor", FOUR)
    assert rc == 0
    assert out.splitlines() == ["y_1 -> 1", "y_2 -> x_2", "y_3 -> x_1",
                                "y_4 -> x_12"]


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "codecat.cli", "parse",
                           "{12,0}"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "{12,0}\n"
    proc = subprocess.run([sys.executable, "-m", "codecat.cli", "iso",
                           "{1}", "{1,2}"], capture_output=True, text=True)
    assert proc.returncode == 1


CF = "{2345,123,134,145,13,14,23,34,45,3,4,0}"
DF = "{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}"
EF = "{2345,123,134,145,13,14,23,34,45,3,4,1,0}"


def _wall_masked(out: str) -> str:
    doc = json.loads(out)
    doc["stats"]["wall_time"] = 0
    return json.dumps(doc)


@pytest.mark.parametrize("argv, mask", [
    (["images", DF, "--no-cache"], str),
    (["images", DF, "--no-cache", "--json"], _wall_masked),
    (["diff-images", CF, DF, EF, "--no-cache"], str),
], ids=["images", "images-json", "diff-images"])
def test_jobs_flag_is_accepted_and_changes_no_output(capsys, argv, mask):
    outs = []
    for jobs in ([], ["--jobs", "0"], ["--jobs", "2"]):
        rc, out, err = run(capsys, *argv, *jobs)
        assert rc == 0 and err == ""
        outs.append(mask(out))
    assert outs[0] == outs[1] == outs[2]


C0 = "{3456,123,145,256,45,56,1,2,3,0}"
C1 = "{1236,3456,145,256,26,36,45,56,1,6,0}"


@pytest.mark.parametrize("source, target, golden", [
    (CF, C1, "1: 3\n2: 1\n3: 14\n4: 23\n5: 34\n6: 45\n"),
    (C1, C0, "1: 5\n2: 1\n3: 26\n4: 45\n5: 56\n6: 36\n"),
], ids=["CF-C1", "C1-C0"])
def test_member_witness_chain_goldens(capsys, source, target, golden):
    rc, out, err = run(capsys, "member", source, target)
    assert (rc, out, err) == (0, golden, "")


def test_local_obs_goldens(capsys):
    rc, out, err = run(capsys, "local-obs", "{12,23,13}")
    assert (rc, err) == (1, "")
    assert out == ("locally_good: no\nlocally_great: no\n"
                   "0: obstruction_first_kind (H1=1)\n"
                   "1: obstruction_first_kind (H0=1)\n"
                   "2: obstruction_first_kind (H0=1)\n"
                   "3: obstruction_first_kind (H0=1)\n")
    rc, out, err = run(capsys, "local-obs", C0)
    lines = out.splitlines()
    assert (rc, err, len(lines)) == (0, "", 20)
    assert sum(line.endswith(": no_obstruction") for line in lines) == 18


def codecat(*argv: str) -> subprocess.CompletedProcess:
    """`python -W error -m codecat.cli *argv`, as python() runs it."""
    return python("-m", "codecat.cli", *argv)


def test_selftest_passes_with_warnings_as_errors():
    proc = codecat("selftest")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[-1] == b"all checks passed (20 run)"


@pytest.mark.parametrize("demo", sorted((Path(__file__).parents[1] / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs_with_warnings_as_errors(demo):
    proc = python(str(demo))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_cache_hit_prints_what_the_miss_and_an_uncached_run_print(tmp_path):
    cache = str(tmp_path / "cache")
    runs = [codecat("images", CF, "--cache", cache, "--json"),
            codecat("images", CF, "--cache", cache, "--json"),
            codecat("images", CF, "--cache", cache),
            codecat("images", CF, "--no-cache")]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, b"")] * 4
    miss, hit, hit_text, plain = (p.stdout for p in runs)
    assert miss == hit and hit_text == plain
    assert len(json.loads(miss)["images"]) == 178


def test_filtered_walks_print_what_full_censuses_and_cache_hits_print(tmp_path):
    cache = str(tmp_path / "cache")
    runs = [codecat("diff-images", CF, DF, EF, "--no-cache"),
            codecat("diff-images", CF, DF, EF, "--cache", cache),
            codecat("diff-images", CF, DF, EF, "--cache", cache),
            codecat("member", CF, C1),
            codecat("member", C1, C0)]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, b"")] * 5
    filtered, censuses, hits, cf_c1, c1_c0 = (p.stdout for p in runs)
    assert filtered == censuses == hits
    assert filtered.count(b"\n") == 4
    assert cf_c1 == b"1: 3\n2: 1\n3: 14\n4: 23\n5: 34\n6: 45\n"
    assert c1_c0 == b"1: 5\n2: 1\n3: 26\n4: 45\n5: 56\n6: 36\n"


def test_caps_exit_3_with_warnings_as_errors():
    # the search-node cap on 10 hollow triangles with vertex words, which
    # need 661 nodes, and the trunk cap on the 2^20-trunk cosingletons
    for argv, cap in ((["iso", TRIANGLES10, TRIANGLES10, "--max-search-nodes", "100"], b"100"),
                      (["trunks", COSINGLETONS20], b"4096")):
        proc = codecat(*argv)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.startswith(b"error:") and cap in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [["images", DF, "--no-cache"],
                                  ["diff-images", CF, DF, EF, "--no-cache"]],
                         ids=["images", "diff-images"])
def test_jobs_2_prints_what_a_serial_run_prints_with_warnings_as_errors(argv):
    serial, jobs = codecat(*argv), codecat(*argv, "--jobs", "2")
    assert (serial.returncode, serial.stderr) == (jobs.returncode, jobs.stderr) == (0, b"")
    assert serial.stdout == jobs.stdout and serial.stdout


def test_local_obs_goldens_with_warnings_as_errors():
    hollow, c0 = codecat("local-obs", "{12,23,13}"), codecat("local-obs", C0)
    assert (hollow.returncode, hollow.stderr) == (1, b"")
    assert hollow.stdout == (b"locally_good: no\nlocally_great: no\n"
                             b"0: obstruction_first_kind (H1=1)\n"
                             b"1: obstruction_first_kind (H0=1)\n"
                             b"2: obstruction_first_kind (H0=1)\n"
                             b"3: obstruction_first_kind (H0=1)\n")
    lines = c0.stdout.splitlines()
    assert (c0.returncode, c0.stderr, len(lines)) == (0, b"", 20)
    assert sum(line.endswith(b": no_obstruction") for line in lines) == 18


# Twelve neurons, 4..9 trivial: every word above 9 is spelled in braces.
WIDE = "[[1,2],[12],[1,2,12],[10,11],[3,10,12],[11],[]]"
WIDE_ID = json.dumps({"domain": WIDE, "trunk_generators": [[i] for i in range(1, 13)]})


@pytest.mark.parametrize("argv, golden", [
    (["trunks", WIDE],
     "none: {}\n{10,11}: {{10,11}}\n{1,2,12}: {{1,2,12}}\n{3,10,12}: {{3,10,12}}\n"
     "{11}: {{10,11},{11}}\n12: {{1,2,12},12}\n{10}: {{3,10,12},{10,11}}\n"
     "{12}: {{1,2,12},{3,10,12},{12}}\n0: {{1,2,12},{3,10,12},12,{10,11},{11},{12},0}\n"),
    (["trunks", WIDE, "--sigma", "{10,12}"], "{{3,10,12}}\n"),
    (["irreducible", WIDE],
     "12: {{1,2,12},12}\n{10}: {{3,10,12},{10,11}}\n{11}: {{10,11},{11}}\n"
     "{12}: {{1,2,12},{3,10,12},{12}}\n"),
    (["ring", WIDE],
     "x_1: {{1,2,12},12}\nx_2: {{1,2,12},12}\nx_3: {{3,10,12}}\n"
     + "".join(f"x_{i}: {{}}\n" for i in range(4, 10))
     + "x_10: {{3,10,12},{10,11}}\nx_11: {{10,11},{11}}\nx_12: {{1,2,12},{3,10,12},{12}}\n"),
    (["ring", WIDE, "--sigma", "{10,12}"], "x_{10,12}: {{3,10,12}}\n"),
    (["ring", WIDE, "--word", "{3,10,12}"], "rho_{3,10,12}: {{3,10,12}}\n"),
    (["apply", WIDE_ID, "{1,2,12}"], "{1,2,12}\n"),
    (["apply", WIDE_ID, "[3,10,12]"], "{3,10,12}\n"),
], ids=["trunks", "trunks-sigma", "irreducible", "ring", "ring-sigma", "ring-word",
        "apply", "apply-json-word"])
def test_wide_code_goldens(capsys, argv, golden):
    assert run(capsys, *argv) == (0, golden, "")


def test_wide_code_local_obs_golden(capsys):
    assert run(capsys, "local-obs", WIDE) == (1, (
        "locally_good: no\nlocally_great: no\n"
        "1: no_obstruction\n2: no_obstruction\n3: no_obstruction\n"
        "{10}: obstruction_first_kind (H0=1)\n"
        "{1,12}: no_obstruction\n{2,12}: no_obstruction\n{3,10}: no_obstruction\n"
        "{3,12}: no_obstruction\n{10,12}: no_obstruction\n"), "")


def test_long_collapse_searches_print_their_report_without_a_traceback():
    # The cone over a 10-facet stacked 7-ball: 18 neurons, 10 words.  Its
    # links' collapse searches run deeper than the default recursion limit;
    # exit 1 is the report's own verdict (some link has homology), and the
    # 2808 lines are the report printed with recursion allowed that deep.
    words = json.dumps([[1, *range(j, j + 8)] for j in range(2, 12)], separators=(",", ":"))
    proc = codecat("local-obs", words)
    assert b"Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, b"")
    lines = proc.stdout.splitlines()
    assert len(lines) == 2808
    assert lines[:3] == [b"locally_good: no", b"locally_great: no", b"0: no_obstruction"]
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "2b0dcc370f2637eddc5981c61bbd6b08e1222b6269c927347cd40c23a6bcc2ce")
