"""One cap contract: every cap (max_nodes, max_trunks, the face cap) is
None, for no cap, or an int that is not a bool, checked at each public entry
point; a negative max_nodes refuses at once, as a negative trunk or face cap
already did."""

import pytest

from codecat import (Code, ResourceCapError, all_trunks, cached_enumerate, canonical_form,
                     enumerate_reduced_images, f2_reduced_homology, image_set_difference,
                     is_collapsible, is_isomorphic, local_obstruction_report, parse_code,
                     simplicial_complex, verify_image_membership)
from codecat.cli import main
from codecat.reduction import _min_relabeling

from helpers import hollow_triangles

CODE = parse_code("{12,23,13}")
K = simplicial_complex(parse_code("{123,234,4}"))


def entry_points(cache_dir):
    """(name, call taking the cap) for every public function with a cap."""
    target, baseline = parse_code("{1}"), parse_code("{12,1}")
    return [
        ("canonical_form", lambda cap: canonical_form(CODE, cap)),
        ("is_isomorphic", lambda cap: is_isomorphic(CODE, parse_code("{12,13,23}"), cap)),
        ("all_trunks", lambda cap: all_trunks(CODE, cap)),
        ("enumerate_reduced_images",
         lambda cap: enumerate_reduced_images(CODE, max_trunks=cap).images),
        ("verify_image_membership", lambda cap: verify_image_membership(CODE, target, cap)),
        ("image_set_difference",
         lambda cap: image_set_difference(CODE, [baseline], max_trunks=cap)),
        ("image_set_difference cached", lambda cap: image_set_difference(
            CODE, [baseline], max_trunks=cap, cache_dir=cache_dir / repr(cap))),
        ("cached_enumerate",
         lambda cap: cached_enumerate(CODE, cache_dir / repr(cap), max_trunks=cap).images),
        ("local_obstruction_report", lambda cap: local_obstruction_report(CODE, cap)),
        ("is_collapsible", lambda cap: is_collapsible(K, cap)),
        ("f2_reduced_homology", lambda cap: f2_reduced_homology(K, cap)),
        ("face_masks", lambda cap: K.face_masks(cap)),
    ]


NAMES = [name for name, _ in entry_points(None)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("cap", [-1, 0])
def test_a_cap_below_one_refuses(tmp_path, name, cap):
    call = dict(entry_points(tmp_path))[name]
    with pytest.raises(ResourceCapError):
        call(cap)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("cap", [2.5, True, False, "3", 1e9])
def test_a_cap_that_is_no_int_raises_value_error(tmp_path, name, cap):
    call = dict(entry_points(tmp_path))[name]
    with pytest.raises(ValueError, match="must be None or an int"):
        call(cap)


@pytest.mark.parametrize("name", NAMES)
def test_none_removes_the_cap(tmp_path, name):
    call = dict(entry_points(tmp_path))[name]
    assert call(None) == call(1 << 30)


def test_a_cached_hit_keeps_the_contract(tmp_path):
    # a hit runs no census, so only the check at the entry sees the cap
    cached_enumerate(CODE, tmp_path)
    with pytest.raises(ValueError, match="max_trunks must be None or an int"):
        cached_enumerate(CODE, tmp_path, max_trunks=2.5)


def test_a_negative_max_nodes_refuses_before_any_search():
    # a search with no cap would finish here, and the one-node search of a
    # code on no neurons too; neither starts
    for code in (hollow_triangles(7, False), Code(0, [[]])):
        with pytest.raises(ResourceCapError, match="its cap of -1 nodes"):
            canonical_form(code, max_nodes=-1)
    assert canonical_form(Code(0, [[]]), max_nodes=1).code == Code(0, [[]])
    # the labelling search itself, on neurons to label, refuses at its root
    with pytest.raises(ResourceCapError, match="its cap of -1 nodes"):
        _min_relabeling([0b11, 0b110, 0b101], 3, -1)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# Each command with a cap flag, and the exit codes it gives at -1, 0 and 1:
# --max-trunks and --max-search-nodes <= 0 mean no cap, and --face-cap is
# passed through, so every value below 2 refuses a nonvoid complex.
CLI_CAPS = [
    (["trunks", "{12,23,13}", "--max-trunks"], (0, 0, 3)),
    (["images", "{12,23,13}", "--no-cache", "--max-trunks"], (0, 0, 3)),
    (["diff-images", "{12,23,13}", "{12,1}", "--no-cache", "--max-trunks"], (0, 0, 3)),
    (["member", "{12,23,13}", "{1}", "--no-cache", "--max-trunks"], (0, 0, 3)),
    (["iso", "{12,23,13}", "{12,13,23}", "--max-search-nodes"], (0, 0, 3)),
    (["local-obs", "{12,23,13}", "--face-cap"], (3, 3, 3)),
    (["local-obs", "{12,2,0}", "--face-cap"], (3, 3, 3)),
]


@pytest.mark.parametrize("argv, codes", CLI_CAPS, ids=[" ".join(a[:1] + a[-1:]) + f" {a[1]}"
                                                       for a, _ in CLI_CAPS])
def test_cli_cap_flags_keep_their_exit_codes(capsys, argv, codes):
    uncapped = run(capsys, *argv[:-1])
    for value, want in zip(("-1", "0", "1"), codes):
        rc, out, err = run(capsys, *argv, value)
        assert rc == want, value
        if rc == 3:
            assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
        else:
            assert (rc, out, err) == uncapped
