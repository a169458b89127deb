"""The package namespace: every public name loads on first use, and neither
`import codecat` nor a command loads a module it does not need.  Each check
runs in a fresh interpreter under -W error, so no earlier import hides a
load."""

import json
import textwrap

import pytest

from helpers import python


def run_fresh(script: str) -> str:
    proc = python("-c", textwrap.dedent(script))
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode()
    return proc.stdout.decode()


def test_every_public_name_is_the_object_its_module_defines():
    run_fresh("""
        import importlib
        import codecat
        assert list(codecat._NAMES) == codecat.__all__
        for name, module in codecat._NAMES.items():
            defining = importlib.import_module(f"codecat.{module}")
            assert getattr(codecat, name) is getattr(defining, name), name
            assert codecat.__dict__[name] is getattr(defining, name), name
    """)


def test_star_import_binds_exactly_all():
    run_fresh("""
        import codecat
        scope = {}
        exec("from codecat import *", scope)
        assert set(scope) - {"__builtins__"} == set(codecat.__all__)
        assert scope["canonical_form"] is codecat.reduction.canonical_form
    """)


def test_dir_covers_all_before_and_after_loading():
    run_fresh("""
        import codecat
        assert set(codecat.__all__) <= set(dir(codecat))
        codecat.is_collapsible
        assert set(codecat.__all__) <= set(dir(codecat))
    """)


def test_an_unknown_name_raises_attribute_error_naming_it():
    run_fresh("""
        import sys
        import codecat
        try:
            codecat.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc) and "'codecat'" in str(exc), exc
        else:
            raise AssertionError("no AttributeError")
        assert sorted(m for m in sys.modules if m.startswith("codecat")) == ["codecat"]
    """)


def test_a_submodule_resolves_before_anything_imports_it():
    run_fresh("""
        import sys
        import codecat
        assert "codecat.topology" not in sys.modules
        topology = codecat.topology
        assert topology is sys.modules["codecat.topology"]
        assert topology.is_collapsible is codecat.is_collapsible
        assert "codecat.enumeration" not in sys.modules
    """)


def test_patching_and_restoring_a_name_keeps_the_original():
    # the benchmark's tracer reads a name (loading it), sets a wrapper and
    # puts the original back; setting a name that never loaded and deleting
    # it again leaves the table to load the original
    run_fresh("""
        import codecat
        original = getattr(codecat, "canonical_form")
        codecat.canonical_form = lambda *a: None
        codecat.canonical_form = original
        from codecat import reduction
        assert codecat.canonical_form is reduction.canonical_form is original
        codecat.local_obstruction_report = "stand-in"
        assert codecat.local_obstruction_report == "stand-in"
        del codecat.local_obstruction_report
        from codecat import topology
        assert codecat.local_obstruction_report is topology.local_obstruction_report
    """)


# Standard-library modules only a cache lookup needs: hashlib for file
# names, and tempfile, with the random it loads, for a miss's write.  (It
# loads shutil too, but argparse loads that for every command.)  The
# interpreter may have loaded them at start-up, as a site hook may, so they
# are dropped first and any that come back were loaded again.
CACHE_ONLY = ("hashlib", "tempfile", "random")

FOOTPRINT = """
    import io, json, sys
    from contextlib import redirect_stdout
    for name in {cache_only!r}:
        sys.modules.pop(name, None)
    import codecat
    loaded = {{"import": sorted(m for m in sys.modules if m.startswith("codecat."))}}
    from codecat import cli
    with redirect_stdout(io.StringIO()):
        rc = cli.main({argv!r})
    loaded["command"] = sorted(m[len("codecat."):] for m in sys.modules
                               if m.startswith("codecat."))
    loaded["cache_only"] = [name for name in {cache_only!r} if name in sys.modules]
    print(json.dumps([rc, loaded]))
"""

C0 = "{3456,123,145,256,45,56,1,2,3,0}"


@pytest.mark.parametrize("argv, needs, never", [
    (["parse", C0], {"cli", "codes", "exceptions"}, None),
    (["iso", C0, C0], {"reduction"}, {"enumeration", "topology", "neural_ring", "constructions"}),
    (["local-obs", C0], {"topology"}, {"enumeration", "reduction", "morphisms", "neural_ring"}),
    (["member", C0, C0], {"enumeration"}, {"topology", "neural_ring", "constructions"}),
    (["images", "--no-cache", C0], {"enumeration"}, {"topology", "neural_ring", "constructions"}),
    (["diff-images", "--no-cache", C0, C0], {"enumeration"},
     {"topology", "neural_ring", "constructions"}),
], ids=["parse", "iso", "local-obs", "member", "images", "diff-images"])
def test_import_and_each_command_load_only_what_they_use(argv, needs, never):
    # never=None: the command loads exactly what it needs.  No command here
    # looks up the cache, so none loads a module of CACHE_ONLY.
    rc, loaded = json.loads(run_fresh(FOOTPRINT.format(argv=argv, cache_only=CACHE_ONLY)))
    assert rc == 0 and loaded["import"] == [] and loaded["cache_only"] == []
    assert needs <= set(loaded["command"])
    if never is None:
        assert set(loaded["command"]) == needs
    else:
        assert not never & set(loaded["command"])
