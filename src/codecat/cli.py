"""Command line front end.

Exit codes: 0 success, 1 negative answer from a predicate-style command
(the command still prints ``false``/``none``), 2 bad usage or unparsable
input, 3 a resource cap refused the computation (raise it with
--max-trunks / --face-cap / --max-search-nodes).

Only `codes` and `exceptions` load with this module, and building the
parser loads nothing more; each command imports the names it uses, so a
start-up pays only for the modules its command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .codes import (Code, _code_str, _fmt_masks, _fmt_word, code_to_obj, mask_members,
                    parse_code, read_json)
from .exceptions import (DEFAULT_FACE_CAP, DEFAULT_MAX_NODES, DEFAULT_TRUNK_CAP,
                         ResourceCapError)

# The 9-neuron power set, the largest lattice the benchmark lists, has 513 trunks.
DEFAULT_LISTED_TRUNKS = 4096


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_word(text: str) -> list[int]:
    """A word argument: compact digits ('23', '0' = empty), {1,10} braces,
    or a JSON list."""
    t = text.strip()
    if t.startswith("["):
        val = read_json(t)
        if not (isinstance(val, list) and all(isinstance(x, int) for x in val)):
            raise ValueError(f"not a list of neuron labels: {text!r}")
        return val
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1].strip()
    if t in ("", "0"):
        return []
    if "," in t:
        return [int(p) for p in t.split(",")]
    if t.isdigit():
        return [int(ch) for ch in t]
    raise ValueError(f"cannot read word {text!r}")


def _load_obj(text: str) -> dict:
    """A JSON argument given inline or as a path to a JSON file."""
    t = text.strip()
    if t.startswith("{") or t.startswith("["):
        return read_json(t)
    path = Path(text)
    if not path.exists():
        raise ValueError(f"no such file and not inline JSON: {text!r}")
    return read_json(path.read_text())


def _load_morphism(text: str):
    from .morphisms import morphism_from_obj
    return morphism_from_obj(_load_obj(text))


def _load_map(text: str):
    from .morphisms import explicit_map_from_obj
    return explicit_map_from_obj(_load_obj(text))


# ---------------------------------------------------------------------------
# output helpers

def _emit_code(code: Code, as_json: bool) -> None:
    if as_json:
        print(json.dumps(code_to_obj(code)))
    else:
        print(_code_str(code))


def _fmt_generator(t) -> str:
    return "none" if t.generator_mask is None else _fmt_word(t.generator)


def _print_trunks(ts, as_json: bool) -> None:
    from .trunks import trunk_to_obj
    if as_json:
        print(json.dumps([trunk_to_obj(t) for t in ts]))
    else:
        for t in ts:
            print(f"{_fmt_generator(t)}: {_fmt_masks(t.member_masks)}")


def _print_morphism(m, as_json: bool) -> None:
    from .morphisms import morphism_to_obj
    if as_json:
        print(json.dumps(morphism_to_obj(m)))
    else:
        for j, t in enumerate(m.trunks, start=1):
            print(f"{j}: {_fmt_generator(t)}")


def _bool_result(value: bool, as_json: bool, key: str) -> int:
    if as_json:
        print(json.dumps({key: value}))
    else:
        print("true" if value else "false")
    return 0 if value else 1


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args) -> int:
    _emit_code(parse_code(args.code), args.json)
    return 0


def _cmd_trunks(args) -> int:
    from .trunks import all_trunks, trunk_of, trunk_to_obj
    code = parse_code(args.code)
    if args.sigma is not None:
        t = trunk_of(code, _parse_word(args.sigma))
        print(json.dumps(trunk_to_obj(t)) if args.json else _fmt_masks(t.member_masks))
        return 0
    _print_trunks(all_trunks(code, _max_trunks(args)), args.json)
    return 0


def _cmd_irreducible(args) -> int:
    from .trunks import irreducible_trunks
    _print_trunks(irreducible_trunks(parse_code(args.code)), args.json)
    return 0


def _cmd_reduce(args) -> int:
    from .reduction import reduce_code
    r = reduce_code(parse_code(args.code))
    if args.json:
        print(json.dumps({
            "reduced": code_to_obj(r.reduced),
            "neuron_origin": [sorted(g) for g in r.neuron_origin],
        }))
    else:
        print(_code_str(r.reduced))
    return 0


def _cmd_minn(args) -> int:
    from .reduction import minimum_neuron_number
    print(minimum_neuron_number(parse_code(args.code)))
    return 0


def _cmd_iso(args) -> int:
    from .reduction import canonical_form
    a, b = parse_code(args.code1), parse_code(args.code2)
    cap = None if args.max_search_nodes <= 0 else args.max_search_nodes
    left, right = canonical_form(a, cap).code, canonical_form(b, cap).code
    same = left == right
    if args.json:
        print(json.dumps({
            "isomorphic": same,
            "canonical_left": code_to_obj(left),
            "canonical_right": code_to_obj(right),
        }))
        return 0 if same else 1
    return _bool_result(same, False, "isomorphic")


def _cmd_apply(args) -> int:
    m = _load_morphism(args.morphism)
    out = m.apply(_parse_word(args.word))
    print(_fmt_word(out))
    return 0


def _cmd_image(args) -> int:
    _emit_code(_load_morphism(args.morphism).image(), args.json)
    return 0


def _cmd_is_morphism(args) -> int:
    from .morphisms import is_morphism
    return _bool_result(is_morphism(_load_map(args.map)), args.json,
                        "is_morphism")


def _cmd_decompose(args) -> int:
    from .morphisms import decompose
    f = _load_map(args.map)
    try:
        m = decompose(f)
    except ValueError:
        print("not a morphism")
        return 1
    _print_morphism(m, args.json)
    return 0


def _cmd_product(args) -> int:
    from .constructions import product
    _emit_code(product(parse_code(args.code1), parse_code(args.code2)),
               args.json)
    return 0


def _cmd_coproduct(args) -> int:
    from .constructions import coproduct
    _emit_code(coproduct(parse_code(args.code1), parse_code(args.code2),
                         with_empty=args.with_empty), args.json)
    return 0


def _cmd_intcomplete(args) -> int:
    from .constructions import is_intersection_complete
    return _bool_result(is_intersection_complete(parse_code(args.code)),
                        args.json, "intersection_complete")


def _cmd_maxint(args) -> int:
    from .constructions import is_max_intersection_complete
    return _bool_result(is_max_intersection_complete(parse_code(args.code)),
                        args.json, "max_intersection_complete")


def _max_trunks(args) -> int | None:
    return None if args.max_trunks <= 0 else args.max_trunks


def _cache_dir(args) -> Path | None:
    from .enumeration import default_cache_dir
    if args.no_cache:
        return None
    if args.cache is not None:
        return default_cache_dir() if args.cache == "" else Path(args.cache)
    if os.environ.get("CODECAT_CACHE_DIR"):
        return default_cache_dir()
    return None


def _cmd_images(args) -> int:
    from .enumeration import cached_enumerate, enumerate_reduced_images, image_set_to_obj
    code = parse_code(args.code)
    cache_dir, cap = _cache_dir(args), _max_trunks(args)
    out = (enumerate_reduced_images(code, max_trunks=cap) if cache_dir is None
           else cached_enumerate(code, cache_dir, max_trunks=cap))
    if args.json:
        print(json.dumps(image_set_to_obj(out)))
        return 0
    for c in out.images:
        print(_code_str(c))
    if args.stats:
        s = out.stats
        print(f"# count={len(out.images)} explored={s.explored} "
              f"pruned={s.pruned} wall={s.wall_time:.2f}s")
    return 0


def _cmd_diff_images(args) -> int:
    from .enumeration import image_set_difference
    target = parse_code(args.target)
    baselines = [parse_code(t) for t in args.baseline]
    diff = image_set_difference(target, baselines, max_trunks=_max_trunks(args),
                                cache_dir=_cache_dir(args))
    if args.json:
        print(json.dumps({"target": code_to_obj(target),
                          "count": len(diff),
                          "codes": [code_to_obj(c) for c in diff]}))
        return 0
    for c in diff:
        print(_code_str(c))
    if args.stats:
        print(f"# count={len(diff)}")
    return 0


def _cmd_member(args) -> int:
    from .enumeration import verify_image_membership
    witness = verify_image_membership(parse_code(args.source),
                                      parse_code(args.target),
                                      max_trunks=_max_trunks(args))
    if witness is None:
        print("null" if args.json else "none")
        return 1
    _print_morphism(witness, args.json)
    return 0


def _cmd_local_obs(args) -> int:
    from .topology import local_obstruction_report
    rep = local_obstruction_report(parse_code(args.code), cap=args.face_cap)
    if args.json:
        print(json.dumps({
            "locally_good": rep.locally_good,
            "locally_great": rep.locally_great,
            "entries": [{
                "sigma": sorted(e.sigma),
                "verdict": e.verdict,
                "betti": {str(d): r for d, r in e.betti},
                "collapsible": e.collapsible,
                "link_facets": [sorted(f) for f in e.link_facets],
            } for e in rep.entries],
        }))
        return 1 if rep.locally_good == "no" else 0
    print(f"locally_good: {rep.locally_good}")
    great = {True: "yes", False: "no", None: "unknown"}[rep.locally_great]
    print(f"locally_great: {great}")
    for e in rep.entries:
        extra = ",".join(f"H{d}={r}" for d, r in e.betti if r)
        tail = f" ({extra})" if extra else ""
        print(f"{_fmt_word(e.sigma)}: {e.verdict}{tail}")
    return 1 if rep.locally_good == "no" else 0


def _cmd_ring(args) -> int:
    from .neural_ring import coordinate, evaluate_monomial, indicator
    code = parse_code(args.code)
    if args.sigma is not None:
        word = _parse_word(args.sigma)
        rows = [(f"x_{_fmt_word(word)}", evaluate_monomial(code, word))]
    elif args.word is not None:
        word = _parse_word(args.word)
        rows = [(f"rho_{_fmt_word(word)}", indicator(code, word))]
    else:
        rows = [(f"x_{i}", coordinate(code, i)) for i in range(1, code.n + 1)]
    if args.json:
        print(json.dumps({name: [sorted(mask_members(m)) for m in sorted(el.support)]
                          for name, el in rows}))
    else:
        for name, el in rows:
            print(f"{name}: {_fmt_masks(el.support)}")
    return 0


def _cmd_functor(args) -> int:
    from .neural_ring import morphism_to_monomial_map
    phi = morphism_to_monomial_map(_load_morphism(args.morphism))
    if args.json:
        print(json.dumps({
            "from_code": code_to_obj(phi.from_code),
            "to_code": code_to_obj(phi.to_code),
            "assignment": [None if s is None else sorted(s)
                           for s in phi.assignment],
        }))
        return 0
    for j, s in enumerate(phi.assignment, start=1):
        if s is None:
            rhs = "0"
        elif not s:
            rhs = "1"
        else:
            rhs = f"x_{_fmt_word(s)}"
        print(f"y_{j} -> {rhs}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest
    return 0 if selftest.run() else 1


# ---------------------------------------------------------------------------
# parser assembly

def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a JSON document instead of plain text")


def _add_enum_opts(p: argparse.ArgumentParser, jobs: bool = True) -> None:
    if jobs:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="accepted for compatibility; the search runs in "
                            "one process")
    p.add_argument("--max-trunks", type=int, default=DEFAULT_TRUNK_CAP,
                   metavar="N",
                   help="refuse codes with more trunks than this; "
                        "0 removes the cap (default %(default)s)")
    p.add_argument("--cache", nargs="?", const="", default=None, metavar="DIR",
                   help="cache enumeration results in DIR (bare --cache uses "
                        "CODECAT_CACHE_DIR or ~/.cache/codecat)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore CODECAT_CACHE_DIR and run uncached")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="codecat",
        description="Combinatorial neural codes: trunks, morphisms, "
                    "reduction, image enumeration, local obstructions.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, fn, help_, **kw):
        q = sub.add_parser(name, help=help_, description=help_, **kw)
        q.set_defaults(func=fn)
        return q

    q = cmd("parse", _cmd_parse, "normalize a code literal")
    q.add_argument("code")
    _add_json(q)

    q = cmd("trunks", _cmd_trunks, "list every trunk, or one Tk(sigma)")
    q.add_argument("code")
    q.add_argument("--sigma", metavar="WORD",
                   help="only the trunk of this set of neurons")
    q.add_argument("--max-trunks", type=int, default=DEFAULT_LISTED_TRUNKS, metavar="N",
                   help="refuse to list more trunks than this, the empty trunk "
                        "included; the lattice is closed from the n simple trunks "
                        "and stops at the cap.  0 removes the cap (default %(default)s)")
    _add_json(q)

    q = cmd("irreducible", _cmd_irreducible, "list the irreducible trunks")
    q.add_argument("code")
    _add_json(q)

    q = cmd("reduce", _cmd_reduce,
            "drop trivial and redundant neurons (exit 0 always)")
    q.add_argument("code")
    _add_json(q)

    q = cmd("minn", _cmd_minn,
            "fewest neurons among codes isomorphic to this one")
    q.add_argument("code")

    q = cmd("iso", _cmd_iso, "are two codes isomorphic? (exit 1 if not)")
    q.add_argument("code1")
    q.add_argument("code2")
    q.add_argument("--max-search-nodes", type=int, default=DEFAULT_MAX_NODES,
                   metavar="N",
                   help="refuse a canonical labelling search that needs more "
                        "nodes; 0 removes the cap (default %(default)s)")
    _add_json(q)

    q = cmd("apply", _cmd_apply, "apply a morphism (JSON or file) to a word")
    q.add_argument("morphism")
    q.add_argument("word")

    q = cmd("image", _cmd_image, "image code of a morphism")
    q.add_argument("morphism")
    _add_json(q)

    q = cmd("is-morphism", _cmd_is_morphism,
            "is an explicit word map a morphism? (exit 1 if not)")
    q.add_argument("map")
    _add_json(q)

    q = cmd("decompose", _cmd_decompose,
            "trunk normal form of an explicit map (exit 1 if not a morphism)")
    q.add_argument("map")
    _add_json(q)

    q = cmd("product", _cmd_product, "categorical product of two codes")
    q.add_argument("code1")
    q.add_argument("code2")
    _add_json(q)

    q = cmd("coproduct", _cmd_coproduct, "categorical coproduct of two codes")
    q.add_argument("code1")
    q.add_argument("code2")
    q.add_argument("--with-empty", action="store_true",
                   help="adjoin the empty word to the result")
    _add_json(q)

    q = cmd("intcomplete", _cmd_intcomplete,
            "is the code closed under intersections? (exit 1 if not)")
    q.add_argument("code")
    _add_json(q)

    q = cmd("maxint", _cmd_maxint,
            "are intersections of maximal words in the code? (exit 1 if not)")
    q.add_argument("code")
    _add_json(q)

    q = cmd("images", _cmd_images,
            "every reduced image of the code, up to isomorphism")
    q.add_argument("code")
    _add_enum_opts(q)
    q.add_argument("--stats", action="store_true",
                   help="append a search-statistics comment line")
    _add_json(q)

    q = cmd("diff-images", _cmd_diff_images,
            "reduced images of TARGET that no BASELINE produces")
    q.add_argument("target")
    q.add_argument("baseline", nargs="+")
    _add_enum_opts(q)
    q.add_argument("--stats", action="store_true",
                   help="append a count comment line")
    _add_json(q)

    q = cmd("member", _cmd_member,
            "find a morphism from SOURCE whose image is TARGET up to "
            "isomorphism (exit 1: none exists)")
    q.add_argument("source")
    q.add_argument("target")
    _add_enum_opts(q, jobs=False)
    _add_json(q)

    q = cmd("local-obs", _cmd_local_obs,
            "link verdict for every missing face (exit 1: some link has "
            "nonzero homology)")
    q.add_argument("code")
    q.add_argument("--face-cap", type=int, default=DEFAULT_FACE_CAP,
                   metavar="N", help="refuse complexes with more faces "
                                     "(default %(default)s)")
    _add_json(q)

    q = cmd("ring", _cmd_ring,
            "supports of ring elements: coordinates, one monomial, or one "
            "word indicator")
    q.add_argument("code")
    q.add_argument("--sigma", metavar="WORD", help="show the monomial x_sigma")
    q.add_argument("--word", metavar="WORD",
                   help="show the indicator of this codeword")
    _add_json(q)

    q = cmd("functor", _cmd_functor,
            "coordinate pullback map induced by a morphism")
    q.add_argument("morphism")
    _add_json(q)

    cmd("selftest", _cmd_selftest,
        "re-derive the built-in reference results (exit 1 on any failure)")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
