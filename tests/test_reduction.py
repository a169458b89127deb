import itertools
import random
import sys
import time

import pytest

from codecat import (Code, ResourceCapError, canonical_form, enumeration, format_code,
                     irreducible_trunks, is_isomorphic, is_reduced,
                     minimum_neuron_number, parse_code, permutation_morphism,
                     redundant_neurons, reduce_code, trivial_neurons)
from codecat.codes import MAX_NEURONS
from codecat.reduction import _bit_reversals, _min_relabeling

from helpers import (cycle_code, edge_codes, hollow_triangles, is_reduced_by_lattice,
                     min_relabeling_by_swaps, min_relabeling_full_sibling_scan,
                     power_set_with_copy, random_code, random_codes, random_relabelling,
                     redundant_neurons_by_trunk_of, tuple_word_key)


def relabel_code(code, perm):
    """perm[i-1] is the new label of neuron i."""
    return Code(code.n, [frozenset(perm[i - 1] for i in w) for w in code.words])


def code_order_key(code):
    # word order used throughout: cardinality first, then members
    return sorted((len(w), tuple(sorted(w))) for w in code.words)


def brute_canonical_key(code):
    """Lexicographically least relabeling, found by trying every
    permutation.  Exponential, so only used on small reduced codes as the
    reference for the branch-and-bound search."""
    best = None
    for perm in itertools.permutations(range(1, code.n + 1)):
        key = code_order_key(relabel_code(code, perm))
        if best is None or key < best:
            best = key
    return best


def test_trivial_neurons():
    assert trivial_neurons(Code(3, [[1, 2], [2], []])) == {3}
    assert trivial_neurons(parse_code("{12,23,1,3,0}")) == set()


def test_redundant_neuron_witness():
    assert redundant_neurons(parse_code("{123,1,2,0}")) == [(3, frozenset({1, 2}))]


def test_redundant_neuron_none_in_reduced():
    assert redundant_neurons(parse_code("{12,23,1,3,0}")) == []


def test_redundancy_identity_branch_by_branch():
    # A nontrivial neuron is redundant when another neuron has its simple
    # trunk, when its simple trunk is the whole code, or when it is the meet
    # of the larger simple trunks.  Each code is checked as drawn, with a
    # copy of one neuron, and with one neuron added to every word; the sweep
    # must reach every branch.
    rng = random.Random(2028)
    hits = {"shared": 0, "whole": 0, "meet": 0}
    for _ in range(1500):
        n = rng.randint(0, 6)
        code = random_code(rng, n, 1 << n)
        variants = [code, Code(n + 1, [w | 1 << n for w in code.masks])]
        if n:
            i = rng.randrange(n)
            variants.append(Code(n + 1, [w | (w >> i & 1) << n for w in code.masks]))
        for c in variants:
            got = redundant_neurons(c)
            assert got == redundant_neurons_by_trunk_of(c)
            simple = [frozenset(m for m in c.mask_set if m >> j & 1) for j in range(c.n)]
            for i, _ in got:
                t = simple[i - 1]
                if simple.count(t) > 1:
                    hits["shared"] += 1
                elif t == c.mask_set:
                    hits["whole"] += 1
                else:
                    assert t == frozenset.intersection(*[s for s in simple if s > t])
                    hits["meet"] += 1
    assert min(hits.values()) > 0, hits


def test_is_reduced():
    assert is_reduced(parse_code("{12,23,1,3,0}"))
    assert not is_reduced(parse_code("{123,1,2,0}"))      # 3 redundant
    assert not is_reduced(Code(3, [[1, 2], [2], []]))     # 3 trivial
    assert not is_reduced(parse_code("{12,0}"))           # Tk(2) = Tk(1)


def test_is_reduced_matches_lattice_reference():
    codes = list(edge_codes())
    for n in range(7):
        codes += random_codes(150, 700 + n, n=n, max_words=14)
    verdicts = [is_reduced_by_lattice(c) for c in codes]
    assert [is_reduced(c) for c in codes] == verdicts
    assert 0.2 < sum(verdicts) / len(codes) < 0.8  # both answers well covered


def test_reduce_golden_small():
    r = reduce_code(parse_code("{2,12}"))
    assert r.reduced.n == 1 and is_isomorphic(r.reduced, parse_code("{0,1}"))
    r = reduce_code(parse_code("{0,2,3}"))
    assert r.reduced.n == 2 and is_isomorphic(r.reduced, parse_code("{0,1,2}"))


def test_reduced_code_keeps_its_neuron_order():
    # A reduced code comes back unchanged, so neuron j's origin is the
    # generator of Tk(j), not the j-th irreducible trunk by generator.
    code = Code(3, [[1], [1, 3], [2], [1, 2, 3]])
    r = reduce_code(code)
    assert is_reduced(code) and r.reduced is code
    assert r.neuron_origin == (frozenset({1}), frozenset({2}), frozenset({1, 3}))
    assert [t.generator for t in irreducible_trunks(code)] == [
        frozenset({1}), frozenset({1, 3}), frozenset({2})]


def test_reduce_degenerate_codes():
    assert reduce_code(Code(2, [])).reduced == Code(0, [])
    assert reduce_code(Code(3, [0])).reduced == Code(0, [0])


def test_reduce_properties_random():
    for code in random_codes(120, 29, n=5, max_words=10):
        r = reduce_code(code)
        assert is_reduced(r.reduced)
        assert len(r.neuron_origin) == r.reduced.n
        # the reduction morphism is a bijection onto the reduced code
        images = {r.iso.apply_mask(m) for m in code.mask_set}
        assert images == r.reduced.mask_set
        assert len(code) == len(r.reduced)
        assert minimum_neuron_number(code) == r.reduced.n
        # reducing again changes nothing
        assert reduce_code(r.reduced).reduced == r.reduced


def test_minimum_neuron_number_golden():
    vals = [minimum_neuron_number(parse_code(t))
            for t in ("{2,12}", "{0,2,3}", "{12,23,1,3,0}", "{12,34,1,3,0}")]
    assert vals == [1, 2, 3, 4]


def test_copied_neuron_changes_no_canonical_form_or_minimum():
    # a copy of neuron 1 is redundant, so reducing it away leaves the power set
    for n in range(4, 11):
        plain, copied = Code(n, range(1 << n)), power_set_with_copy(n)
        assert canonical_form(copied).code == canonical_form(plain).code
        assert minimum_neuron_number(copied) == minimum_neuron_number(plain) == n


def test_canonical_matches_brute_force():
    # anchor the pruned search against plain exhaustion over permutations;
    # the symmetric codes stress mirror-sibling pruning and tied slots that
    # are not yet determined, and the last code loses its least relabelling
    # if siblings with equal partial keys are skipped without the swap test
    stress = ([cycle_code(n) for n in range(3, 8)]
              + [hollow_triangles(2, v) for v in (False, True)]
              + [parse_code("{1236,1245,2346,146,236,346,12,23,45,56,3,4}")])
    for code in random_codes(80, 57, n=5, max_words=9) + edge_codes() + stress:
        cf = canonical_form(code)
        reduced = reduce_code(code).reduced
        assert code_order_key(cf.code) == brute_canonical_key(reduced)


def test_canonical_matches_brute_force_wider():
    for code in random_codes(12, 58, n=6, max_words=14):
        cf = canonical_form(code)
        reduced = reduce_code(code).reduced
        assert code_order_key(cf.code) == brute_canonical_key(reduced)


def test_canonical_witness_is_valid():
    for code in random_codes(60, 77, n=5, max_words=9):
        cf = canonical_form(code)
        reduced = reduce_code(code).reduced
        assert sorted(cf.witness) == list(range(1, reduced.n + 1))
        assert permutation_morphism(reduced, cf.witness).image() == cf.code


def test_canonical_form_and_witness_pinned():
    # the representative and the witness by value, not only their validity
    pinned = [
        ("{2345,123,134,145,13,14,23,34,45,3,4,0}",
         "{1245,123,134,235,12,13,14,23,25,1,2,0}", (3, 4, 1, 2, 5)),
        ("{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}",
         "{1245,123,124,125,134,235,12,13,14,23,25,1,2,0}", (3, 4, 1, 2, 5)),
        ("{2345,123,134,145,13,14,23,34,45,3,4,1,0}",
         "{1245,123,134,235,12,13,14,23,25,1,2,3,0}", (3, 4, 1, 2, 5)),
        ("{3456,123,145,256,45,56,1,2,3,0}",
         "{3456,123,145,246,45,46,1,2,3,0}", (1, 2, 3, 5, 4, 6)),
        ("{1236,3456,145,256,26,36,45,56,1,6,0}",
         "{1245,1356,134,236,13,14,15,36,1,2,0}", (2, 4, 5, 6, 3, 1)),
        ("{124,135,145,234,14,15,24,3,4,0}",
         "{124,134,135,235,13,14,35,1,2,0}", (3, 4, 2, 1, 5)),
        ("{12,23,1,3,0}", "{13,23,1,2,0}", (1, 3, 2)),
    ]
    for text, canon, witness in pinned:
        cf = canonical_form(parse_code(text))
        assert (format_code(cf.code), cf.witness) == (canon, witness)


def test_canonical_invariant_under_relabeling():
    rng = random.Random(4)
    for code in random_codes(60, 99, n=6, max_words=10):
        perm = list(range(1, code.n + 1))
        rng.shuffle(perm)
        assert canonical_form(relabel_code(code, perm)).code == canonical_form(code).code


def test_canonical_on_symmetric_code():
    # fully symmetric codes stress the interchangeable-label pruning
    full = Code(6, range(1 << 6))
    cf = canonical_form(full)
    assert cf.code == full


def test_canonical_simplex_like():
    c = Code(7, [(1 << 7) - 1, 0])
    cf = canonical_form(c)
    assert cf.code == Code(1, [1, 0])


def test_is_isomorphic_golden():
    assert is_isomorphic(parse_code("{2,12}"), parse_code("{0,1}"))
    assert is_isomorphic(parse_code("{0,2,3}"), parse_code("{0,1,2}"))
    assert not is_isomorphic(parse_code("{2,12}"), parse_code("{0,2,3}"))
    assert not is_isomorphic(parse_code("{12,23,1,3,0}"),
                             parse_code("{12,34,1,3,0}"))


def test_is_isomorphic_is_an_equivalence():
    rng = random.Random(41)
    codes = random_codes(25, 15, n=4, max_words=6)
    for c in codes:
        assert is_isomorphic(c, c)
        perm = list(range(1, c.n + 1))
        rng.shuffle(perm)
        assert is_isomorphic(c, relabel_code(c, perm))
    for a in codes[:8]:
        for b in codes[:8]:
            assert is_isomorphic(a, b) == is_isomorphic(b, a)


def test_isomorphic_iff_same_brute_canonical():
    # pairwise agreement between the library verdict and brute exhaustion
    codes = random_codes(18, 70, n=4, max_words=5)
    keys = [brute_canonical_key(reduce_code(c).reduced) for c in codes]
    for (a, ka) in zip(codes, keys):
        for (b, kb) in zip(codes, keys):
            assert is_isomorphic(a, b) == (ka == kb)


PAPER = ["{2345,123,134,145,13,14,23,34,45,3,4,0}",
         "{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}",
         "{2345,123,134,145,13,14,23,34,45,3,4,1,0}",
         "{3456,123,145,256,45,56,1,2,3,0}",
         "{1236,3456,145,256,26,36,45,56,1,6,0}",
         "{124,135,145,234,14,15,24,3,4,0}",
         "{12,23,1,3,0}"]


def in_code_order(masks) -> list[int]:
    """masks in the order of Code.masks."""
    return sorted(masks, key=tuple_word_key)


def search_and_reference(masks, n):
    """(canonical masks, perm) from the search and from the swap-only
    reference it replaced, whose masks come in input word order and are
    put in the order of Code.masks, the order the search returns."""
    got, ref = _min_relabeling(masks, n), min_relabeling_by_swaps(masks, n)
    return (list(got[0]), got[1]), (in_code_order(ref[0]), ref[1])


def search_corpus() -> list[Code]:
    """Random, edge, symmetric, relabelled symmetric, large symmetric and
    paper codes for the search and its references."""
    codes = []
    for n in range(2, 8):
        codes += random_codes(60, 800 + n, n=n, max_words=min(1 << n, 24))
    symmetric = ([cycle_code(n) for n in range(3, 13)]
                 + [hollow_triangles(k, False) for k in range(2, 6)]
                 + [hollow_triangles(k, True) for k in (2, 3)]
                 + [Code(n, range(1 << n)) for n in range(1, 7)])
    rng = random.Random(9)
    relabelled = []
    for code in symmetric:
        perm = list(range(1, code.n + 1))
        rng.shuffle(perm)
        relabelled.append(relabel_code(code, perm))
    large = [cycle_code(n) for n in (16, 20, 24)] + [hollow_triangles(6, False)]
    return codes + edge_codes() + symmetric + relabelled + large + [parse_code(t) for t in PAPER]


def test_search_matches_swap_only_reference():
    # automorphism pruning and the bound must keep the first least leaf, so
    # the witness as well as the canonical code; symmetric inputs also as
    # seeded relabellings, which search other trees.  The swap test reads
    # only the words that hold either neuron, so every code is also passed
    # as the frozenset a census passes, in that set's word order.
    for code in search_corpus():
        red = reduce_code(code).reduced
        for masks in (red.masks, red.mask_set):
            got, ref = search_and_reference(masks, red.n)
            assert got == ref, format_code(code, "json")


def difference_labelling_requests(monkeypatch) -> tuple[dict, list]:
    """Every distinct (k, signature) labelling request of the CF, DF and EF
    censuses sharing one labelling cache, as a difference with cache_dir
    runs them, mapped to its answer; and the searches they ran."""
    real = enumeration._canonical_of_reduced_masks
    answers = {}

    def recording(m, masks, cache):
        answers[(m, masks)] = answer = real(m, masks, cache)
        return answer

    monkeypatch.setattr(enumeration, "_canonical_of_reduced_masks", recording)
    searches = []
    monkeypatch.setattr(enumeration, "_min_relabeling",
                        lambda *args: searches.append(args) or _min_relabeling(*args))
    labels = {}
    for text, count in zip(PAPER[:3], (178, 721, 133)):
        census = enumeration.enumerate_reduced_images(parse_code(text), _labels=labels)
        assert len(census.images) == count
    return answers, searches


def test_search_matches_reference_on_every_difference_labelling(monkeypatch):
    # the search matches the reference on every request, and so does the
    # answer, whether a search or the invariant key gave it
    answers, searches = difference_labelling_requests(monkeypatch)
    for (m, masks), answer in answers.items():
        got, ref = search_and_reference(masks, m)
        assert got == ref
        assert answer == Code(m, ref[0])
    assert (len(answers), len(searches)) == (1540, 902)


def full_sibling_scan_inputs(monkeypatch) -> list:
    """(masks, n) of the reference corpus in both word orders and of every
    labelling request of the paper's censuses."""
    inputs = []
    for code in search_corpus():
        red = reduce_code(code).reduced
        inputs += [(red.masks, red.n), (red.mask_set, red.n)]
    return inputs + [(masks, m) for m, masks in difference_labelling_requests(monkeypatch)[0]]


def test_search_matches_full_sibling_scan_within_its_nodes(monkeypatch):
    # stopping at the first sibling the bound cuts and reading the words
    # off the best leaf change neither the result nor, within the frozen
    # search's node count, the work: on the reference corpus in both word
    # orders and on every labelling request of the paper's censuses
    for masks, n in full_sibling_scan_inputs(monkeypatch):
        want_masks, want_perm, nodes = min_relabeling_full_sibling_scan(masks, n)
        got_masks, got_perm = _min_relabeling(masks, n, nodes)
        assert (list(got_masks), got_perm) == (in_code_order(want_masks), want_perm)


def test_search_visits_exactly_the_full_sibling_scans_nodes(monkeypatch):
    # giving the last label in place counts a leaf exactly when the frozen
    # search visits it: one node fewer than its count is refused
    for masks, n in full_sibling_scan_inputs(monkeypatch):
        nodes = min_relabeling_full_sibling_scan(masks, n)[2]
        _min_relabeling(masks, n, nodes)
        with pytest.raises(ResourceCapError):
            _min_relabeling(masks, n, nodes - 1)


def test_bit_reversals_match_string_reversal():
    rng = random.Random(20)
    for n in range(MAX_NEURONS + 1):
        values = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]
        assert _bit_reversals(values, n) == tuple(int(f"{v:0{n}b}"[::-1], 2) for v in values)


@pytest.mark.parametrize("code", [cycle_code(k) for k in (20, 33, 48, 64)]
                         + [Code(n, [0] + [1 << i for i in range(n)]) for n in (16, 40, 64)],
                         ids=lambda code: f"n={code.n},{len(code.masks)} words")
def test_search_reads_wide_words(code):
    # words of more than one byte: the search's words are the code
    # relabelled by its perm, in the order of Code.masks
    words, perm = _min_relabeling(code.mask_set, code.n)
    assert words == Code(code.n, words).masks
    assert set(words) == {sum(1 << (perm[o] - 1) for o in range(code.n) if m >> o & 1)
                          for m in code.masks}


def test_search_returns_words_in_code_order():
    # the search's words come in the order of Code.masks, and the codes that
    # canonical_form and the labelling cache build from them without a sort
    # equal Code's own, down to the masks tuple and the word set's table
    rng = random.Random(19)
    for n in range(10):
        for code in random_codes(30, 1900 + n, n=n, max_words=min(1 << n, 24)):
            red = reduce_code(code).reduced
            words, _ = _min_relabeling(red.mask_set, red.n)
            want = Code(red.n, words)
            assert type(words) is tuple and words == want.masks
            labels = {}
            built = [canonical_form(code).code,
                     enumeration._canonical_of_reduced_masks(red.n, red.mask_set, labels)]
            other = random_relabelling(rng, red)
            built.append(enumeration._canonical_of_reduced_masks(other.n, other.mask_set, labels))
            for got in built:
                assert got == want and got.masks == want.masks, format_code(code, "json")
                assert sys.getsizeof(got.mask_set) == sys.getsizeof(want.mask_set)


@pytest.mark.parametrize("code, nodes", [(hollow_triangles(7, False), 253),
                                         (cycle_code(16), 63),
                                         (hollow_triangles(4, True), 61)],
                         ids=["7 triangles", "16-cycle", "4 triangles+vertices"])
def test_search_node_counts_pinned(code, nodes):
    # without the automorphisms of tied leaves the search visits 41098 nodes
    # on the 7 triangles and 497 on the cycle; if words with one unlabelled
    # neuron did not compete for the free labels in the bound, it would visit
    # 62109 on the 4 triangles with vertex words
    red = reduce_code(code).reduced
    _min_relabeling(red.masks, red.n, nodes)
    with pytest.raises(ResourceCapError):
        _min_relabeling(red.masks, red.n, nodes - 1)


def test_search_node_cap_refuses_quickly():
    code = hollow_triangles(10, True)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="cap of 50 nodes"):
        canonical_form(code, max_nodes=50)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ResourceCapError):
        is_isomorphic(code, code, max_nodes=50)
    # the default cap and no cap both finish it (661 nodes)
    assert canonical_form(code).code == canonical_form(code, max_nodes=None).code
