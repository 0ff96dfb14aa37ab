"""Catalog entries: constructions, claim checks, and cross-module identities."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import oracles
from conftest import INVOLUTION_IMG, SEVEN_CYCLE_IMG, TRIPLING_IMG, \
    difference_sets, right_regular
from symdesign import catalog
from symdesign.catalog import (
    B1,
    COMPLETE_BLOCK_LIMIT,
    CatalogEntry,
    biplane_classes,
    entry,
    names,
    run_claims,
)
from symdesign.cli import main
from symdesign.decomp import DecompositionError, decompose
from symdesign.design import (
    DesignError,
    IncidenceStructure,
    design_from_json,
    design_to_json,
    is_flag_transitive,
    is_point_primitive,
    verify_design,
)
from symdesign.diffset import develop_difference_set, is_difference_set
from symdesign.enumeration import table_rows
from symdesign.iso import are_isomorphic, automorphism_group
from symdesign.perm import (
    Perm,
    PermGroup,
    minimal_block_systems,
    rank_and_subdegrees,
)

# d64-2's base block, 1-based as printed
D64_2_BASE = (10, 12, 14, 16, 18, 19, 21, 24, 27, 28, 29, 30, 34, 36, 37, 39,
              45, 46, 47, 48, 51, 52, 55, 56, 59, 60, 63, 64)

GENERATOR_FILE_SHA256 = \
    "72029aac7da24038e2cc228d2103873202cb18c9a6e7b3c926f133358ddb3ac6"

# sha256 of the two biplane entries' design JSON, recorded when the
# biplanes were first classified through the Hussain chain
BIPLANE_JSON_SHA256 = {
    "biplane-1": "e42c887081e41288386da3551bc1d49eb8622da0b3ee2e33a76b8d849aa38cd1",
    "biplane-2": "08aa601f899eaed24b2c8d24b32bd7f7d87d18d5274803ef069593978db97e4f",
}

# sha256 of the JSON list of [blocks, |Aut|, generator image tuples] of every
# biplane_classes() entry, recorded at the same time
BIPLANE_CLASSES_SHA256 = \
    "0bc174d799cc2dd385951e8ecb2830c5c80143598a5a488d66b71151e0a83659"


def count_chain_builds(monkeypatch) -> list:
    """From here on, the generators of each group whose chain is built."""
    builds = []
    real = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self.generators) or real(self))
    return builds


def chain_digest(g: PermGroup) -> str:
    """sha256 of a chain's base, strong generators, transversal points in
    insertion order, and order."""
    record = (g.base, [x.img for x in g.strong_generators()],
              [list(level) for level in g._trans], g.order())
    return hashlib.sha256(repr(record).encode()).hexdigest()


ALL_NAMES = ([name for name in names() if name != "complete(v,k)"]
             + ["complete(6,3)", "complete(8,7)"])

# chain_digest of each entry's group: d64-1, s-minus-3 and pg5_2_complement
# recorded when every chain was still built at construction, the others
# while chain elements were still image tuples
CHAIN_SHA256 = {
    "d64-1": "40dd97c32cae3b1ca3cd89449fc9c089b0c85228ce3b104c85055ed05380a16e",
    "s-minus-3": "77c92e1154e7d1d403c1a9ee0be1f68d2ebe216b16b64dc6d4654040dc443070",
    "pg5_2_complement": "2ebdeb2087894d605ec79597fcb26d1e9de20327e9b92ac90131b70206732367",
    "d64-2": "40dd97c32cae3b1ca3cd89449fc9c089b0c85228ce3b104c85055ed05380a16e",
    "biplane-1": "08674ee7cc66a1d65e93c6f7460c951e5e131e14e14b2b0f70d1427715b896d8",
    "biplane-2": "c433de7e35e2b2ce6c58107f8455b8d3d1fb0bce9e171cbebd61fe3747e3a6d2",
    "ag2_3": "479cf60c070b571561954e6115c9ba1b1ad3a96770fd954efa417592989cdf45",
    "ag2_3_complement": "479cf60c070b571561954e6115c9ba1b1ad3a96770fd954efa417592989cdf45",
    "ag2_4_lines": "7d8372b1e97cd51c75fadf556a79fa9a2df80a8aa8caf5dc23c6873fe0765ff2",
    "ag3_2_planes": "6203b27d6108ad3a9ec3da2845cef36181e71599ec016ff523b12bd25de32e68",
    "fano": "37181aec503dff3f9b73a65622d7b348de5f157b2156ccd56786dedcf239ad38",
    "fano_complement": "37181aec503dff3f9b73a65622d7b348de5f157b2156ccd56786dedcf239ad38",
    "pg2_3": "48d65a5f5772188fcabcc00b695998d9218a629ed64ff88787c63ceaea39d69d",
    "pg2_3_complement": "48d65a5f5772188fcabcc00b695998d9218a629ed64ff88787c63ceaea39d69d",
    "pg2_4": "1b29bfd40687c383c6eb5dc659498ee8cd520c3f8f7f721e01cc8363def16d88",
    "pg2_4_complement": "1b29bfd40687c383c6eb5dc659498ee8cd520c3f8f7f721e01cc8363def16d88",
    "pg5_2_hyperplanes": "2ebdeb2087894d605ec79597fcb26d1e9de20327e9b92ac90131b70206732367",
    "complete(6,3)": "1a1620185b4fb89ab2320266ae034c1926268bfeaf36a1fbd3012226882d9061",
    "complete(8,7)": "fec1a8b05a070e6830f09747eece5916329c25cf0b693d9b2a29d6fe93d19fa5",
}

# sha256 digests of [exit code, stdout, stderr] of `construct NAME`, `claims
# NAME` and `claims NAME --format json`, recorded before every catalog row
# took the one (builder, args, claims) shape: every listed name, complete
# designs on each side of the |Aut| computation limit (16! is above it),
# and the two refusal texts.  The biplane rows were re-recorded when the
# biplanes were first classified through the Hussain chain: construct for
# both, and claims for biplane-2, whose Aut has 7 generators instead of 6
CLI_SHA256 = {
    "d64-1": (
        "e86e5d5ec8dc6dea79779cee7ad1c78b0fbd1c1e5c47c0f7882da04359d4db7e",
        "c50144390a2457edab1ddc8238ee9c41d20096b1ea0402bff9d00d5a764ab479",
        "771f88032575e42376ef58a0b8f1d234d28c31c40b55479291f75143be26c795"),
    "d64-2": (
        "68fd336e495e0999683c79a155f5f3e598a85c07f8b486c2fed6f7bae260588a",
        "c50144390a2457edab1ddc8238ee9c41d20096b1ea0402bff9d00d5a764ab479",
        "771f88032575e42376ef58a0b8f1d234d28c31c40b55479291f75143be26c795"),
    "s-minus-3": (
        "61b490d2ec66219e833073a17c90406f08f34124d8bd53916a22c62e6dd70ad2",
        "84655703481339000a75236ea362dd6b0e1170ad670502e811399c4d5f1eb377",
        "8c8d9f9844bc3793b68d554dbb605e91627d57b8cfdf3eb576db859844622e05"),
    "biplane-1": (
        "cf4e0199e77e8201b2c4fabb4a8c8030e4d6ee44fc0437a4b0cad4cd17ecb373",
        "2c55492e89201c21cf15f05e74548646adcdd2ebfdd72a70c7787314425c2bb6",
        "46d06c08bb04a3e7f916f73a87219dc81cd9e6a6d8f9ac12fa5208a910ae0ae0"),
    "biplane-2": (
        "50968d9b450427488a204ebc03a36abef334c1bdbc98205cc5e1562d08f3d8e7",
        "fedb22be7505e5414598079c50a953f895f782494d8ba6c5a8b85a61fb16b649",
        "f6f571993066ee5d19549b46f0db800dde4cdf075dd4b2a43ff3d6a9a99e99c3"),
    "ag2_3": (
        "0e41a008afc036d52623af5e2a73fa882e9d987476efbcbfd88361734c4c54d6",
        "894192a2cc089fa00e64483695ada3fb466f69d06c6ca048faad2a6725b86486",
        "8ed5f782459f0fb71cc4db6c271857e9fed53bd3a64bd93c936bcdb5cec7bd71"),
    "ag2_3_complement": (
        "4df81020d19a88aed7f7af5ab8d6b3b1b75dc5d7d99eef4b0ee6645105fb3f5b",
        "93e80880a60ea1f9947c1f35f111b60cc04cc33bb0ea8eba9db48ebec0ca97e0",
        "0c9956f43c8394ae57b5cbc0504f61ed7b9be0423a819c2686575077a70b4c1c"),
    "ag2_4_lines": (
        "850d153100765cd9157f250cbbce6492dd3bec374beeaf7df901767a9c9de30a",
        "7bd4d8d5353263ff60da4da90c34f042c2d6ae51ef09a81b5b19fae737edf08f",
        "466617199e71602093297912a2cad8ff362772481d42327f7759f9e5b69c5b06"),
    "ag3_2_planes": (
        "694b93b9f2c781cbe0624692c6ead56cc23f7fcaea876906140b8eab73433eeb",
        "a886d5ed73fbed65e0ba59f6f95f6576c72ac8be13d91db6cdf1ff51d7e6085d",
        "dbb164de8bd717ebcfafa0463f0125e0a78c707b03785cda1d757febfb533022"),
    "fano": (
        "291c824fb1811552cdca39058c3ce795751abe3b92d91b6f9822a899b9d9daf5",
        "7045503094895f48bc6e85679f774574fd621af9f1b3d170405b78f12d5a4bd0",
        "583b18b3f90c7c3a9cb0a2190050ec6453ddbccebac03cec3334074f2fe6dffc"),
    "fano_complement": (
        "f10b4f2248ed11e5faeb3a6b4b5e74fe83059ef9283a113d935818f6984a3aa7",
        "4bcc102f61dbbc69f700e5b18953ea8fb4110838ee1cd0fa7c0710f4f9dfab5f",
        "8a6efd88632c62d1650d8e634e2714f22d3218d56b1fa0dd22c4d61d1969b0af"),
    "pg2_3": (
        "e7106f5cc006522254099b1cfcfa10f31609cf09cca06c4d252f1323797c70ad",
        "fb213a0ec51bbdd27631e450dd562dca4956271157b123d85836ba174eceefe8",
        "1af736c90a03440c7a3227488461598b99d8d04eb679b705c2337af6ec7837ea"),
    "pg2_3_complement": (
        "5e154b54c5970f4d9e22c14ca9b3388c6f73a82ead60e35cf51b50ab4101bd59",
        "bfe9e6eee8f31e77911661c74ba39542b7d7444f2a4561c31491c3ee85fe70c7",
        "d903e092945f125e3e4f8039e5e1997e83f48c4b7760eb862e7bd82eb99c6575"),
    "pg2_4": (
        "201a77efd137bf21378735d0a5b62d9f1d9d50ef345362c94fd1fb669943484a",
        "516221cda1ed28d2881f2c513d50fc23cfd3f9668bc1987752c44e52b8ddabc3",
        "48885bf4ceef520626ebb4dd9296029f20da0566a5449fc069b9ac11b603bd19"),
    "pg2_4_complement": (
        "9aa91a5f9bae6c339528ac51b5c9f4455d1b35d8ec16d4fac545e72b5cf14500",
        "897c14e0930421d5446b9878741f08877073b741f3059aa9fe75ce20b7a38b53",
        "6f4be3cd5e508ac72c08df7fb474c800a49d5950e8660e576ed77d5e9d78047a"),
    "pg5_2_complement": (
        "f8b951085df7d60c6f5f10c761fa28fe41e53d062664d46c73b2f9a5a41cb142",
        "fdec5664fa748e8f9ace0b1e03900c3c1e9e68dc3d32e3e4b40eb3bfcf96c6c3",
        "d4795137e27529f78a4c36ea178349b1de69f69b7d139e4e445fcfdeff6990f1"),
    "pg5_2_hyperplanes": (
        "b7f4159b3989d13d0fa291f35e08a94e05ed866aefaf5c624702ed9e7a441c92",
        "9c3d472d1c8f0110032d61eb10c2257883ad7f97b692fb768636e2aafc63cc38",
        "5e1077366a7dba1992822b2e79801e59e7e7c7742d5d81f9a95dbe94d2b0b3b9"),
    "complete(6,3)": (
        "e7d857ddf83526c02b46a15b3b62a50fdfe06c14d0a011ff00bcc6531edb7df3",
        "d1056489f7250fa07661d68749336c77e292de2db4c7d1d39924cf2f6af58c5c",
        "6c49c6bd300e0b3a381846ea26c4fc55ff28361b0d9c100a3842c585212fed43"),
    "complete(8,7)": (
        "72f067de22dd496c8d6d6c22b43b67abce8996c7f68be93c363e42154295efd3",
        "7a6d5981605bb4752b36054e40ae51b4c8060a850310bfc5133702980bdeedc3",
        "5b2dd672c0978f9366104f850195e8326b5e4abdc258fcb96919d22483a366ee"),
    "complete(16,8)": (
        "2aee70a5e949dec91e22499efa257b3a3c5628686a1de2abaeee12e5db88735d",
        "78bcb4f959cd9ee7ec45c3f55da56cc976eed17365f9c902748715c1c5392d54",
        "52f6fa62564176380489f767ae6e51b63023714d3863f1b76b88d26852f08ac9"),
    "complete(3,2)": (
        "cd18c4361bfc9a34724b9f0a30cf257d2e070ae91433a07bb379f71fc1b10afb",
        "63180770e7217d8934c3e926f827ad948724ee639eccd69e3cb1b8f0dd74a98b",
        "d684a8e23a689b8451af782de872d14d101392af8cf3b1945f9e7d2f27c608e4"),
    "petersen": (
        "c671f5be9c6e649af422c7914c2fc3537c85923b7b6d80b228dfec4f8cbbfb7a",
        "c671f5be9c6e649af422c7914c2fc3537c85923b7b6d80b228dfec4f8cbbfb7a",
        "c671f5be9c6e649af422c7914c2fc3537c85923b7b6d80b228dfec4f8cbbfb7a"),
    "complete(21,10)": (
        "426a952fa31047c46fa903bf9c0440abdb65c26eba54d227ed49f97b42412af1",
        "426a952fa31047c46fa903bf9c0440abdb65c26eba54d227ed49f97b42412af1",
        "426a952fa31047c46fa903bf9c0440abdb65c26eba54d227ed49f97b42412af1"),
}


# One difference set in each of C2^4, C8 x C2 and Q8 x C2, as (elements,
# product, set): their developments are the three biplanes, with GF(2)
# ranks 6, 7 and 8.
def _c8c2(x, y):
    return ((x[0] + y[0]) % 8, (x[1] + y[1]) % 2)


def _q8c2(x, y):
    # r^4 = 1, s^2 = r^2, s^-1 r s = r^-1, times a central C2
    return ((x[0] + (y[0] if x[1] == 0 else -y[0]) + 2 * (x[1] * y[1])) % 4,
            (x[1] + y[1]) % 2, (x[2] + y[2]) % 2)


KNOWN_DIFFERENCE_SETS = [
    (list(itertools.product(range(2), repeat=4)),
     lambda x, y: tuple(a ^ b for a, b in zip(x, y)),
     [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]),
    (list(itertools.product(range(8), range(2))), _c8c2,
     [(0, 0), (0, 1), (1, 0), (2, 0), (5, 1), (6, 0)]),
    (list(itertools.product(range(4), range(2), range(2))), _q8c2,
     [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 1)]),
]


def as_sets(blocks) -> frozenset:
    return frozenset(frozenset(b) for b in blocks)


class TestBiplanesFromScratch:
    """Every 2-(16,6,2) design, found by the independent Hussain-chain
    search of tests/oracles.py, is isomorphic to one of biplane_classes()."""

    def test_three_classes_match_the_difference_set_developments(self):
        nodes, found = oracles.hussain_biplanes()
        assert (nodes, len(found)) == (354, 46)
        designs = [IncidenceStructure(16, blocks) for blocks in found]
        for d in designs:
            assert verify_design(d) == (16, 16, 6, 6, 2)
        reps: list[IncidenceStructure] = []
        for d in designs:
            if all(are_isomorphic(d, rep) is None for rep in reps):
                reps.append(d)
        reps.sort(key=lambda rep: -automorphism_group(rep).order())
        assert [automorphism_group(rep).order() for rep in reps] == [11520, 768, 384]
        classes = biplane_classes()
        for i, rep in enumerate(reps):
            for j, (dev, _) in enumerate(classes):
                assert (are_isomorphic(rep, dev) is not None) == (i == j)

    def test_class_sizes_times_aut_count_the_frames(self):
        """Split by the oracle's frame labellings, the 46 completions fall
        into classes of 1, 15 and 30; the frames giving a class's first
        completion its own labelling are its automorphisms, and each class
        size times their number is 16 * 6 * 5!."""
        _, found = oracles.hussain_biplanes()
        sizes, auts, left = [], [], [frozenset(b) for b in found]
        while left:
            labellings = oracles.frame_labellings(sorted(left[0]))
            orbit = set(labellings)
            sizes.append(sum(b in orbit for b in left))
            auts.append(labellings.count(left[0]))
            left = [b for b in left if b not in orbit]
        assert sizes == [1, 15, 30]
        assert [size * aut for size, aut in zip(sizes, auts)] == [11520] * 3
        assert auts == [aut.order() for _, aut in biplane_classes()]

    def test_completions_match_the_oracle(self):
        _, found = oracles.hussain_biplanes()
        got = {as_sets([x for x in range(16) if b >> x & 1] for b in blocks)
               for blocks in catalog._chain_completions()}
        assert len(got) == 46
        assert got == {as_sets(blocks) for blocks in found}

    def test_known_difference_sets_develop_onto_one_class_each(self):
        classes = biplane_classes()
        hits, ranks = [], []
        for elements, mul, d in KNOWN_DIFFERENCE_SETS:
            action = right_regular(elements, mul)
            points = [elements.index(x) for x in d]
            assert is_difference_set(action, points, 2) == (True, [])
            dev = develop_difference_set(action, points)
            maps = [(j, m) for j, (rep, _) in enumerate(classes)
                    if (m := are_isomorphic(dev, rep)) is not None]
            assert len(maps) == 1
            j, m = maps[0]
            target = list(classes[j][0].blocks)
            assert oracles._maps_blocks(m.img, list(dev.blocks), set(target),
                                        Counter(target))
            hits.append(j)
            ranks.append(oracles.gf2_rank(16, list(dev.blocks)))
        assert sorted(hits) == [0, 1, 2]
        assert sorted(ranks) == [6, 7, 8]


class TestBiplaneSearch:
    def test_elementary_abelian_counts_match_translate_oracle(self):
        # independent route: |D meet (D + c)| = 2 for every nonzero c,
        # computed by direct xor translation of the point set
        oracle = []
        for d in itertools.combinations(range(16), 6):
            ds = set(d)
            if all(len(ds & {p ^ c for p in ds}) == 2 for c in range(1, 16)):
                oracle.append(d)
        assert len(oracle) == 448
        action = right_regular(list(range(16)), int.__xor__)
        assert difference_sets(action, 6, 2) == oracle

    def test_three_isomorphism_classes(self):
        classes = biplane_classes()
        assert [aut.order() for _, aut in classes] == [11520, 768, 384]
        for dev, aut in classes:
            params = verify_design(dev)
            assert (params.v, params.k, params.lam) == (16, 6, 2)
        designs = [dev for dev, _ in classes]
        for i in range(3):
            for j in range(i + 1, 3):
                assert are_isomorphic(designs[i], designs[j]) is None

    def test_classes_are_pinned(self):
        got = [[[list(b) for b in dev.blocks], aut.order(),
                [list(g.img) for g in aut.generators]]
               for dev, aut in biplane_classes.__wrapped__()]
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == \
            BIPLANE_CLASSES_SHA256

    def test_each_class_group_is_computed_once(self, monkeypatch):
        """One automorphism search per rank group: every call returns one
        of the three class groups."""
        from symdesign import iso
        calls = []

        def counted(s, known=None):
            calls.append(real(s, known))
            return calls[-1]

        real = iso.automorphism_group
        monkeypatch.setattr(iso, "automorphism_group", counted)
        monkeypatch.setattr(catalog, "automorphism_group", counted)
        classes = biplane_classes.__wrapped__()
        assert {id(g) for g in calls} == {id(aut) for _, aut in classes}
        assert [aut.order() for _, aut in classes] == [11520, 768, 384]

    def test_search_counts_are_pinned(self, monkeypatch):
        """46 completions, one 2-rank each, then one design check and one
        automorphism search per rank group; no isomorphism test is left."""
        calls = {"completions": 0, "gf2_rank": 0, "verify_design": 0,
                 "automorphism_group": 0}

        def counting(key, real):
            def wrapped(*args):
                calls[key] += 1
                return real(*args)
            return wrapped

        def completions():
            found = real_completions()
            calls["completions"] += len(found)
            return found

        real_completions = catalog._chain_completions
        monkeypatch.setattr(catalog, "_chain_completions", completions)
        for name in ("gf2_rank", "verify_design", "automorphism_group"):
            monkeypatch.setattr(catalog, name, counting(name, getattr(catalog, name)))
        biplane_classes.__wrapped__()
        assert calls == {"completions": 46, "gf2_rank": 46, "verify_design": 3,
                         "automorphism_group": 3}
        assert not hasattr(catalog, "are_isomorphic")

    @pytest.mark.parametrize("dropped", [0, 1, 3, 45])
    def test_a_missing_completion_breaks_the_frame_count(self, monkeypatch, dropped):
        """Completions 1 and 45 have 2-rank 7, completion 3 has 2-rank 8.
        Completion 0 is the whole rank-6 class: without it the class is
        gone, the other two counts still hold and the class count fails."""
        real = catalog._chain_completions
        monkeypatch.setattr(catalog, "_chain_completions",
                            lambda: [c for i, c in enumerate(real()) if i != dropped])
        match = r"2 classes of 2-\(16,6,2\)" if dropped == 0 else "completions of 2-rank"
        with pytest.raises(AssertionError, match=match):
            biplane_classes.__wrapped__()

    def test_exactly_two_classes_are_flag_transitive(self):
        from symdesign.design import is_flag_transitive
        flags = [is_flag_transitive(dev, aut) for dev, aut in biplane_classes()]
        assert flags == [True, True, False]

    def test_builder_rejects_other_indices(self):
        with pytest.raises(ValueError):
            entry("biplane-3")

    @pytest.mark.parametrize("name", sorted(BIPLANE_JSON_SHA256))
    def test_biplane_designs_are_pinned(self, name):
        text = design_to_json(entry(name).design)
        assert hashlib.sha256(text.encode()).hexdigest() == BIPLANE_JSON_SHA256[name]

    def test_construct_is_the_same_in_fresh_processes(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for name in ("biplane-1", "biplane-2"):
            outs = [subprocess.run([sys.executable, "-m", "symdesign", "construct", name],
                                   env=env, capture_output=True, text=True,
                                   check=True).stdout for _ in range(2)]
            assert outs[0] == outs[1] and outs[0]


class TestEntries:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_entry_passes_all_claims(self, name):
        report = run_claims(entry(name))
        assert report, name
        failures = [(label, detail) for label, ok, detail in report if not ok]
        assert failures == []

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_verify_design_matches_the_pair_table(self, name):
        d = entry(name).design
        assert oracles.design_check(d.v, list(d.blocks)) == ("ok", tuple(verify_design(d)))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_claims_build_the_entry_chain_at_most_once(self, name, monkeypatch):
        """Every check reads one chain of the entry group; the hinted |Aut|
        search starts from that group instead of a copy of its generators.
        One build, or none when the entry's construction built it."""
        e = entry(name)
        built = "_pending" not in vars(e.group)
        builds = count_chain_builds(monkeypatch)
        run_claims(e)
        assert builds.count(e.group.generators) == (0 if built else 1)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_primitivity_is_having_no_minimal_block_system(self, name):
        e = entry(name)
        assert is_point_primitive(e.design, e.group) == (not minimal_block_systems(e.group))

    @pytest.mark.parametrize("name, digest", CHAIN_SHA256.items())
    def test_group_chains_are_pinned(self, name, digest):
        """Base, strong generators and transversal points, as recorded when
        every chain was still built at construction."""
        assert chain_digest(entry(name).group) == digest

    def test_every_entry_chain_is_pinned(self):
        assert sorted(CHAIN_SHA256) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("build, digest", [
        (lambda: automorphism_group(entry("d64-1").design),
         "3904c4c91e5e6f42d1782f46cf681556af2a625cd2d13fad2f3ea6eaa238003b"),
        (lambda: biplane_classes()[0][1],
         "08674ee7cc66a1d65e93c6f7460c951e5e131e14e14b2b0f70d1427715b896d8"),
        (lambda: biplane_classes()[1][1],
         "c433de7e35e2b2ce6c58107f8455b8d3d1fb0bce9e171cbebd61fe3747e3a6d2"),
        (lambda: biplane_classes()[2][1],
         "59c86db0149d56447f7831d9cbe1d875682d81dd556ec91e0187e5e9db979c96"),
    ], ids=["unhinted-aut-d64-1", "biplane-class-0", "biplane-class-1", "biplane-class-2"])
    def test_searched_group_chains_are_pinned(self, build, digest):
        """Chains of groups found by the automorphism search, recorded while
        chain elements were still image tuples."""
        assert chain_digest(build()) == digest

    def test_stabilizer_chains_are_pinned(self):
        """One stabilizer of the d64 group from each point_stabilizer path,
        recorded while chain elements were still image tuples."""
        g = entry("d64-1").group
        first = g.point_stabilizer(0)
        assert g.base[0] == 0 and first.order() == 672
        assert chain_digest(first) == \
            "483b449a092fe93ac972b4b9fc496a2585ba5f6758bae5ad2651d6eefe57e149"
        # 21 is in the first basic orbit: the levels are conjugated
        assert 21 in g._trans[0]
        assert chain_digest(g.point_stabilizer(21)) == \
            "b6991d853ec8eb2e7fdcd8ab5f059a64c0c9cb1ee01f1918401aae67850bcbcf"
        # 63 is moved by the stabilizer but outside its first basic orbit:
        # one rebuild with 63 as the first base point
        assert 63 not in first._trans[0] and any(h.img[63] != 63 for h in first.generators)
        rebuilt = first.point_stabilizer(63)
        assert rebuilt.order() == 12
        assert chain_digest(rebuilt) == \
            "8458972eea3fdda79c2464e90fa690773287256ca77bf775fe9639156aca3457"
        assert hashlib.sha256(repr([p.img for p in rebuilt.iter_elements()]).encode()
                              ).hexdigest() == \
            "f22ebacdd03f26bdbc7c964964dec8e16b74f5d2cd6d83a6c1a3d65376f02f0d"

    def test_corrupted_entry_fails_with_witness(self):
        good = entry("fano")
        blocks = list(good.design.blocks)
        blocks[0] = blocks[1]  # duplicate block breaks the pair balance
        bad = CatalogEntry(name="fano-corrupt",
                           design=IncidenceStructure(7, blocks),
                           group=good.group, claims=dict(good.claims))
        report = {label: (ok, detail) for label, ok, detail in run_claims(bad)}
        ok, detail = report["params"]
        assert not ok
        assert "pair" in detail or "DesignError" in detail

    def test_unknown_name_raises_with_choices(self):
        for name in ("petersen", "pg9_9", "complete(6,6)"):
            with pytest.raises(ValueError, match="available"):
                entry(name)

    def test_out_of_range_complete_name_gives_the_bounds(self):
        for name in ("complete(6,6)", "complete(120,3)", "complete(5,1)"):
            with pytest.raises(ValueError, match=r"k <= v-1 and v <= 100; available: d64-1"):
                entry(name)
        with pytest.raises(ValueError, match="^unknown catalog name 'petersen'; available"):
            entry("petersen")

    def test_placeholder_name_asks_for_integers(self, capsys):
        assert main(["claims", "complete(v,k)"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: catalog name 'complete(v,k)' is a placeholder: give "
                       "integers v and k, for example complete(6,3)\n")
        assert "available" not in err

    def test_complete_name_over_the_block_limit_is_out_of_range(self):
        """complete(20,10) has 184,756 blocks and stays buildable; the next
        sizes up are refused before any block is built."""
        assert comb(20, 10) <= COMPLETE_BLOCK_LIMIT < comb(21, 10)
        assert not catalog._complete_misfit(20, 10)
        for v, k in ((21, 10), (22, 11), (40, 20), (100, 50)):
            with pytest.raises(ValueError, match=r"^catalog name 'complete\(%d,%d\)' is out of "
                               r"range: complete\(%d,%d\) has more than 200000 blocks; "
                               r"available" % (v, k, v, k)):
                entry("complete(%d,%d)" % (v, k))

    def test_names_lists_every_buildable_entry(self):
        listed = names()
        assert "d64-1" in listed and "biplane-2" in listed
        assert "fano" in listed and "pg5_2_complement" in listed
        assert listed[-1] == "complete(v,k)"
        for name in listed[:-1]:
            assert entry(name).name == name

    def test_readme_lists_every_name(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listing = re.search(r"Catalog names: (.*?)\.\s", readme, re.DOTALL).group(1)
        assert set(re.findall(r"`([^`]+)`", listing)) == set(names())

    def test_entry_replace_round_trip(self):
        e = entry("fano")
        renamed = e._replace(name="fano-copy")
        assert renamed.name == "fano-copy" and e.name == "fano"
        assert renamed[1:] == e[1:]
        assert renamed._replace(name="fano") == e
        assert run_claims(renamed) == run_claims(e)

    def test_complete_design_dispatch_and_bounds(self):
        e = entry("complete(6,3)")
        assert e.claims["params"] == (6, 3, 4)
        assert verify_design(e.design).b == 20
        with pytest.raises(ValueError):
            entry("complete(6,6)")
        with pytest.raises(ValueError):
            entry("complete(120,3)")


class TestCliOutputsPinned:
    @pytest.mark.parametrize("name", list(CLI_SHA256))
    def test_construct_and_claims_outputs_are_pinned(self, name, capsys):
        got = []
        for argv in (["construct", name], ["claims", name],
                     ["claims", name, "--format", "json"]):
            code = main(argv)
            captured = capsys.readouterr()
            record = json.dumps([code, captured.out, captured.err])
            got.append(hashlib.sha256(record.encode()).hexdigest())
        assert tuple(got) == CLI_SHA256[name]


class TestSixtyFourPointDesigns:
    def test_generator_file_checksum(self):
        digest = hashlib.sha256(
            (catalog.DATA_DIR / "d64_generators.txt").read_bytes()).hexdigest()
        assert digest == GENERATOR_FILE_SHA256

    def test_base_blocks_partition_the_moved_points(self):
        """B1 and d64-2's base block, as printed, split the 56 points
        outside the class {1..8} of point 1; d64-2 develops the latter."""
        assert len(B1) == len(D64_2_BASE) == 28
        assert set(B1) | set(D64_2_BASE) == set(range(9, 65))
        assert set(B1) & set(D64_2_BASE) == set()
        assert tuple(x - 1 for x in D64_2_BASE) in entry("d64-2").design.blocks

    def test_pairwise_non_isomorphic(self):
        designs = [entry(name).design for name in ("d64-1", "d64-2", "s-minus-3")]
        for i in range(3):
            for j in range(i + 1, 3):
                assert are_isomorphic(designs[i], designs[j]) is None

    def test_quadric_zero_set_contains_the_origin(self):
        zeros = catalog._quadric_zero_set()
        assert len(zeros) == 28
        assert 0 in zeros


class TestDecompositions:
    """Flag-transitive imprimitive entries decompose onto symmetric-table rows."""

    @staticmethod
    def _row_tuples():
        out = set()
        for r in table_rows(100)["table5"]:
            mu = r.mu_s
            out.add((r.v0, r.k0, r.lambda0, r.r0, r.b0, r.theta_at(mu),
                     r.v1, r.k1, r.lambda1, r.r1, r.b1, mu,
                     r.v, r.k, r.lambda_at(mu)))
        return out

    @pytest.mark.parametrize("name", ["d64-1", "d64-2", "biplane-2"])
    def test_decomposition_lands_on_a_symmetric_row(self, name):
        e = entry(name)
        sigma = minimal_block_systems(e.group)[0]
        d = decompose(e.design, e.group, sigma)
        params = verify_design(e.design)
        got = (d.v0, d.k0, d.lambda0, d.d0_params.r, d.d0_params.b, d.theta,
               d.v1, d.k1, d.d1_params.lam, d.d1_params.r, d.d1_params.b,
               d.mu, params.v, params.k, params.lam)
        assert got in self._row_tuples()
        assert e.design.b == d.d1_params.b * d.mu

    def test_biplane2_decomposition_values(self):
        e = entry("biplane-2")
        sigma = minimal_block_systems(e.group)[0]
        d = decompose(e.design, e.group, sigma)
        assert (d.v0, d.v1, d.k0, d.k1, d.theta, d.mu) == (4, 4, 2, 3, 2, 4)
        assert d.lambda0 == 1
        assert d.d1_params.symmetric

    def test_non_flag_transitive_group_is_rejected(self):
        e = entry("s-minus-3")
        sigma = minimal_block_systems(e.group)[0]
        with pytest.raises(DecompositionError):
            decompose(e.design, e.group, sigma)


class TestLoadDesign:
    """A design file is loaded by design_from_json and checked by
    verify_design; claimed parameters are checked by run_claims."""

    def test_round_trip_with_matching_parameters(self):
        fano = entry("fano")
        loaded = design_from_json(design_to_json(fano.design))
        assert loaded.blocks == fano.design.blocks
        params = verify_design(loaded)
        assert (params.v, params.k, params.lam) == (7, 3, 1)
        external = CatalogEntry("external", loaded, PermGroup([], 7),
                                claims={"params": (7, 3, 1)})
        assert all(ok for _, ok, _ in run_claims(external))

    def test_parameter_mismatch_raises(self):
        fano = entry("fano")
        broken = design_to_json(IncidenceStructure(
            7, list(fano.design.blocks[:-1]) + [(0, 1, 2)]))
        with pytest.raises(DesignError):
            verify_design(design_from_json(broken))
        claimed = CatalogEntry("external", fano.design, PermGroup([], 7),
                               claims={"params": (7, 4, 2)})
        assert run_claims(claimed)[0] == (
            "params", False, "2-(7,3,1) design, b=7, r=3, symmetric=true")


@pytest.fixture(scope="module")
def witnesses():
    e = entry("s-minus-3")
    return (e, Perm(SEVEN_CYCLE_IMG), Perm(INVOLUTION_IMG),
            Perm(TRIPLING_IMG))


class TestQuadricFlagTransitiveSubgroups:
    """The quadric design admits proper flag-transitive imprimitive groups.

    The carried translation group is not flag-transitive, but joining it
    with a Frobenius group of order 56 from the point stabilizer is, and
    an order-3 extension of that join is as well.
    """

    def test_witnesses_are_automorphisms(self, witnesses):
        e, a, u, c = witnesses
        want = e.design.block_multiset()
        for p, order in ((a, 7), (u, 2), (c, 3)):
            assert p[0] == 0
            assert p.order() == order
            mapped = IncidenceStructure(
                64, [tuple(sorted(p[x] for x in b)) for b in e.design.blocks])
            assert mapped.block_multiset() == want

    def test_join_of_order_3584_is_flag_transitive_imprimitive(self, witnesses):
        e, a, u, _ = witnesses
        g = PermGroup(list(e.group.generators) + [a, u], 64)
        assert g.order() == 3584
        assert is_flag_transitive(e.design, g)
        assert not is_point_primitive(e.design, g)
        shapes = {(len(s), len(s[0])) for s in minimal_block_systems(g)}
        assert shapes == {(8, 8)}
        assert rank_and_subdegrees(g) == (4, (1, 7, 28, 28))

    def test_order_3_extension_reaches_10752(self, witnesses):
        e, a, u, c = witnesses
        assert (c.inv() * a * c).img == (a * a * a * a).img
        g = PermGroup(list(e.group.generators) + [a, u, c], 64)
        assert g.order() == 10752
        assert is_flag_transitive(e.design, g)
        assert not is_point_primitive(e.design, g)
        shapes = {(len(s), len(s[0])) for s in minimal_block_systems(g)}
        assert shapes == {(8, 8)}
