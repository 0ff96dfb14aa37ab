"""Catalog entries: constructions, claim checks, and cross-module identities."""

import hashlib
import json
from math import comb

import pytest

from symdesign import catalog
from symdesign.catalog import (
    B1,
    B2,
    COMPLETE_BLOCK_LIMIT,
    CatalogEntry,
    biplane_classes,
    build_biplane,
    build_complete,
    build_d64,
    build_s_minus_3,
    entry,
    names,
    order16_groups,
    order16_specs,
    run_claims,
)
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
from symdesign.diffset import RegularAction, develop_difference_set, difference_sets
from symdesign.enumeration import table_rows
from symdesign.iso import are_isomorphic
from symdesign.perm import (
    Perm,
    PermGroup,
    minimal_block_systems,
    rank_and_subdegrees,
)

GENERATOR_FILE_SHA256 = \
    "72029aac7da24038e2cc228d2103873202cb18c9a6e7b3c926f133358ddb3ac6"

# sha256 digests recorded before the order-16 groups were read from one
# presentation table: the generator images of the fourteen regular
# representations, and the two biplane entries' design JSON
REGULAR_REPS_SHA256 = \
    "57729afc35e76d630d7442b42e3630cc6674149bf868691ef8ee0560f6699027"
BIPLANE_JSON_SHA256 = {
    "biplane-1": "09c5158f10cccbb0a3bb4bafd15907ee8f0fcae15932fca549a1c6906b920098",
    "biplane-2": "21c2c5322f611415d79c4027548b152e7c175f40ccc20284f573df7a0c64d05a",
}

# per-group hit counts of the exhaustive 6-subset scan; the two zeros are
# the classical non-existence cases among the fourteen groups of order 16
DIFFERENCE_SET_COUNTS = {
    "C16": 0,
    "C8xC2": 192,
    "C4xC4": 192,
    "C4xC2xC2": 448,
    "C2^4": 448,
    "D16": 0,
    "SD16": 128,
    "Q16": 256,
    "M16": 64,
    "D8xC2": 192,
    "Q8xC2": 704,
    "C4:C4": 192,
    "(C4xC2):C2": 192,
    "C4oD8": 320,
}

ALL_NAMES = ([name for name in names() if name != "complete(v,k)"]
             + ["complete(6,3)", "complete(8,7)"])


class TestOrder16Groups:
    def test_axioms_hold_for_every_spec(self):
        for label, elements, mul, gens in order16_specs():
            assert len(elements) == len(set(elements)) == 16, label
            idents = [e for e in elements
                      if all(mul(e, x) == x and mul(x, e) == x for x in elements)]
            assert len(idents) == 1, label
            for x in elements:
                assert any(mul(x, y) == idents[0] for y in elements), label
            for x in elements:
                for y in elements:
                    assert mul(x, y) in set(elements), label
                    for z in elements:
                        assert mul(mul(x, y), z) == mul(x, mul(y, z)), label
            assert all(g in set(elements) for g in gens), label

    def test_fourteen_pairwise_distinct_groups(self):
        seen = {}
        for label, group in order16_groups():
            assert group.order() == 16 and group.is_regular()
            els = list(group.iter_elements())
            inv = (tuple(sorted(p.order() for p in els)),
                   sum(1 for p in els for q in els if p * q == q * p),
                   sum(1 for p in els if all(p * q == q * p for q in els)),
                   len({p * p for p in els}))
            assert inv not in seen, (label, seen.get(inv))
            seen[inv] = label
        assert len(seen) == 14

    def test_regular_representations_are_pinned(self):
        images = json.dumps([[label, [list(g.img) for g in group.generators]]
                             for label, group in order16_groups()])
        assert hashlib.sha256(images.encode()).hexdigest() == REGULAR_REPS_SHA256


class TestBiplaneSearch:
    def test_difference_set_counts_per_group(self):
        got = {}
        for label, group in order16_groups():
            action = RegularAction.from_group(group)
            got[label] = len(difference_sets(action, 6, 2))
        assert got == DIFFERENCE_SET_COUNTS

    def test_elementary_abelian_counts_match_translate_oracle(self):
        # independent route: |D meet (D + c)| = 2 for every nonzero c,
        # computed by direct xor translation of the point set
        import itertools
        oracle = []
        for d in itertools.combinations(range(16), 6):
            ds = set(d)
            if all(len(ds & {p ^ c for p in ds}) == 2 for c in range(1, 16)):
                oracle.append(d)
        assert len(oracle) == 448
        label, group = next(
            (l, g) for l, g in order16_groups() if l == "C2^4")
        action = RegularAction.from_group(group)
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

    def test_each_class_group_is_computed_once(self, monkeypatch):
        from symdesign import iso
        calls = []

        def counted(s, known=None):
            calls.append(s)
            return real(s, known)

        real = iso.automorphism_group
        monkeypatch.setattr(iso, "automorphism_group", counted)
        monkeypatch.setattr(catalog, "automorphism_group", counted)
        classes = biplane_classes.__wrapped__()
        assert len(calls) == 3
        assert [aut.order() for _, aut in classes] == [11520, 768, 384]

    def test_one_development_per_representative(self, monkeypatch):
        # only sets through the base point are developed, and only the 3
        # class founders are re-checked as difference sets
        calls = {"develop": 0, "check": 0}

        def counting(key, real):
            def wrapped(*args):
                calls[key] += 1
                return real(*args)
            return wrapped

        monkeypatch.setattr(catalog, "develop_difference_set",
                            counting("develop", catalog.develop_difference_set))
        monkeypatch.setattr(catalog, "is_difference_set",
                            counting("check", catalog.is_difference_set))
        biplane_classes.__wrapped__()
        assert calls == {"develop": 1248, "check": 3}

    def test_smallest_blocks_through_base_match_distinct_developments(self):
        for label, group in order16_groups():
            action = RegularAction.from_group(group)
            found = difference_sets(action, 6, 2)
            blocks = {d: frozenset(develop_difference_set(action, d).blocks)
                      for d in found}
            reps = [d for d in found if action.base in d and d == min(blocks[d])]
            distinct = set(blocks.values())
            assert len(reps) == len(distinct), label
            assert {blocks[d] for d in reps} == distinct, label

    def test_exactly_two_classes_are_flag_transitive(self):
        from symdesign.design import is_flag_transitive
        flags = [is_flag_transitive(dev, aut) for dev, aut in biplane_classes()]
        assert flags == [True, True, False]

    def test_builder_rejects_other_indices(self):
        with pytest.raises(ValueError):
            build_biplane(3)

    @pytest.mark.parametrize("name", sorted(BIPLANE_JSON_SHA256))
    def test_biplane_designs_are_pinned(self, name):
        text = design_to_json(entry(name).design)
        assert hashlib.sha256(text.encode()).hexdigest() == BIPLANE_JSON_SHA256[name]


class TestEntries:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_entry_passes_all_claims(self, name):
        report = run_claims(entry(name))
        assert report, name
        failures = [(label, detail) for label, ok, detail in report if not ok]
        assert failures == []

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
            with pytest.raises(ValueError, match="more than 200000 blocks"):
                build_complete(v, k)

    def test_names_lists_every_buildable_entry(self):
        listed = names()
        assert "d64-1" in listed and "biplane-2" in listed
        assert "fano" in listed and "pg5_2_complement" in listed
        assert listed[-1] == "complete(v,k)"
        for name in listed[:-1]:
            assert entry(name).name == name

    def test_complete_design_dispatch_and_bounds(self):
        e = entry("complete(6,3)")
        assert e.claims["params"] == (6, 3, 4)
        assert verify_design(e.design).b == 20
        with pytest.raises(ValueError):
            build_complete(6, 6)
        with pytest.raises(ValueError):
            build_complete(120, 3)


class TestSixtyFourPointDesigns:
    def test_generator_file_checksum(self):
        digest = hashlib.sha256(
            (catalog.DATA_DIR / "d64_generators.txt").read_bytes()).hexdigest()
        assert digest == GENERATOR_FILE_SHA256

    def test_base_blocks_partition_the_moved_points(self):
        assert len(B1) == len(B2) == 28
        assert set(B1) | set(B2) == set(range(9, 65))
        assert set(B1) & set(B2) == set()

    def test_pairwise_non_isomorphic(self):
        designs = [build_d64(1).design, build_d64(2).design,
                   build_s_minus_3().design]
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


# Witnesses for proper flag-transitive subgroups of the full automorphism
# group of the quadric design.  Found once by randomized search inside the
# stabilizer of point 0 and frozen here as explicit images; the tests below
# re-verify every claimed property from scratch.
SEVEN_CYCLE_IMG = (
    0, 50, 1, 51, 8, 58, 9, 59, 45, 31, 44, 30, 37, 23, 36, 22,
    25, 43, 24, 42, 17, 35, 16, 34, 52, 6, 53, 7, 60, 14, 61, 15,
    56, 10, 57, 11, 48, 2, 49, 3, 21, 39, 20, 38, 29, 47, 28, 46,
    33, 19, 32, 18, 41, 27, 40, 26, 12, 62, 13, 63, 4, 54, 5, 55,
)
INVOLUTION_IMG = (
    0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15,
    16, 24, 20, 28, 18, 26, 22, 30, 17, 25, 21, 29, 19, 27, 23, 31,
    32, 40, 36, 44, 34, 42, 38, 46, 33, 41, 37, 45, 35, 43, 39, 47,
    48, 56, 52, 60, 50, 58, 54, 62, 49, 57, 53, 61, 51, 59, 55, 63,
)
TRIPLING_IMG = (
    0, 19, 17, 2, 8, 27, 25, 10, 28, 15, 13, 30, 20, 7, 5, 22,
    16, 3, 1, 18, 24, 11, 9, 26, 12, 31, 29, 14, 4, 23, 21, 6,
    42, 57, 59, 40, 34, 49, 51, 32, 54, 37, 39, 52, 62, 45, 47, 60,
    58, 41, 43, 56, 50, 33, 35, 48, 38, 53, 55, 36, 46, 61, 63, 44,
)


@pytest.fixture(scope="module")
def witnesses():
    e = build_s_minus_3()
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
