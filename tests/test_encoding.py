"""Distance-2 graphs, the peeling encoder, local covers, and the count bound."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltamatroid.setsystem import (
    SetSystem,
    SystemFormatError,
    even_parity_indicator,
    is_even,
    twist,
)
from deltamatroid.constructions import (
    random_stacked_layers,
    stacked_even_delta_matroid,
)
from deltamatroid.encoding import (
    BoundReport,
    EncodingError,
    EncodingRecord,
    Parity,
    _pair_masks,
    _peel,
    bell_number,
    component_alpha,
    component_sigma,
    decode_even_system,
    dumps_record,
    encode_even_system,
    even_masks,
    kw_reconstruct,
    load_record,
    loads_record,
    local_covers,
    reconstruct_system,
    s_length_bound,
    upper_bound_report,
)
from tests.conftest import (
    RECORD_TAMPERS,
    block_of,
    cache_systems,
    certified_flips,
    cover_certifies,
    cube_adjacency_matrix,
    distance_two_matrix_identity,
    kw_encode,
    list_scan_peel,
    local_cover,
    loop_decode,
    numeric_least_eigenvalue,
    oracle_certified_flips,
    oracle_local_cover,
    single_block_partition,
    tamper_record,
)


def popcount(x: int) -> int:
    return bin(x).count("1")


class TestHalvedCube:
    def test_small_vertices(self):
        assert even_masks(3) == (0b000, 0b011, 0b101, 0b110)

    def test_regular_of_choose_two(self):
        # the 2^(n-1) even masks, ascending; mask m sits at index m >> 1
        for n in range(2, 11):
            vertices = even_masks(n)
            assert vertices == tuple(m for m in range(1 << n) if popcount(m) % 2 == 0)
            assert [m >> 1 for m in vertices] == list(range(1 << (n - 1)))

    def test_adjacency_is_distance_two(self):
        # the neighbours m ^ pair are C(n, 2) distinct vertices at distance 2
        for n in range(2, 9):
            vertices = even_masks(n)
            pairs = _pair_masks(n)
            assert len(set(pairs)) == math.comb(n, 2)
            for m in vertices:
                neighbours = {m ^ f for f in pairs}
                assert len(neighbours) == math.comb(n, 2)
                assert all(popcount(m ^ w) == 2 for w in neighbours)
                assert all(vertices[w >> 1] == w for w in neighbours)

    def test_needs_two_elements(self):
        with pytest.raises(EncodingError):
            kw_encode(1, set())


class TestSpectrum:
    def test_matrix_identity(self):
        for n in range(2, 9):
            assert distance_two_matrix_identity(n)
        with pytest.raises(EncodingError):
            distance_two_matrix_identity(9)

    def test_common_neighbours(self):
        # two masks at distance 2 share exactly two cube neighbours
        a = cube_adjacency_matrix(4)
        sq = a @ a
        assert sq[0b0000, 0b0011] == 2
        assert sq[0b0000, 0b0000] == 4

    def test_matches_numeric_eigenvalues(self):
        # alpha = lambda/(C(n, 2) + lambda), lambda = -min eigenvalue of the
        # even distance-2 matrix, computed numerically
        for n in range(2, 12):
            lam = -numeric_least_eigenvalue(n)
            assert lam == n // 2
            assert component_alpha(n) == Fraction(lam, math.comb(n, 2) + lam)

    # str(alpha), str(sigma) as records have always written them: a one-ulp
    # drift in sigma at any n would change every record at that n
    @pytest.mark.parametrize("n, alpha, sigma", [
        (2, "1/2", "6243314768165359/18014398509481984"),
        (3, "1/4", "6243314768165359/18014398509481984"),
        (4, "1/4", "8763600222181975/36028797018963968"),
        (5, "1/6", "7199440171365477/36028797018963968"),
        (6, "1/6", "5549613127258097/36028797018963968"),
        (7, "1/8", "290017034190227/2251799813685248"),
        (8, "1/8", "7582476122586655/72057594037927936"),
        (9, "1/10", "6504851426339991/72057594037927936"),
        (10, "1/10", "2758826874650167/36028797018963968"),
        (11, "1/12", "4834285966514671/72057594037927936"),
        (12, "1/12", "2104028012655181/36028797018963968"),
        (13, "1/14", "3748236899082913/72057594037927936"),
        (14, "1/14", "831196953087601/18014398509481984"),
        (15, "1/16", "6000646447573745/144115188075855872"),
        (16, "1/16", "1349895032131027/36028797018963968"),
    ])
    def test_record_parameters_pinned(self, n, alpha, sigma):
        assert (str(component_alpha(n)), str(component_sigma(n))) == (alpha, sigma)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("parameter", [
        component_alpha,
        component_sigma,
        s_length_bound,
        lambda n: EncodingRecord(n, Parity.EVEN, (), (), ()),
    ], ids=["alpha", "sigma", "s_length_bound", "record"])
    def test_needs_two_elements(self, parameter, n):
        with pytest.raises(EncodingError):
            parameter(n)


class TestPeeling:
    @staticmethod
    def check_postconditions(n: int, l_set: set[int], s: tuple[int, ...], a: tuple[int, ...]):
        assert set(s) <= l_set
        covered = set(s) | set(a)
        for m in s:
            covered.update(m ^ f for f in _pair_masks(n))
        assert l_set <= covered
        assert len(a) <= component_alpha(n) * (1 << (n - 1))

    def test_empty_target(self):
        alpha = component_alpha(5)
        s, a = kw_encode(5, set())
        assert s == ()
        expected_removals = math.ceil((1 - alpha) * 16)
        assert len(a) == 16 - expected_removals
        assert kw_reconstruct(5, ()) == a

    def test_full_target(self):
        l_set = set(even_masks(5))
        s, a = kw_encode(5, l_set)
        self.check_postconditions(5, l_set, s, a)
        assert len(s) <= s_length_bound(5)

    def test_random_targets_many_sizes(self):
        rng = random.Random(424242)
        for n in (5, 6, 7):
            for _ in range(60):
                l_set = {v for v in even_masks(n) if rng.random() < rng.random()}
                s, a = kw_encode(n, l_set)
                self.check_postconditions(n, l_set, s, a)
                assert len(s) <= s_length_bound(n)
                assert kw_reconstruct(n, s) == a

    def test_target_must_be_vertices(self):
        with pytest.raises(EncodingError):
            kw_encode(4, {0b0001})  # odd size
        with pytest.raises(EncodingError):
            kw_encode(4, {0b10001})  # even size, but not below 2^4
        with pytest.raises(EncodingError):
            kw_encode(4, {-3})

    def test_reconstruct_rejects_reordered_s(self):
        s, _ = kw_encode(6, set(even_masks(6)))
        assert len(s) >= 2
        swapped = (s[1], s[0], *s[2:])
        with pytest.raises(EncodingError, match="not reproduced"):
            kw_reconstruct(6, swapped)

    def test_reconstruct_rejects_unreachable_claim(self):
        # appending a vertex that the replay removes as someone's neighbour
        # (it never shows up as a max-degree pick) cannot be selected
        s, a = kw_encode(6, set(even_masks(6)))
        # L is every vertex, so each examined vertex was selected into S
        swallowed = next(v for v in even_masks(6) if v not in s and v not in a)
        with pytest.raises(EncodingError, match="not reproduced"):
            kw_reconstruct(6, s + (swallowed,))

    def test_identical_s_gives_identical_a(self):
        rng = random.Random(7)
        by_s: dict[tuple[int, ...], tuple[int, ...]] = {}
        for _ in range(200):
            l_set = {v for v in even_masks(6) if rng.random() < 0.1}
            s, a = kw_encode(6, l_set)
            if s in by_s:
                assert by_s[s] == a
            by_s[s] = a
        assert len(by_s) < 200  # collisions actually occurred

    def test_alpha_and_length_values(self):
        assert component_alpha(4) == Fraction(1, 4)
        assert component_alpha(5) == Fraction(1, 6)
        assert s_length_bound(4) == math.ceil(math.log(7) / 8 * 8)


def infeasible_even(d: SetSystem) -> set[int]:
    """The peel target of encode_even_system: the infeasible even masks of
    d, after twisting an all-odd d by {1}."""
    if popcount((d.bits & -d.bits).bit_length() - 1) & 1:
        d = twist(d, 1)
    return {m for m in even_masks(d.n) if not (d.bits >> m) & 1}


class TestPeelOracle:
    """The numpy peel against the list scan of tests/conftest.py, which
    removes one vertex at a time and scans for the maximum degree."""

    def test_all_even_delta_matroids_small(self, levels5):
        checked = 0
        for n in (3, 4, 5):
            vectors = levels5[n].vectors
            even = np.array(even_parity_indicator(n), dtype=vectors.dtype)
            uniform = ((vectors & even) == 0) | ((vectors & ~even) == 0)
            for v in vectors[uniform].tolist():
                target = infeasible_even(SetSystem(n, v))
                assert _peel(n, target) == list_scan_peel(n, target), (n, v)
                checked += 1
        assert checked == 30 + 294 + 7966

    def test_random_targets(self):
        rng = random.Random(90210)
        for n in range(2, 13):
            vertices = even_masks(n)
            targets = [set(), set(vertices)]
            for _ in range(6 if n < 10 else 2):
                density = rng.random()
                targets.append({v for v in vertices if rng.random() < density})
            for target in targets:
                assert _peel(n, target) == list_scan_peel(n, target), (n, len(target))

    @pytest.mark.parametrize("n, seed", [
        (14, 0),
        (14, 1),
        pytest.param(16, 0, marks=pytest.mark.skipif(
            not os.environ.get("DM_SLOW_TESTS"),
            reason="list-scan peel at n = 16 (about 10 s); set DM_SLOW_TESTS=1",
        )),
    ])
    def test_stacked_even(self, n, seed):
        target = infeasible_even(stacked_even_delta_matroid(n, random_stacked_layers(n, seed)))
        assert _peel(n, target) == list_scan_peel(n, target)


def _has_cover(d: SetSystem, x: int) -> bool:
    """Whether the set-based oracle finds a sound local cover at X."""
    try:
        oracle_local_cover(d, x)
    except EncodingError:
        return False
    return True


class TestLocalCover:
    def test_worked_example(self):
        d = SetSystem.from_sets(4, [[]])
        p = local_cover(d, 0b0011)
        assert p == (0, 1, 2, 0, 0)  # blocks {0, 3, 4}, {1}, {2}
        # only removing both marked elements reaches the feasible empty set
        assert cover_certifies(p, 1, 2)
        for a, b in combinations(range(1, 5), 2):
            if (a, b) != (1, 2):
                assert not cover_certifies(p, a, b)

    @pytest.mark.parametrize("sets, flaw", [
        ([[1, 2], [3, 4]], "not transitive"),  # 3 and 4 parallel to 1, but {3, 4} a basis
        ([[1, 2], [3, 4], [1, 3]], "cross-class"),  # classes {1, 4} and {2, 3}, but {2, 4} no basis
    ])
    def test_rejects_non_matroid_neighbourhood(self, sets, flaw):
        # even systems that are not delta-matroids: the feasible pairs
        # next to the empty set are not the bases of a rank-2 matroid
        d = SetSystem.from_sets(4, sets)
        with pytest.raises(EncodingError, match="not the bases of a rank-2 matroid"):
            local_cover(d, 0)
        # the same sets on six elements: the empty set's flawed neighbourhood
        # is refused among sets whose covers are sound
        d = SetSystem.from_sets(6, sets)
        valid = tuple(x for x in even_masks(6)[1:] if not d.has_mask(x) and _has_cover(d, x))
        covers = tuple(oracle_local_cover(d, x) for x in valid)
        assert any(len(set(cover)) > 1 for cover in covers)
        assert local_covers(d, valid) == covers
        for xs in (valid + (0,), (0,) + valid, valid[:3] + (0,) + valid[3:]):
            with pytest.raises(EncodingError, match="not the bases of a rank-2 matroid"):
                local_covers(d, xs)

    def test_far_sets_give_single_block(self):
        d = SetSystem.from_sets(4, [[]])
        assert local_cover(d, 0b1111) == single_block_partition(4)

    def test_input_validation(self):
        d = SetSystem.from_sets(4, [[]])
        with pytest.raises(EncodingError):
            local_cover(d, 0b0000)  # feasible
        with pytest.raises(EncodingError):
            local_cover(d, 0b0001)  # odd size
        with pytest.raises(EncodingError):
            local_cover(SetSystem.from_sets(2, [[], [1]]), 0b11)  # not even
        with pytest.raises(EncodingError):
            local_cover(SetSystem.from_sets(2, [[1]]), 0b11)  # all-odd

    def test_certifies_validation(self):
        p = single_block_partition(4)
        with pytest.raises(EncodingError):
            cover_certifies(p, 1, 1)
        with pytest.raises(EncodingError):
            cover_certifies(p, 0, 2)
        with pytest.raises(EncodingError):
            cover_certifies(p, 1, 5)
        with pytest.raises(EncodingError):
            block_of(p, 5)

    def test_certifies_examples(self):
        assert not cover_certifies(single_block_partition(4), 1, 2)
        p = (0, 1, 2, 2, 2)  # blocks {0}, {1}, {2, 3, 4}
        assert cover_certifies(p, 1, 2)
        assert not cover_certifies(p, 2, 3)
        q = (0, 1, 1, 0, 4)  # blocks {0, 3}, {1, 2}, {4}
        assert block_of(q, 1) == block_of(q, 2) == frozenset({1, 2})
        assert not cover_certifies(q, 1, 2)  # same block
        assert not cover_certifies(q, 3, 4)  # z-block member
        assert cover_certifies(q, 1, 4)

    def test_exhaustive_classification_small(self, levels5):
        # every infeasible even X of every even delta-matroid on 2..5
        # elements, twisted to all-even, in one batch per system: the covers
        # equal the set-based oracle's, and each certifies exactly the pairs
        # {a, b} with X ^ {a, b} feasible
        for n in (2, 3, 4, 5):
            pairs = _pair_masks(n)
            v = levels5[n].vectors
            ev = v.dtype.type(even_parity_indicator(n))
            for bits in v[((v & ev) == 0) | ((v & ~ev) == 0)].tolist():
                s = SetSystem(n, bits)
                if popcount(next(s.feasible_masks())) & 1:
                    s = twist(s, 1)
                xs = tuple(x for x in even_masks(n) if not s.has_mask(x))
                covers = local_covers(s, xs)
                assert covers == tuple(oracle_local_cover(s, x) for x in xs), bits
                for x, cover in zip(xs, covers):
                    flips = {f for f in pairs if s.has_mask(x ^ f)}
                    assert certified_flips(cover) == flips == oracle_certified_flips(cover), (bits, x)


def labellings(low: int, extra: int):
    """Lists of n + 1 ints in low..n + extra, for n = 2..16."""
    return st.integers(2, 16).flatmap(
        lambda n: st.lists(st.integers(low, n + extra), min_size=n + 1, max_size=n + 1)
    )


class TestRecords:
    def test_trivial_system(self):
        d = SetSystem.from_masks(3, [m for m in range(8) if popcount(m) % 2 == 0])
        record = encode_even_system(d)
        assert record.s == ()
        assert record.residual == ()
        assert record.parity is Parity.EVEN
        assert decode_even_system(record) == ()
        assert reconstruct_system(record) == d

    def test_parity_flag_for_all_odd(self):
        d = SetSystem.from_sets(3, [[1], [2], [3]])
        record = encode_even_system(d)
        assert record.parity is Parity.ODD
        assert reconstruct_system(record) == d

    def test_non_even_rejected(self):
        with pytest.raises(EncodingError):
            encode_even_system(SetSystem.from_sets(2, [[], [1]]))

    def test_needs_two_elements(self):
        with pytest.raises(EncodingError):
            encode_even_system(SetSystem.from_sets(1, [[]]))

    def test_round_trip_exhaustive_small(self, levels4):
        for n in (2, 3, 4):
            for s in cache_systems(levels4[n]):
                if not is_even(s):
                    continue
                record = encode_even_system(s)
                assert reconstruct_system(record) == s

    def test_round_trip_random_stacked(self):
        for seed in range(60):
            d = stacked_even_delta_matroid(6, random_stacked_layers(6, seed))
            record = encode_even_system(d)
            assert record.sigma == component_sigma(6)
            assert reconstruct_system(record) == d

    def test_serialization_round_trip(self, tmp_path):
        d = stacked_even_delta_matroid(5, random_stacked_layers(5, 17))
        record = encode_even_system(d)
        again = loads_record(dumps_record(record))
        assert again == record
        path = tmp_path / "record.json"
        path.write_text(dumps_record(record))
        assert load_record(path) == record
        assert reconstruct_system(again) == d

    def test_serialization_rejects_junk(self):
        with pytest.raises(SystemFormatError):
            loads_record("not json at all {")
        with pytest.raises(SystemFormatError):
            loads_record("[1, 2, 3]")
        with pytest.raises(SystemFormatError):
            loads_record('{"n": 4}')
        with pytest.raises(SystemFormatError):
            loads_record(
                '{"n": 1, "parity": "even", "alpha": "1/4", "sigma": "1/2",'
                ' "s": [], "covers": [], "residual": []}'
            )

    @pytest.mark.parametrize("field, value", [("sigma", "7/3"), ("alpha", "1/100")])
    def test_parameters_must_match_n(self, field, value):
        record = encode_even_system(stacked_even_delta_matroid(6, random_stacked_layers(6, 0)))
        doc = json.loads(dumps_record(record))
        assert loads_record(json.dumps(doc)) == record
        doc[field] = value
        with pytest.raises(SystemFormatError, match=field):
            loads_record(json.dumps(doc))

    @pytest.mark.parametrize("how", RECORD_TAMPERS)
    def test_rejects_coerced_values(self, how):
        # the field values must be JSON integers and the exact parameter
        # strings, not anything that converts to them
        record = encode_even_system(stacked_even_delta_matroid(7, random_stacked_layers(7, 0)))
        doc = json.loads(dumps_record(record))
        assert loads_record(json.dumps(doc)) == record
        with pytest.raises(SystemFormatError):
            loads_record(json.dumps(tamper_record(doc, how)))

    # SHA-256 of dumps_record(encode_even_system(...)) for seeded stacked-even
    # systems: records must stay byte-identical across refactors
    @pytest.mark.parametrize("n, seed, digest", [
        (6, 0, "23fb8f9be9a3664d504bb039157818d424242fd9000516fd918e14cc19886bb6"),
        (6, 1, "f1d7b86472055e67533f23ad835c16325636952287f25114b08fc04ec01a5855"),
        (8, 0, "e1616abed8fe5fc6bb8de8cee2d6fd1de5658747b310597fc04ed727ee918cf0"),
        (8, 1, "04c77ffa9d7c2e66cd913d3a2af6df482fb8c13b8db9958b8dc312c94b054e71"),
        (10, 0, "09491728f610ec3ddbb223907081632d0ce86b7d8ebec62130090c9d0c4c13b6"),
        (10, 1, "ec570055f42f7448603fb772ea45c75eccfe8ab227ab1504131d661950addd83"),
        (12, 0, "7b2001efa91747fcc05faaea472e785e54c38ab4ce8b6aa456c823db69dbdcc9"),
        (13, 0, "5e1f2742ceed39393e2f5adf0fe1de917284ad3c695ccf2d7f919458a370118b"),
        (14, 0, "7b30e1cdcad064d26a8c6fe019c1f8fa66521d03afd3aeb6374938af9d1d14ec"),
        (16, 0, "cdb5a245c60a79c1cff5865d72fbfbcc7eb85423b2633b8fae9df9da6e69f1d6"),
    ])
    def test_record_bytes_pinned(self, n, seed, digest):
        d = stacked_even_delta_matroid(n, random_stacked_layers(n, seed))
        text = dumps_record(encode_even_system(d))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_all_odd_record_bytes_pinned(self):
        d = twist(stacked_even_delta_matroid(9, random_stacked_layers(9, 0)), 1)
        record = encode_even_system(d)
        assert record.parity is Parity.ODD
        digest = hashlib.sha256(dumps_record(record).encode("utf-8")).hexdigest()
        assert digest == "f0987d4fdd3803fedbc05fc6f195a0234df1ea62ecad15b5985e97d9de2dd6af"

    @pytest.mark.parametrize("n", range(6, 15))
    def test_covers_and_decode_match_oracles(self, n):
        # the batched covers and flips against one cover at a time over sets
        d = stacked_even_delta_matroid(n, random_stacked_layers(n, 0))
        record = encode_even_system(d)
        assert record.s
        assert record.covers == tuple(oracle_local_cover(d, x) for x in record.s)
        assert decode_even_system(record) == loop_decode(record)

    def test_record_invariants(self):
        with pytest.raises(EncodingError):
            EncodingRecord(4, Parity.EVEN, (0b0011,), (), ())
        too_many = tuple((0b0011,)) * (s_length_bound(4) + 1)
        with pytest.raises(EncodingError):
            EncodingRecord(
                4, Parity.EVEN,
                too_many, tuple(single_block_partition(4) for _ in too_many), (),
            )
        for m in (3, 5):
            # a cover over another ground set would decode to other flips
            with pytest.raises(EncodingError, match="block-id row over 0..4"):
                EncodingRecord(4, Parity.EVEN, (0b0011,), (single_block_partition(m),), ())

    @given(labellings(-1, 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_record_accepts_exactly_canonical_rows(self, labels, canonicalize):
        # a row is canonical when each entry is the first position holding
        # its value; labels.index canonicalizes any labelling
        n = len(labels) - 1
        row = tuple(labels.index(x) for x in labels) if canonicalize else tuple(labels)
        canonical = row == tuple(row.index(x) for x in row)
        try:
            EncodingRecord(n, Parity.EVEN, (0b11,), (row,), ())
        except EncodingError:
            assert not canonical, row
        else:
            assert canonical, row

    @given(labellings(0, 0))
    @settings(max_examples=200, deadline=None)
    def test_blocks_round_trip(self, labels):
        # a random set partition of 0..n, from a random labelling: written
        # as its blocks sorted, it parses back to its row and writes the
        # same text again
        n = len(labels) - 1
        partition = {frozenset(e for e, y in enumerate(labels) if y == x) for x in labels}
        row = tuple(labels.index(x) for x in labels)
        text = dumps_record(EncodingRecord(n, Parity.EVEN, (0b11,), (row,), ()))
        assert json.loads(text)["covers"] == [sorted(sorted(b) for b in partition)]
        again = loads_record(text)
        assert again.covers == (row,)
        assert dumps_record(again) == text

    def test_decode_rejects_residual_outside_residue(self):
        d = stacked_even_delta_matroid(5, random_stacked_layers(5, 3))
        record = encode_even_system(d)
        residue = set(kw_reconstruct(5, record.s))
        outside = next(
            m for m in even_masks(5)
            if m not in residue and m not in record.residual
        )
        bad = EncodingRecord(
            record.n, record.parity,
            record.s, record.covers, record.residual + (outside,),
        )
        with pytest.raises(EncodingError):
            decode_even_system(bad)


class TestBound:
    def test_bell_numbers(self):
        assert [bell_number(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]
        assert bell_number(3) == 5 <= 27
        with pytest.raises(EncodingError):
            bell_number(-1)

    def test_report_fields(self):
        report = upper_bound_report(4)
        assert isinstance(report, BoundReport)
        assert report.alpha == Fraction(1, 4)
        assert upper_bound_report(5).alpha == Fraction(1, 6)
        assert report.bell_bound == bell_number(5)
        assert Fraction(report.sigma) <= report.sigma_prime
        assert report.sigma_prime <= Fraction(report.sigma) + Fraction(1, 4)

    def test_requires_n_at_least_three(self):
        with pytest.raises(EncodingError):
            upper_bound_report(2)

    def test_dominates_exact_counts(self):
        for n, e in {3: 30, 4: 294, 5: 7966}.items():
            assert math.log2(e) <= upper_bound_report(n).log_e_n_bound + 1e-9
