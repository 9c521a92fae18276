"""Constructions: cube complements, cut samples, stable sets, paving, stacking."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from deltamatroid.setsystem import (
    ImproperSystemError,
    SetSystem,
    is_delta_matroid,
    is_even,
)
from deltamatroid.constructions import (
    ConstructionError,
    DegreeViolationError,
    LayerError,
    SparsePavingSpec,
    StabilityViolationError,
    complement_delta_matroid,
    cut_count_lower_bound,
    cut_count_lower_bound_exact,
    even_lower_bound,
    graham_sloane_stable_set,
    hypercube_neighbors,
    qn_degree,
    random_residue_stable_subset,
    random_stable_set,
    random_stacked_layers,
    sample_cut_construction,
    sample_cut_vertices,
    sparse_paving_matroid,
    stacked_even_delta_matroid,
)
from tests.conftest import (
    cut_bound_certifies,
    dual,
    evens_plus_all_odds,
    is_matroid,
    oracle_is_delta_matroid,
)


def popcount(x: int) -> int:
    return bin(x).count("1")


class TestCubeBasics:
    def test_neighbors(self):
        assert sorted(hypercube_neighbors(0b101, 3)) == [0b001, 0b100, 0b111]

    def test_max_induced_degree(self):
        assert qn_degree(SetSystem.from_masks(2, [0b00, 0b01, 0b11])) == 2
        assert qn_degree(SetSystem.from_masks(2, [0b00, 0b11])) == 0
        assert qn_degree(SetSystem.from_masks(2, [0b00, 0b01])) == 1
        assert qn_degree(SetSystem(3, 0)) == 0

    def test_degree_random_cross_check(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 6)
            members = frozenset(m for m in range(1 << n) if rng.random() < 0.4)
            v = SetSystem.from_masks(n, members)
            expected = max(
                (
                    sum(1 for u in hypercube_neighbors(m, n) if u in members)
                    for m in members
                ),
                default=0,
            )
            assert qn_degree(v) == expected


class TestComplement:
    def test_two_element_example(self):
        v = SetSystem.from_masks(2, [0b00, 0b11])
        d = complement_delta_matroid(v)
        assert sorted(d.feasible_masks()) == [0b01, 0b10]
        assert is_delta_matroid(d)

    def test_empty_set_gives_power_set(self):
        d = complement_delta_matroid(SetSystem(3, 0))
        assert d.num_feasible == 8
        assert is_delta_matroid(d)

    def test_degree_one_mode_accepts_a_matching(self):
        v = SetSystem.from_masks(2, [0b00, 0b01])
        d = complement_delta_matroid(v)
        assert sorted(d.feasible_masks()) == [0b10, 0b11]
        assert is_delta_matroid(d)

    def test_degree_one_mode_rejects_a_path(self):
        v = SetSystem.from_masks(2, [0b00, 0b01, 0b11])
        with pytest.raises(DegreeViolationError):
            complement_delta_matroid(v)

    def test_full_cover_is_improper(self):
        # only Q_0 and Q_1 can be fully covered at induced degree <= 1
        for v in (SetSystem.from_masks(0, [0]), SetSystem.from_masks(1, [0, 1])):
            with pytest.raises(ImproperSystemError):
                complement_delta_matroid(v)

    @pytest.mark.parametrize("n, expected", [(3, 77), (4, 3055)])
    def test_every_degree_one_complement_is_delta_matroid(self, n, expected):
        # every vertex set of Q_n of induced degree <= 1: along each
        # coordinate i, ``along`` marks the members whose i-neighbour is a
        # member too, and no member may be marked along two coordinates
        lower = [
            sum(1 << m for m in range(1 << n) if not m >> i & 1) for i in range(n)
        ]
        count = 0
        for bits in range(1 << (1 << n)):
            marked = 0
            for i, low in enumerate(lower):
                w = 1 << i
                along = bits & (((bits & low) << w) | ((bits >> w) & low))
                if marked & along:
                    break
                marked |= along
            else:
                d = complement_delta_matroid(SetSystem(n, bits))
                assert oracle_is_delta_matroid(n, d.feasible_masks())
                count += 1
        assert count == expected

    def test_every_stable_complement_in_q3_is_delta_matroid(self):
        count = 0
        for bits in range(1 << 8):
            members = frozenset(m for m in range(8) if bits >> m & 1)
            if any(
                u in members for m in members for u in hypercube_neighbors(m, 3)
            ):
                continue
            d = complement_delta_matroid(SetSystem(3, bits))
            assert oracle_is_delta_matroid(3, list(d.feasible_masks()))
            count += 1
        assert count > 1


class TestEvensPlusOdds:
    def test_examples(self):
        d = evens_plus_all_odds(2, SetSystem(2, 0))
        assert sorted(d.feasible_masks()) == [0b01, 0b10]
        d = evens_plus_all_odds(2, SetSystem.from_masks(2, [0b00]))
        assert sorted(d.feasible_masks()) == [0b00, 0b01, 0b10]
        d = evens_plus_all_odds(2, SetSystem.from_masks(2, [0b00, 0b11]))
        assert d.num_feasible == 4

    def test_rejects_odd_masks_in_a(self):
        with pytest.raises(ConstructionError):
            evens_plus_all_odds(2, SetSystem.from_masks(2, [0b01]))

    def test_rejects_mismatched_ground_set(self):
        with pytest.raises(ConstructionError):
            evens_plus_all_odds(3, SetSystem(2, 0))

    def test_distinct_and_valid(self):
        n = 3
        evens = [m for m in range(1 << n) if popcount(m) % 2 == 0]
        seen = set()
        for bits in range(1 << len(evens)):
            a = SetSystem.from_masks(
                n, (evens[i] for i in range(len(evens)) if bits >> i & 1)
            )
            d = evens_plus_all_odds(n, a)
            assert d.bits not in seen
            seen.add(d.bits)
            assert oracle_is_delta_matroid(n, list(d.feasible_masks()))
        assert len(seen) == 1 << (1 << (n - 1))


class TestCutSamples:
    def test_vertices_have_degree_at_most_one(self):
        for seed in range(30):
            assert qn_degree(sample_cut_vertices(4, 2, seed)) <= 1

    def test_construction_passes_axiom(self):
        for seed in range(30):
            d = sample_cut_construction(5, 3, seed)
            assert is_delta_matroid(d)

    def test_cut_edges_only(self):
        n, cut = 4, 2
        for seed in range(20):
            v = sample_cut_vertices(n, cut, seed)
            for m in v.feasible_masks():
                for u in hypercube_neighbors(m, n):
                    if v.has_mask(u):
                        assert (m ^ u) == 1 << (cut - 1)

    def test_parity_sides_match_cut_bit(self):
        for seed in range(20):
            v = sample_cut_vertices(5, 2, seed)
            for m in v.feasible_masks():
                if popcount(m) % 2 == 0:
                    assert not m & 0b10
                else:
                    assert m & 0b10

    def test_different_cuts_give_disjoint_edge_sets(self):
        n = 4
        rng = random.Random(11)
        for _ in range(10):
            seed = rng.randrange(1 << 30)
            edges_by_cut = {}
            for cut in range(1, n + 1):
                v = sample_cut_vertices(n, cut, seed)
                edges_by_cut[cut] = frozenset(
                    frozenset((m, u))
                    for m in v.feasible_masks()
                    for u in hypercube_neighbors(m, n)
                    if v.has_mask(u)
                )
            cuts = list(edges_by_cut)
            for i, a in enumerate(cuts):
                for b in cuts[i + 1 :]:
                    assert not (edges_by_cut[a] & edges_by_cut[b])

    def test_seed_reproducibility(self):
        assert sample_cut_construction(5, 2, 99) == sample_cut_construction(5, 2, 99)

    def test_cut_argument_validation(self):
        with pytest.raises(ConstructionError):
            sample_cut_vertices(4, 0, 1)
        with pytest.raises(ConstructionError):
            sample_cut_vertices(4, 5, 1)
        with pytest.raises(ConstructionError):
            sample_cut_vertices(1, 1, 1)


class TestCutBound:
    def test_exact_small_values(self):
        assert cut_count_lower_bound_exact(2) == 2
        assert cut_count_lower_bound_exact(4) == 700

    def test_floor_version(self):
        assert cut_count_lower_bound(2) == 2
        assert cut_count_lower_bound(4) == 700
        assert cut_count_lower_bound(5) == math.floor(cut_count_lower_bound_exact(5))

    def test_bound_below_true_counts(self):
        for n, d in {2: 15, 3: 155, 4: 5959, 5: 4980259}.items():
            assert cut_count_lower_bound_exact(n) <= d

    def test_certification(self):
        assert cut_bound_certifies(5, Fraction(1, 4))
        assert not cut_bound_certifies(2, Fraction(1, 1000000))
        # eps accepted as a string too; (3/4)^16 is a hair above 0.01
        assert cut_bound_certifies(6, "0.011")
        assert not cut_bound_certifies(6, "0.01")

    def test_formula_shape(self):
        n = 6
        t = 1 << (n - 2)
        expected = Fraction(n) * (1 << t) * (1 << t) * (1 - Fraction(3, 4) ** t)
        assert cut_count_lower_bound_exact(n) == expected


class TestGrahamSloane:
    def test_examples(self):
        assert list(graham_sloane_stable_set(3, 1).feasible_masks()) in (
            [0b001],
            [0b010],
            [0b100],
        )
        assert graham_sloane_stable_set(4, 2).num_feasible == 2

    def test_single_residue_class(self):
        s = graham_sloane_stable_set(4, 2)
        sums = {sum(i + 1 for i in range(4) if m >> i & 1) % 4 for m in s.feasible_masks()}
        assert len(sums) == 1

    def test_rank_bounds(self):
        with pytest.raises(ConstructionError):
            graham_sloane_stable_set(4, 0)
        with pytest.raises(ConstructionError):
            graham_sloane_stable_set(4, 4)

    def test_stability_and_size(self):
        for n in range(2, 13):
            for r in range(1, n):
                s = graham_sloane_stable_set(n, r)
                assert s.num_feasible * n >= math.comb(n, r)
                masks = list(s.feasible_masks())
                for i, a in enumerate(masks):
                    assert popcount(a) == r
                    for b in masks[i + 1 :]:
                        assert popcount(a & b) != r - 1

    def test_random_subsets_stay_stable(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(3, 10)
            r = rng.randint(1, n - 1)
            s = random_residue_stable_subset(n, r, rng)
            masks = list(s.feasible_masks())
            for i, a in enumerate(masks):
                for b in masks[i + 1 :]:
                    assert popcount(a & b) != r - 1

    def test_random_subset_extreme_ranks_empty(self):
        rng = random.Random(0)
        assert random_residue_stable_subset(4, 0, rng).num_feasible == 0
        assert random_residue_stable_subset(4, 4, rng).num_feasible == 0


class TestSparsePaving:
    def test_uniform_from_empty_spec(self):
        m = sparse_paving_matroid(SparsePavingSpec(4, 2, SetSystem(4, 0)))
        assert sorted(m.feasible_masks()) == [
            0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100,
        ]
        assert {b.bit_count() for b in m.feasible_masks()} == {2}

    def test_example_with_hyperplanes(self):
        spec = SparsePavingSpec(4, 2, SetSystem.from_masks(4, [0b0011, 0b1100]))
        m = sparse_paving_matroid(spec)
        assert sorted(m.feasible_masks()) == [0b0101, 0b0110, 0b1001, 0b1010]
        assert is_matroid(m)
        assert is_delta_matroid(m)

    def test_instability_rejected(self):
        spec = SparsePavingSpec(4, 2, SetSystem.from_masks(4, [0b0011, 0b0101]))
        with pytest.raises(StabilityViolationError):
            spec.validate_stability()
        with pytest.raises(StabilityViolationError):
            sparse_paving_matroid(spec)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ConstructionError):
            SparsePavingSpec(4, 2, SetSystem.from_masks(4, [0b0111]))
        with pytest.raises(ConstructionError):
            SparsePavingSpec(4, 5, SetSystem(4, 0))

    def test_stray_mask_named(self):
        with pytest.raises(ConstructionError, match="circuit-hyperplane 7 is not a"):
            SparsePavingSpec(4, 2, SetSystem.from_masks(4, [0b0011, 0b0111, 0b1111]))
        with pytest.raises(ConstructionError, match="wrong ground set"):
            SparsePavingSpec(4, 2, SetSystem(3, 0))

    def test_bases_are_the_other_rsets(self):
        # the bases are the r-sets that are not circuit-hyperplanes
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 10)
            r = rng.randint(0, n)
            ch = random_residue_stable_subset(n, r, rng)
            expected = [
                mask
                for mask in sorted(sum(1 << i for i in c) for c in combinations(range(n), r))
                if not ch.has_mask(mask)
            ]
            if not expected:
                continue
            assert list(sparse_paving_matroid(SparsePavingSpec(n, r, ch)).feasible_masks()) == expected

    def test_every_rset_forbidden_rejected(self):
        # the rank-0 Johnson graph has one vertex, so forbidding it is stable
        # yet leaves no basis
        spec = SparsePavingSpec(2, 0, SetSystem.from_masks(2, [0]))
        with pytest.raises(LayerError):
            sparse_paving_matroid(spec)

    def test_dual_is_sparse_paving(self):
        spec = SparsePavingSpec(5, 2, SetSystem.from_masks(5, [0b00011, 0b01100]))
        m = sparse_paving_matroid(spec)
        d = dual(m)
        full = (1 << 5) - 1
        assert set(d.feasible_masks()) == {full ^ b for b in m.feasible_masks()}
        assert {b.bit_count() for b in d.feasible_masks()} == {3}
        assert dual(d) == m

    def test_circuit_hyperplane_family_iff_stable(self):
        # a family of 2-sets on four elements is the circuit-hyperplane
        # family of a (sparse paving) matroid exactly when it is stable
        n, r = 4, 2
        pairs = [m for m in range(1 << n) if popcount(m) == r]

        def rank(bases: list[int], a: int) -> int:
            return max(popcount(a & b) for b in bases)

        def is_circuit_hyperplane(bases: list[int], c: int) -> bool:
            if rank(bases, c) != r - 1:
                return False
            for i in range(n):
                if c >> i & 1 and rank(bases, c ^ (1 << i)) != r - 1:
                    return False  # a proper subset is already dependent
            return all(
                rank(bases, c | (1 << i)) == r
                for i in range(n)
                if not c >> i & 1
            )  # c is closed: every outside element raises the rank

        for bits in range(1 << len(pairs)):
            fam = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            remaining = [m for m in pairs if m not in fam]
            if not remaining:
                continue
            stable = all(
                popcount(a & b) != r - 1
                for i, a in enumerate(fam)
                for b in fam[i + 1 :]
            )
            realized = is_matroid(SetSystem.from_masks(n, remaining)) and all(
                is_circuit_hyperplane(remaining, c) for c in fam
            )
            assert realized == stable


class TestStacked:
    @staticmethod
    def full_spec(n: int, r: int) -> SparsePavingSpec:
        return SparsePavingSpec(n, r, SetSystem(n, 0))

    def test_minimal(self):
        d = stacked_even_delta_matroid(
            2, {0: self.full_spec(2, 0), 2: self.full_spec(2, 2)}
        )
        assert sorted(d.feasible_masks()) == [0b00, 0b11]

    def test_full_layers_give_even_family(self):
        layers = {r: self.full_spec(4, r) for r in (0, 2, 4)}
        d = stacked_even_delta_matroid(4, layers)
        assert sorted(d.feasible_masks()) == [
            m for m in range(16) if popcount(m) % 2 == 0
        ]

    def test_missing_layer_rejected(self):
        with pytest.raises(LayerError):
            stacked_even_delta_matroid(4, {0: self.full_spec(4, 0)})

    def test_mismatched_layer_rejected(self):
        with pytest.raises(LayerError):
            stacked_even_delta_matroid(
                4,
                {
                    0: self.full_spec(4, 0),
                    2: self.full_spec(4, 4),
                    4: self.full_spec(4, 4),
                },
            )

    def test_extra_layer_rejected(self):
        with pytest.raises(LayerError):
            stacked_even_delta_matroid(
                2,
                {
                    0: self.full_spec(2, 0),
                    1: SparsePavingSpec(2, 1, SetSystem(2, 0)),
                    2: self.full_spec(2, 2),
                },
            )

    def test_emptied_layer_rejected(self):
        bad = SparsePavingSpec(2, 1, SetSystem.from_masks(2, [0b01, 0b10]))
        with pytest.raises(LayerError):
            stacked_even_delta_matroid(
                3, {0: self.full_spec(3, 0), 2: bad}
            )

    def test_random_samples_are_even_delta_matroids(self):
        for seed in range(200):
            d = stacked_even_delta_matroid(5, random_stacked_layers(5, seed))
            assert is_even(d)
            assert is_delta_matroid(d)

    def test_larger_random_samples(self):
        for seed in range(40):
            d = stacked_even_delta_matroid(6, random_stacked_layers(6, seed))
            assert is_even(d)
            assert is_delta_matroid(d)


class TestEvenLowerBound:
    def test_value(self):
        assert even_lower_bound(4) == 1.0

    def test_holds_for_known_counts(self):
        for n, e in {3: 30, 4: 294, 5: 7966}.items():
            assert math.log2(math.log2(e)) >= even_lower_bound(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstructionError):
            even_lower_bound(0)


class TestRandomStable:
    def test_samples_are_stable(self):
        for seed in range(50):
            assert qn_degree(random_stable_set(5, seed)) == 0

    def test_reproducible(self):
        assert random_stable_set(5, 4) == random_stable_set(5, 4)
