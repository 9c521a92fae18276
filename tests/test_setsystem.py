"""Core set-system representation and operations."""

from __future__ import annotations

import json
import os
import random
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltamatroid import constructions
from deltamatroid.setsystem import (
    MAX_GROUND_SIZE,
    ExchangeWitness,
    ImproperSystemError,
    MinorKind,
    SetSystem,
    SystemFormatError,
    bit_positions,
    check_symmetric_exchange,
    dumps_system,
    elements_of,
    is_delta_matroid,
    is_even,
    loads_system,
    mask_of,
    rank_indicator,
    twist,
    _subcube_or,
    _ternary,
)
from conftest import (
    compose,
    dual,
    is_matroid,
    minor,
    oracle_first_witness,
    oracle_is_delta_matroid,
    oracle_violates,
)


def sys_of(n, *sets):
    return SetSystem.from_sets(n, sets)


small_systems = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, (1 << (1 << n)) - 1))
).map(lambda t: SetSystem(*t))


class TestSetSystem:
    def test_mask_conventions(self):
        assert mask_of([1, 3]) == 0b101
        assert elements_of(0b101) == (1, 3)

    def test_construction_bounds(self):
        with pytest.raises(ValueError):
            SetSystem(-1, 0)
        with pytest.raises(ValueError):
            SetSystem(17, 0)
        with pytest.raises(ValueError):
            SetSystem(1, 1 << 4)  # bit for a mask >= 2^n
        with pytest.raises(ValueError):
            SetSystem.from_masks(2, [4])

    @pytest.mark.parametrize("n", [-1, 64])
    def test_from_masks_bounds_n_before_allocating(self, n):
        # a 2^64-bit buffer would be 2^61 bytes: MemoryError if allocated
        with pytest.raises(ValueError, match="ground-set size"):
            SetSystem.from_masks(n, [])

    @staticmethod
    def or_loop(n, masks):
        """The feasibility int built one ``1 << m`` at a time, refusing the
        first out-of-range mask."""
        bits = 0
        for m in masks:
            if not 0 <= m < (1 << n):
                raise ValueError(f"subset mask {m} out of range for n={n}")
            bits |= 1 << m
        return bits

    def test_from_masks_matches_or_loop(self):
        rng = random.Random(16)
        for n in range(17):
            size = 1 << n
            masks = [rng.randrange(size) for _ in range(min(size, 300))]
            masks += masks[: len(masks) // 3] + [0, size - 1, size - 1]
            rng.shuffle(masks)
            assert masks != sorted(masks) or n == 0
            built = SetSystem.from_masks(n, masks)
            assert built.bits == self.or_loop(n, masks), n
            every = list(range(size))[::-1] * 2
            assert SetSystem.from_masks(n, every).bits == (1 << size) - 1
            for a in (0, size - 1, rng.randrange(size)):
                expected = self.or_loop(n, (m ^ a for m in built.feasible_masks()))
                assert twist(built, a).bits == expected, (n, a)
            # the error names the first mask out of range, as the loop's does
            for bad in (size, -1):
                refused = masks[:5] + [bad, size + 7] + masks[5:]
                with pytest.raises(ValueError) as got:
                    SetSystem.from_masks(n, refused)
                with pytest.raises(ValueError) as want:
                    self.or_loop(n, refused)
                assert str(got.value) == str(want.value) == (
                    f"subset mask {bad} out of range for n={n}"
                )

    def test_improper_is_representable(self):
        s = SetSystem(3, 0)
        assert not s.is_proper
        assert s.num_feasible == 0
        assert not is_delta_matroid(s)

    def test_bit_positions_match_plain_scan(self):
        # one pass over a binary string lists the same positions, ascending,
        # as testing every bit in turn
        rng = random.Random(2024)
        values = [0, 1, 1 << 65535, (1 << 65536) - 1]
        for _ in range(100):
            width = rng.randrange(1, 1 << rng.randrange(1, 17))
            density = rng.random()
            values.append(sum(1 << p for p in range(width) if rng.random() < density))
        for x in values:
            assert bit_positions(x) == [p for p in range(x.bit_length()) if x >> p & 1]

    def test_feasible_round_trip(self):
        s = sys_of(3, [], [1, 2], [2, 3])
        assert list(s.feasible_masks()) == [0, 0b011, 0b110]
        assert s.feasible_sets() == [(), (1, 2), (2, 3)]
        assert s.has_mask(0b011) and not s.has_mask(0b111)


class TestExchangeCheck:
    def test_empty_and_full_is_rejected_on_three_elements(self):
        s = sys_of(3, [], [1, 2, 3])
        witness = check_symmetric_exchange(s)
        assert witness == ExchangeWitness(x=0, y=0b111, e=1)

    def test_single_feasible_set_passes(self):
        assert check_symmetric_exchange(sys_of(1, [])) is None

    def test_all_proper_systems_on_two_elements_pass(self):
        passing = [
            bits for bits in range(1, 16)
            if check_symmetric_exchange(SetSystem(2, bits)) is None
        ]
        assert len(passing) == 15

    def test_improper_input_raises(self):
        with pytest.raises(ImproperSystemError):
            check_symmetric_exchange(SetSystem(2, 0))

    def test_matches_oracle_exhaustively(self, oracle_levels):
        for n, expected in oracle_levels.items():
            got = [
                bits for bits in range(1, 1 << (1 << n))
                if check_symmetric_exchange(SetSystem(n, bits)) is None
            ]
            assert got == expected

    def test_witness_is_first_in_order(self):
        # the witness is the first violation in ascending (X, Y, e) order
        def agree(s):
            witness = check_symmetric_exchange(s)
            got = None if witness is None else (witness.x, witness.y, witness.e)
            assert got == oracle_first_witness(s.n, s.feasible_masks()), s
        # every system on up to three elements, {∅} at n = 0 (no position
        # to flip) and n = 1 (one position or none blocked) among them
        for n in range(4):
            for bits in range(1, 1 << (1 << n)):
                agree(SetSystem(n, bits))
        rng = random.Random(6060)
        for _ in range(5000):
            n = rng.randint(4, 6)
            density = rng.random()
            bits = sum(1 << m for m in range(1 << n) if rng.random() < density)
            agree(SetSystem(n, bits or 1))

    def test_witness_is_first_on_every_level4_composite(self, levels4):
        parents = [0] + [int(v) for v in levels4[3].vectors]
        composites = [d1 << 8 | d2 for d1 in parents for d2 in parents if d1 or d2]
        assert len(composites) == 24335
        for bits in composites:
            s = SetSystem(4, bits)
            witness = check_symmetric_exchange(s)
            got = None if witness is None else (witness.x, witness.y, witness.e)
            assert got == oracle_first_witness(4, s.feasible_masks()), bits

    def test_seed0_stacked_even_n14_passes(self):
        s = constructions.stacked_even_delta_matroid(
            14, constructions.random_stacked_layers(14, 0))
        assert s.num_feasible == 7893
        assert check_symmetric_exchange(s) is None

    def test_planted_violations_n12(self):
        # an even delta-matroid plus one odd set X = L ^ {e0}, L an
        # infeasible even set: (X, Y, e0) violates for every feasible Y
        # that differs from X at e0, so the system is no delta-matroid
        base = constructions.stacked_even_delta_matroid(
            12, constructions.random_stacked_layers(12, 0))
        assert check_symmetric_exchange(base) is None
        feasible = set(base.feasible_masks())
        infeasible_even = [m for m in range(1 << 12) if m not in feasible and m.bit_count() % 2 == 0]
        low = SetSystem(12, base.bits | 1 << (infeasible_even[0] ^ 1))
        high = SetSystem(12, base.bits | 1 << (infeasible_even[-1] ^ 1))
        # the first witness of the low one sits early enough in ascending
        # (X, Y, e) order for the set-based scan to reach it
        witness = check_symmetric_exchange(low)
        assert (witness.x, witness.y, witness.e) == oracle_first_witness(12, low.feasible_masks())
        # the high one exits deep in the scan, at an even X
        witness = check_symmetric_exchange(high)
        assert witness == ExchangeWitness(x=955, y=4026, e=11)
        assert oracle_violates(high.feasible_masks(), witness.x, witness.y, witness.e)

    def test_first_y_then_its_first_e(self):
        # X = ∅ violates at e = 2 with Y = {1,2,3} and at e = 1 with the
        # later Y = {1,2,4}: the witness takes the first Y, not the first e
        masks = [0, 0b0101, 0b0111, 0b1011]
        assert oracle_violates(masks, 0, 0b1011, 1)
        for n in (4, 7, 9):
            # the same sets inside a larger ground set, and summed with an
            # even delta-matroid on the elements above 4
            s = SetSystem.from_masks(n, masks)
            assert check_symmetric_exchange(s) == ExchangeWitness(x=0, y=0b0111, e=2)
            high = constructions.stacked_even_delta_matroid(
                n - 4, constructions.random_stacked_layers(n - 4, n))
            s = SetSystem.from_masks(n, (a | b << 4 for a in masks for b in high.feasible_masks()))
            witness = check_symmetric_exchange(s)
            assert (witness.x, witness.y, witness.e) == oracle_first_witness(n, s.feasible_masks())

    def test_first_x_before_a_lower_e(self):
        # planted odd sets make several X violate, at different positions:
        # the first violating X is not the one with the lowest violating e
        s = planted_system(7, seed=0, count=3)
        violations = all_violations(s)
        witness = check_symmetric_exchange(s)
        assert (witness.x, witness.y, witness.e) == min(violations)
        assert min(violations, key=lambda v: (v[2], v[0], v[1])) != min(violations)

    @pytest.mark.parametrize("n", [7, 8, 9, *(
        pytest.param(n, marks=pytest.mark.skipif(
            not os.environ.get("DM_SLOW_TESTS"),
            reason="set-based first-witness scans at n = 10..12 (about 40 s together); set DM_SLOW_TESTS=1",
        )) for n in (10, 11, 12)
    )])
    def test_witness_is_first_on_seven_to_nine_elements(self, n):
        rng = random.Random(7000 + n)
        systems = [planted_system(n, seed, count) for seed in range(3) for count in (1, 3)]
        for density in (0.03, 0.1, 0.3, 0.7):
            systems.append(SetSystem(n, sum(1 << m for m in range(1 << n) if rng.random() < density) or 1))
        for s in systems:
            witness = check_symmetric_exchange(s)
            got = None if witness is None else (witness.x, witness.y, witness.e)
            assert got == oracle_first_witness(n, s.feasible_masks()), s

    @given(small_systems)
    @settings(max_examples=150, deadline=None)
    def test_witness_is_genuine(self, s):
        witness = check_symmetric_exchange(s)
        masks = list(s.feasible_masks())
        if witness is None:
            assert oracle_is_delta_matroid(s.n, masks)
        else:
            assert s.has_mask(witness.x) and s.has_mask(witness.y)
            diff = witness.x ^ witness.y
            assert (diff >> (witness.e - 1)) & 1
            flip_e = 1 << (witness.e - 1)
            for f in range(1, s.n + 1):
                flip_f = 1 << (f - 1)
                if (diff & flip_f) and s.has_mask(witness.x ^ (flip_e | flip_f)):
                    pytest.fail(f"witness has a valid exchange f={f}")
            assert not oracle_is_delta_matroid(s.n, masks)


class TestExchangeAtSixteen:
    """The largest ground set: the seed-0 stacked-even system passes and a
    planted violation keeps the witness the loop checker returned."""

    @pytest.fixture(scope="class")
    def base(self):
        return constructions.stacked_even_delta_matroid(
            16, constructions.random_stacked_layers(16, 0))

    def test_seed0_stacked_even_passes(self, base):
        assert base.num_feasible == 31768
        assert check_symmetric_exchange(base) is None

    def test_traced_peak_bounded(self, base):
        # the 3^13 transform words (6.4 MB) and one extension step's input
        # and output are most of it; the cached tables are warmed first
        check_symmetric_exchange(base)
        tracemalloc.start()
        try:
            assert check_symmetric_exchange(base) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    def test_planted_violation_witness_pinned(self, base):
        # X = L ^ {e0} with L the middle infeasible even set and e0 = 6;
        # the witness was pinned with the per-(X, p) loop checker
        feasible = set(base.feasible_masks())
        holes = [m for m in range(1 << 16) if m not in feasible and m.bit_count() % 2 == 0]
        assert len(holes) == 1000
        s = SetSystem(16, base.bits | 1 << (holes[500] ^ 1 << 5))
        witness = check_symmetric_exchange(s)
        assert witness == ExchangeWitness(x=32213, y=33, e=6)
        assert oracle_violates(s.feasible_masks(), witness.x, witness.y, witness.e)


def planted_system(n: int, seed: int, count: int) -> SetSystem:
    """The seed's stacked-even system plus count odd sets L ^ {e0}, each
    with L an infeasible even set: (L ^ {e0}, Y, e0 + 1) violates for every
    feasible Y that differs from L ^ {e0} at e0, so the result is no
    delta-matroid."""
    rng = random.Random(seed)
    base = constructions.stacked_even_delta_matroid(n, constructions.random_stacked_layers(n, seed))
    feasible = set(base.feasible_masks())
    holes = [m for m in range(1 << n) if m not in feasible and m.bit_count() % 2 == 0]
    bits = base.bits
    for _ in range(count):
        bits |= 1 << (rng.choice(holes) ^ 1 << rng.randrange(n))
    return SetSystem(n, bits)


def all_violations(s: SetSystem) -> list[tuple[int, int, int]]:
    """Every violating (X, Y, e), from the definition over masks."""
    masks = list(s.feasible_masks())
    family = set(masks)
    out = []
    for x in masks:
        for y in masks:
            diff = elements_of(x ^ y)
            for e in diff:
                if not any(x ^ mask_of({e, f}) in family for f in diff):
                    out.append((x, y, e))
    return out


def brute_subcube_or(n: int, bits: int) -> int:
    """Bit c set iff some feasible mask agrees with every non-* digit of
    cell c = sum of c_q * 3^q (digit 2 is *)."""
    out = 0
    for c in range(3 ** n):
        digits = [c // 3 ** q % 3 for q in range(n)]
        if any(
            (bits >> m) & 1 and all(d == 2 or (m >> q) & 1 == d for q, d in enumerate(digits))
            for m in range(1 << n)
        ):
            out |= 1 << c
    return out


class TestSubcubeTransform:
    @staticmethod
    def cells(n: int, bits: int) -> int:
        """The transform's cells as one int: cell c is bit c % 27 of word
        c // 27."""
        raw = np.frombuffer(bits.to_bytes(max(1 << n >> 3, 1), "little"), dtype=np.uint8)
        words = _subcube_or(n, raw)
        assert words.dtype == np.uint32 and words.shape == (max(3 ** n // 27, 1),)
        return sum((int(words[c // 27]) >> c % 27 & 1) << c for c in range(3 ** n))

    def test_ternary_tables_cached_for_every_ground_size(self):
        tables = [_ternary(n) for n in range(MAX_GROUND_SIZE + 1)]
        for n, table in enumerate(tables):
            assert table.dtype == np.intp and table.shape == (1 << n,)
            assert _ternary(n) is table
            assert (table == tables[-1][: 1 << n]).all()
        assert tables[5].tolist() == [
            sum(3 ** q for q in range(5) if m >> q & 1) for m in range(32)
        ]

    def test_every_system_up_to_three_elements(self):
        # n = 3 reads each of the 256 three-element words as it is
        for n in range(4):
            for bits in range(1 << (1 << n)):
                assert self.cells(n, bits) == brute_subcube_or(n, bits), (n, bits)

    def test_random_systems_on_four_to_six_elements(self):
        rng = random.Random(3003)
        for n in (4, 5, 6):
            for _ in range(12):
                density = rng.choice([0.02, 0.1, 0.5, 0.9])
                bits = sum(1 << m for m in range(1 << n) if rng.random() < density)
                assert self.cells(n, bits) == brute_subcube_or(n, bits), (n, bits)


class TestEvenness:
    def test_even_pair(self):
        assert is_even(sys_of(2, [], [1, 2]))

    def test_mixed_parity(self):
        assert not is_even(sys_of(1, [], [1]))

    def test_improper_raises(self):
        with pytest.raises(ImproperSystemError):
            is_even(SetSystem(2, 0))

    def test_twist_by_single_element_flips_parity_class(self):
        s = sys_of(3, [], [1, 2], [1, 3])
        t = twist(s, mask_of([1]))
        assert is_even(t)
        assert all(m.bit_count() % 2 == 1 for m in t.feasible_masks())

    @given(small_systems)
    @settings(max_examples=200, deadline=None)
    def test_matches_size_parities(self, s):
        if s.is_proper:
            sizes = {len(f) % 2 for f in s.feasible_sets()}
            assert is_even(s) == (len(sizes) == 1)

    @given(small_systems, st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_twist_parity_rule(self, s, a):
        a &= (1 << s.n) - 1
        if a.bit_count() % 2 == 0:
            assert is_even(twist(s, a)) == is_even(s)
        elif is_even(s):
            assert is_even(twist(s, a))


class TestRankIndicator:
    def test_matches_combinations(self):
        for n in range(13):
            for r in range(-1, n + 2):
                expected = 0
                for combo in combinations(range(n), r) if r >= 0 else ():
                    expected |= 1 << sum(1 << i for i in combo)
                assert rank_indicator(n, r) == expected, (n, r)


class TestTwist:
    def test_identity(self):
        s = sys_of(2, [1], [2])
        assert twist(s, 0) == s

    def test_single_example(self):
        assert twist(sys_of(1, []), mask_of([1])) == sys_of(1, [1])

    def test_pair_example(self):
        assert twist(sys_of(2, [], [1, 2]), mask_of([1])) == sys_of(2, [1], [2])

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            twist(sys_of(2, [1]), 0b100)

    @given(small_systems, st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, s, a):
        a &= (1 << s.n) - 1
        assert twist(twist(s, a), a) == s

    def test_preserves_delta_matroids_exhaustively(self, oracle_levels):
        for bits in oracle_levels[3]:
            s = SetSystem(3, bits)
            for a in range(8):
                assert check_symmetric_exchange(twist(s, a)) is None

    def test_dual_is_twist_by_everything(self):
        s = sys_of(3, [1], [2, 3])
        assert dual(s) == twist(s, 0b111)
        assert dual(s) == sys_of(3, [2, 3], [1])


class TestMinor:
    def test_contract_and_delete_top_element(self):
        s = sys_of(4, [], [1, 2, 3, 4])
        assert minor(s, 4, MinorKind.CONTRACT) == sys_of(3, [1, 2, 3])
        assert minor(s, 4, MinorKind.DELETE) == sys_of(3, [])

    def test_delete_everywhere_element_is_improper(self):
        s = sys_of(2, [1], [1, 2])
        assert minor(s, 1, MinorKind.DELETE) == SetSystem(1, 0)

    def test_contract_nowhere_element_is_improper(self):
        s = sys_of(2, [], [2])
        assert minor(s, 1, MinorKind.CONTRACT) == SetSystem(1, 0)

    def test_relabelling_is_order_preserving(self):
        s = sys_of(3, [1, 3])
        assert minor(s, 2, MinorKind.DELETE) == sys_of(2, [1, 2])

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            minor(sys_of(2, [1]), 3, MinorKind.DELETE)
        with pytest.raises(ValueError):
            minor(SetSystem(0, 1), 1, MinorKind.DELETE)

    def test_minors_of_delta_matroids_are_delta_matroids(self, oracle_levels):
        for bits in oracle_levels[3]:
            s = SetSystem(3, bits)
            for e in (1, 2, 3):
                for kind in MinorKind:
                    sub = minor(s, e, kind)
                    if sub.is_proper:
                        assert check_symmetric_exchange(sub) is None

    def test_disjoint_minors_commute(self):
        for bits in range(1, 256):
            s = SetSystem(3, bits)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    if a == b:
                        continue
                    lhs = minor(
                        minor(s, a, MinorKind.DELETE),
                        b - 1 if b > a else b,
                        MinorKind.CONTRACT,
                    )
                    rhs = minor(
                        minor(s, b, MinorKind.CONTRACT),
                        a - 1 if a > b else a,
                        MinorKind.DELETE,
                    )
                    assert lhs == rhs


class TestCompose:
    def test_single_sets_compose_to_antipodal(self):
        d1 = sys_of(3, [1, 2, 3])
        d2 = sys_of(3, [])
        assert compose(d1, d2) == sys_of(4, [], [1, 2, 3, 4])

    def test_improper_pair_composes_to_improper(self):
        assert compose(SetSystem(2, 0), SetSystem(2, 0)) == SetSystem(3, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(sys_of(2, [1]), sys_of(3, [1]))

    def test_bijection_exhaustive_n3(self):
        seen = set()
        for b1 in range(16):
            for b2 in range(16):
                d = compose(SetSystem(2, b1), SetSystem(2, b2))
                assert minor(d, 3, MinorKind.CONTRACT).bits == b1
                assert minor(d, 3, MinorKind.DELETE).bits == b2
                seen.add(d.bits)
        assert seen == set(range(256))


class TestMatroids:
    def test_uniform_two_of_three(self):
        b = sys_of(3, [1, 2], [1, 3], [2, 3])
        assert is_matroid(b)

    def test_non_equicardinal(self):
        assert not is_matroid(sys_of(3, [1], [2, 3]))

    def test_exchange_failure(self):
        assert not is_matroid(sys_of(4, [1, 2], [3, 4]))

    def test_improper_raises(self):
        with pytest.raises(ImproperSystemError):
            is_matroid(SetSystem(2, 0))

    def test_matroid_dual(self):
        d = dual(sys_of(3, [1, 2], [1, 3], [2, 3]))
        assert {b.bit_count() for b in d.feasible_masks()} == {1}
        assert d == sys_of(3, [3], [2], [1])


class TestSerialization:
    def test_round_trip(self):
        s = sys_of(3, [], [1, 3], [2, 3])
        assert loads_system(dumps_system(s)) == s

    def test_document_shape(self):
        doc = json.loads(dumps_system(sys_of(2, [1], [1, 2])))
        assert doc == {"n": 2, "feasible": [1, 3]}

    def test_rejects_disorder_and_duplicates(self):
        with pytest.raises(SystemFormatError):
            loads_system('{"n": 2, "feasible": [3, 1]}')
        with pytest.raises(SystemFormatError):
            loads_system('{"n": 2, "feasible": [1, 1]}')

    def test_rejects_out_of_range(self):
        with pytest.raises(SystemFormatError):
            loads_system('{"n": 2, "feasible": [4]}')

    def test_rejects_bad_json_and_shapes(self):
        # an added field; masks that int() converts but the writer never
        # writes; a 5 000-digit integer, which the JSON grammar admits and
        # int() refuses; Infinity, which int() overflows on; and nesting
        # around the depth where json.loads, or json.dumps a few frames
        # deeper, gives up
        limit = sys.getrecursionlimit()
        for text in ("{", "[]", '{"n": 2}', '{"feasible": []}',
                     '{"n": "x", "feasible": []}', '{"n": 2, "feasible": [1], "note": "x"}',
                     '{"n": 2, "feasible": [true]}', '{"n": 2, "feasible": [1.0]}',
                     '{"n": 2, "feasible": ["1"]}', '{"n": 2, "feasible": [' + "1" * 5000 + "]}",
                     '{"n": 2, "feasible": [Infinity]}', '{"n": 2, "feasible": [NaN]}',
                     *('{"n": 2, "feasible": [], "x": ' + "[" * d + "]" * d + "}"
                       for d in range(limit - 200, limit))):
            with pytest.raises(SystemFormatError):
                loads_system(text)

    @given(small_systems)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, s):
        assert loads_system(dumps_system(s)) == s
