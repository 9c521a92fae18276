"""Core set-system representation and operations."""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from deltamatroid import constructions
from deltamatroid.setsystem import (
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
        return int.from_bytes(_subcube_or(n, bits), "little") & ((1 << 3 ** n) - 1)

    def test_every_system_up_to_three_elements(self):
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
