"""Every package name the benchmark harness in perfbench/ calls, on small
inputs.

perfbench/ is versioned apart from the package, so a renamed or deleted
function, attribute or field would break every benchmark run while the
rest of the suite stays green.  Each call below is one the harness makes;
the values are checked only as far as the harness relies on them.
"""

from __future__ import annotations

import numpy as np

from deltamatroid import SetSystem, cli, constructions as c, encoding, levels
from deltamatroid.setsystem import check_symmetric_exchange


def test_constructions_and_checker_witness():
    built = [
        c.stacked_even_delta_matroid(6, c.random_stacked_layers(6, 1)),
        c.sample_cut_construction(6, 2, 1),
        c.complement_delta_matroid(c.random_stable_set(6, 1)),
    ]
    assert all(check_symmetric_exchange(s) is None for s in built)
    witness = check_symmetric_exchange(SetSystem(3, 1 | 1 << 7))
    assert (witness.x, witness.y, witness.e) == (0, 7, 1)


def test_record_round_trip():
    system = c.stacked_even_delta_matroid(7, c.random_stacked_layers(7, 3))
    record = encoding.encode_even_system(system)
    parsed = encoding.loads_record(encoding.dumps_record(record))
    assert parsed == record and encoding.reconstruct_system(parsed) == system
    assert record.n == 7 and float(record.alpha) > 0
    assert len(record.s) <= encoding.s_length_bound(record.n)
    assert isinstance(record.residual, tuple)


def test_level_store_and_counts(levels5, tmp_path, monkeypatch):
    calls = []

    def counting(system):
        calls.append(system.n)
        return check_symmetric_exchange(system)

    # the harness counts checker calls where levels imported the checker
    monkeypatch.setattr(levels, "check_symmetric_exchange", counting)
    store = levels.build_levels(4)
    assert calls.count(4) > 0
    assert np.array_equal(levels.enumerate_level(store[3]).vectors, store[4].vectors)
    path = levels.cache_path(tmp_path, 4)
    store[4].save(path)
    level4 = levels.LevelCache.load(path)
    assert np.array_equal(level4.vectors, levels5[4].vectors)
    assert levels.count_even(level4) == 294
    assert levels.count_next_level_via_classes(level4) == len(levels5[5])


def test_level6_sample_calls(levels5):
    reps, sizes = levels.twist_permutation_classes(levels5[5])
    assert len(reps) == 2902 and int(sizes.sum()) == len(levels5[5])
    kernel = levels._ComposeKernel(levels5[5])
    assert kernel.child_n == 6
    row = int(np.searchsorted(kernel.parents, reps[0]))
    assert kernel.row_ok(row).shape == kernel.parents.shape


def test_cli_main(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DM_CACHE_DIR", raising=False)
    args = ["--cache-dir", str(tmp_path), "--format", "json", "count", "--max-n", "3"]
    assert cli.main(args) == 0
    assert '"d": 155' in capsys.readouterr().out
