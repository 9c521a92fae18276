"""Command-line interface: subcommands, exit codes, formats, cache handling."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from deltamatroid import constructions, encoding, levels
from deltamatroid.cli import main
from deltamatroid.constructions import random_stacked_layers, stacked_even_delta_matroid
from deltamatroid.setsystem import (
    SetSystem,
    dumps_system,
    is_delta_matroid,
    load_system,
    loads_system,
)
from deltamatroid.levels import cache_path
from tests.conftest import RECORD_TAMPERS, assert_canonical_files, tamper_record

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_system(path, system: SetSystem) -> str:
    path.write_text(dumps_system(system))
    return str(path)


CHECK_RECORD = r"deltamatroid\.setsystem: exchange n=\d+: \d+ sets, \d+ cells, \d+\.\d{3}s"


class TestCheck:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verbose_logs_the_check_to_stderr_only(self, fmt, tmp_path, capsys):
        # one record of the checker per check; stdout and the exit code do
        # not change
        valid = stacked_even_delta_matroid(9, random_stacked_layers(9, 0))
        violating = SetSystem.from_sets(3, [[], [1, 2, 3]])
        for system, code in ((valid, 0), (violating, 1)):
            # one cell per infeasible mask with a feasible single flip: 6
            # for {∅, {1,2,3}}, the singletons and the pairs
            feasible = set(system.feasible_masks())
            cells = sum(
                m not in feasible and any(m ^ 1 << q in feasible for q in range(system.n))
                for m in range(1 << system.n)
            )
            path = write_system(tmp_path / "s.json", system)
            argv = ["--format", fmt, "check", path]
            assert main(argv) == code
            quiet = capsys.readouterr()
            assert quiet.err == ""
            assert main(["--verbose", *argv]) == code
            verbose = capsys.readouterr()
            assert verbose.out == quiet.out
            [line] = verbose.err.splitlines()
            assert re.fullmatch(CHECK_RECORD, line), line
            assert f" n={system.n}: {system.num_feasible} sets, {cells} cells, " in line

    def test_accepts_delta_matroid(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", SetSystem.from_sets(3, [[], [1], [2]]))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: delta-matroid" in out
        assert "parity: mixed-parity sizes" in out

    def test_rejects_violation_with_witness(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", SetSystem.from_sets(3, [[], [1, 2, 3]]))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "not a delta-matroid" in out
        assert "witness" in out
        assert "parity" in out

    def test_improper_file(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text('{"n": 3, "feasible": []}\n')
        assert main(["check", str(tmp_path / "s.json")]) == 1
        assert "no feasible sets" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = write_system(tmp_path / "s.json", SetSystem.from_sets(2, [[], [1, 2]]))
        assert main(["--format", "json", "check", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_matroid"] is True
        assert doc["even"] is True

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        # a set-system file is exactly {"n", "feasible"}: no field added
        for text in ("{quux", '{"n": 2, "feasible": [0, 3], "note": "x"}'):
            (tmp_path / "bad.json").write_text(text)
            assert main(["check", str(tmp_path / "bad.json")]) == 2
            assert capsys.readouterr().err.startswith("error: ")


UNDECODABLE = {
    "utf16-bom": b"\xff\xfe" + '{"n": 2, "feasible": [0]}'.encode("utf-16-le"),
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
@pytest.mark.parametrize("command", ["check", "encode", "roundtrip", "decode"])
def test_undecodable_file_is_a_format_error(name, command, tmp_path):
    # bytes that are not UTF-8, or JSON nested past the json module's
    # depth, exit 2 with one error line, like any other bad document
    path = tmp_path / "in.json"
    path.write_bytes(UNDECODABLE[name])
    argv = [command, str(path)] if command == "check" else [command, "--in", str(path)]
    result = subprocess.run(
        [sys.executable, "-m", "deltamatroid.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


class TestCount:
    def test_text_table(self, capsys):
        assert main(["count", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "5959" in out and "155" in out

    def test_json_exact_counts(self, capsys):
        assert main(["--format", "json", "count", "--max-n", "4", "--with-even"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_n = {row["n"]: row for row in doc["levels"]}
        assert by_n[3]["d"] == 155
        assert by_n[4]["d"] == 5959
        assert by_n[4]["e"] == 294
        assert abs(by_n[4]["gamma"] - 0.649) <= 5e-4

    def test_count_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, whose import shows in a cold count's
        # peak RSS; nothing on the count path needs it
        argv = ["--cache-dir", str(tmp_path / "c"), "count", "--max-n", "5"]
        code = (
            "import sys\n"
            "from deltamatroid import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    # 16 passes the ground-set check and still stops at the count limit
    @pytest.mark.parametrize("argv", [["--max-n", "7"], ["--max-n", "16"]])
    def test_limits_refused_before_any_work(self, argv, tmp_path, monkeypatch, capsys):
        def class_count(*args, **kwargs):
            raise AssertionError("level-6 class count started")

        monkeypatch.setattr(levels, "count_next_level_via_classes", class_count)
        assert main(["--cache-dir", str(tmp_path / "cache"), "count", *argv]) == 3
        assert "resource limit" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    @pytest.fixture
    def count_level4(self, monkeypatch):
        """The real class count, over level 4 so that it is quick, in place
        of the level-6 one; it reports 10**12."""
        class_count = levels.count_next_level_via_classes
        level4 = levels.build_levels(4)[4]

        def counted(prev):
            class_count(level4)
            return 10**12

        monkeypatch.setattr(levels, "count_next_level_via_classes", counted)

    def test_level6_needs_no_flag(self, count_level4, capsys):
        assert main(["count", "--max-n", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["6", "1000000000000"]

    @pytest.mark.skipif(
        not os.environ.get("DM_SLOW_TESTS"),
        reason="full level-6 class count (about 10 s); set DM_SLOW_TESTS=1",
    )
    def test_level6_count_end_to_end(self, capsys):
        assert main(["count", "--max-n", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["6", "2746801811279"]

    def test_verbose_level6_progress_has_eta(self, count_level4, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path / "cache"), "count", "--max-n", "6"]
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        # one checker record per checker call of the cold builds of levels
        # 1..4 (2, 5, 21 and 95 calls)
        lines = verbose.err.splitlines()
        checks = [line for line in lines if line.startswith("deltamatroid.setsystem: ")]
        assert all(re.fullmatch(CHECK_RECORD, line) for line in checks), checks
        assert [int(line.split()[2][2:-1]) for line in checks] == [1] * 2 + [2] * 5 + [3] * 21 + [4] * 95
        # the level-store records come first, each level's build after its
        # tables and fill, then the class count's
        lines = [line for line in lines if line not in checks]
        assert all(line.startswith("deltamatroid.levels: ") for line in lines), lines
        assert all(" tables " in line for line in lines[:10:2])
        assert all(" systems in " in line for line in lines[1:10:2])
        progress = [line for line in lines if ": classes " in line]
        assert [line.split()[4] for line in progress] == ["50/90", "90/90"]
        for line in progress:
            assert re.fullmatch(
                r"deltamatroid\.levels: level 5: classes \d+/90 \d+\.\ds eta \d+s", line
            ), line
        assert progress[-1].endswith(" eta 0s")
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert quiet.out == verbose.out
        assert "1000000000000" in quiet.out

    def test_verbose_class_count_phases_on_stderr_only(self, count_level4, tmp_path, capsys):
        # the class count's phase and progress records go to stderr, and
        # stdout does not change
        argv = ["--cache-dir", str(tmp_path / "cache"), "count", "--max-n", "6"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        records = verbose.err.splitlines()
        assert all(line.startswith("deltamatroid.levels: ") for line in records), records
        assert len(records) == 10, records
        assert re.fullmatch(
            r"deltamatroid\.levels: level 4: \d+ twist/relabel classes in \d+\.\d+s",
            records[5],
        )
        assert re.fullmatch(
            r"deltamatroid\.levels: level 5: compose kernel built in \d+\.\d+s", records[6]
        )
        assert [line.split()[4] for line in records[7:9]] == ["50/90", "90/90"]
        assert re.fullmatch(
            r"deltamatroid\.levels: level 5: \d+ class rows in \d+\.\d+s \(threads: \d+\)",
            records[9],
        )

    def test_text_table_columns(self, monkeypatch, capsys):
        assert main(["count", "--max-n", "3", "--with-even"]) == 0
        assert capsys.readouterr().out == (
            " n           d_n       gamma       e_n\n"
            " 1             3    1.000000         2\n"
            " 2            15    1.000000         6\n"
            " 3           155    0.865009        30\n"
        )
        # d_6 has 13 digits: the column widens for every row alike
        d6 = 2746801811279
        monkeypatch.setattr(levels, "count_next_level_via_classes", lambda *a, **k: d6)
        assert main(["count", "--max-n", "6", "--with-even"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == " n            d_n       gamma       e_n"
        assert lines[-1] == f" 6  {d6}    0.368799         -"
        assert {len(line) for line in lines} == {len(lines[0])}

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("count invariant violated")

        monkeypatch.setattr(levels, "count_report", broken)
        with pytest.raises(ValueError, match="count invariant violated"):
            main(["count", "--max-n", "1"])
        assert "error:" not in capsys.readouterr().err

    def test_oversized_ground_set(self, capsys):
        assert main(["count", "--max-n", "17"]) == 2

    def test_count_even_values(self, capsys):
        assert main(["--format", "json", "count", "--max-n", "4", "--with-even"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["e"] for row in doc["levels"]] == [2, 6, 30, 294]

    def test_count_even_level_limit(self, monkeypatch, capsys):
        # even counts stop at level 5: level 6 is counted, not listed
        monkeypatch.setattr(levels, "count_next_level_via_classes", lambda *a, **k: 10**12)
        assert main(["--format", "json", "count", "--max-n", "6", "--with-even"]) == 0
        rows = json.loads(capsys.readouterr().out)["levels"]
        assert ["e" in row for row in rows] == [True] * 5 + [False]

    def test_cache_reuse_is_byte_identical(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "count", "--max-n", "3"]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        assert first
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        assert first == second

    def test_corrupt_cache_recovers(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "count", "--max-n", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        with open(cache_path(cache_dir, 2), "wb") as fh:
            fh.write(b"not a cache")
        assert main(["--format", "json", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["levels"][-1]["d"] == 155

    def test_cache_that_is_not_a_complete_level(self, tmp_path, capsys):
        # a flipped order-preserving bit used to leave the level-4 file
        # loadable, with a top-element deletion that level 4 does not list;
        # it is not the file save writes, so it is rebuilt
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "count", "--max-n", "5"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        os.remove(cache_path(cache_dir, 5))
        path = cache_path(cache_dir, 4)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        offset = 14 + 2 * 3001
        assert data[offset:offset + 2] == (0x9EF9).to_bytes(2, "little")
        data[offset] ^= 1
        with open(path, "wb") as fh:
            fh.write(data)
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        assert_canonical_files(cache_dir, 5)

    def test_cache_without_a_single_set_system(self, tmp_path, capsys):
        # a level-4 file without the system {mask 5} used to load; the
        # antipodal pairs of level 5 are read off its single-set systems
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "count", "--max-n", "5", "--with-even"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        os.remove(cache_path(cache_dir, 5))
        path = cache_path(cache_dir, 4)
        v = levels.LevelCache.load(path).vectors
        levels.LevelCache(4, v[v != 1 << 5]).save(path)
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        assert_canonical_files(cache_dir, 5)

    @pytest.mark.parametrize("drop", [3, 1 << 5])
    @pytest.mark.parametrize("n_max, d", [(4, 5959), (5, 4980259)])
    def test_level_four_missing_a_system_heals(self, tmp_path, capsys, drop, n_max, d):
        # with {mask 5} dropped, count --max-n 4 once printed d4 = 5 958; with
        # vector 3 dropped, count --max-n 5 printed d5 = 4 980 026, exited 0
        # and stored that short level 5
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "--format", "json", "count"]
        assert main([*argv, "--max-n", "4"]) == 0
        capsys.readouterr()
        path = cache_path(cache_dir, 4)
        v = levels.LevelCache.load(path).vectors
        levels.LevelCache(4, v[v != drop]).save(path)
        assert main([*argv, "--max-n", str(n_max)]) == 0
        assert json.loads(capsys.readouterr().out)["levels"][-1]["d"] == d
        assert_canonical_files(cache_dir, n_max)

    def test_verbose_logs_level_store_to_stderr_only(self, tmp_path, capsys):
        cache_dir = tmp_path / "flag-cache"
        argv = ["--cache-dir", str(cache_dir), "count", "--max-n", "5"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        corrupt = cache_path(cache_dir, 3)
        with open(corrupt, "wb") as fh:
            fh.write(b"not a cache")
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        lines = verbose.err.splitlines()
        # the rebuild of level 3 makes 21 checker calls, one record each,
        # between the rejection and the build's timings
        checks = lines[3:24]
        assert all(re.fullmatch(CHECK_RECORD, line) for line in checks), checks
        assert all(" n=3: " in line for line in checks)
        lines = lines[:3] + lines[24:]
        assert len(lines) == 7
        assert all(line.startswith("deltamatroid.levels: level ") for line in lines)
        assert f"level 3: cache file rejected, recomputing: {corrupt}: " in lines[2]
        assert re.search(r"level 3: tables \d+\.\d+s, fill \d+\.\d+s$", lines[3])
        assert re.search(r"level 3: built 155 systems in \d+\.\d+s$", lines[4])
        for n, line in zip((1, 2, 4, 5), lines[:2] + lines[5:]):
            assert re.search(rf"level {n}: loaded \d+ systems in \d+\.\d+s$", line), line

    def test_flag_used_without_env(self, tmp_path, capsys):
        flag_dir = tmp_path / "flag-cache"
        assert main(["--cache-dir", str(flag_dir), "count", "--max-n", "2"]) == 0
        assert flag_dir.exists()

    def test_cache_dir_set_only_by_the_flag(self, tmp_path, monkeypatch, capsys):
        # the level caches are kept only where --cache-dir says
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv("DM_CACHE_DIR", str(env_dir))
        assert main(["count", "--max-n", "3"]) == 0
        assert not env_dir.exists()


class TestConstruct:
    def test_stable_complement(self, capsys):
        assert main(["construct", "stable-complement", "--n", "4", "--seed", "3"]) == 0
        system = loads_system(capsys.readouterr().out)
        assert system.n == 4
        assert is_delta_matroid(system)

    def test_cut_sample_reproducible(self, capsys):
        argv = ["construct", "cut-sample", "--n", "5", "--cut", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert is_delta_matroid(loads_system(first))

    def test_stacked_even_to_file(self, tmp_path, capsys):
        out = tmp_path / "stacked.json"
        assert main(
            ["construct", "stacked-even", "--n", "6", "--seed", "1", "--out", str(out)]
        ) == 0
        system = load_system(out)
        assert system.n == 6
        assert is_delta_matroid(system)

    def test_gs_stable_text_and_json(self, capsys):
        assert main(["construct", "gs-stable", "--n", "4", "--r", "2"]) == 0
        masks = [int(line) for line in capsys.readouterr().out.split()]
        assert len(masks) == 2
        assert main(["--format", "json", "construct", "gs-stable", "--n", "4", "--r", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["masks"]) == sorted(masks)

    def test_invalid_rank(self, capsys):
        assert main(["construct", "gs-stable", "--n", "4", "--r", "0"]) == 2

    def test_invalid_cut(self, capsys):
        assert main(["construct", "cut-sample", "--n", "4", "--cut", "9"]) == 2


class TestEncodeDecode:
    @pytest.fixture()
    def even_file(self, tmp_path):
        system = stacked_even_delta_matroid(5, random_stacked_layers(5, 12))
        return write_system(tmp_path / "even.json", system), system

    def test_encode_decode_pipeline(self, even_file, tmp_path, capsys):
        path, system = even_file
        record_path = tmp_path / "record.json"
        assert main(["encode", "--in", path, "--out", str(record_path)]) == 0
        assert main(["--format", "json", "decode", "--in", str(record_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = [
            m for m in range(32)
            if bin(m).count("1") % 2 == 0 and not system.has_mask(m)
        ]
        assert doc["infeasible_even"] == expected

    def test_roundtrip_reports_exact(self, even_file, capsys):
        path, _ = even_file
        assert main(["roundtrip", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "round trip: exact" in out
        assert "selection size" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verbose_logs_peel_to_stderr_only(self, even_file, fmt, tmp_path, capsys):
        path, _ = even_file
        record_path = str(tmp_path / "record.json")
        assert main(["encode", "--in", path, "--out", record_path]) == 0
        capsys.readouterr()
        peel = (
            r"deltamatroid\.encoding: peel n=5: \|S\|=\d+ \(bound \d+\), "
            r"\|A\|=\d+ \(alpha\*N=\d+\.\d\), \d+\.\d{3}s"
        )
        covers = r"deltamatroid\.encoding: covers n=5: \d+ read, \d+\.\d{3}s"
        flips = r"deltamatroid\.encoding: flips n=5: \d+ covers, \d+\.\d{3}s"
        for argv, expected in (
            (["encode", "--in", path], [peel, covers]),
            (["decode", "--in", record_path], [peel, flips]),
            (["roundtrip", "--in", path], [peel, covers, peel, flips]),
        ):
            assert main(["--format", fmt, *argv]) == 0
            quiet = capsys.readouterr()
            assert main(["--verbose", "--format", fmt, *argv]) == 0
            verbose = capsys.readouterr()
            assert verbose.out == quiet.out, argv
            assert quiet.err == ""
            lines = verbose.err.splitlines()
            assert len(lines) == len(expected), argv
            for line, pattern in zip(lines, expected):
                assert re.fullmatch(pattern, line), line

    def test_encode_rejects_mixed_parity(self, tmp_path, capsys):
        path = write_system(tmp_path / "odd.json", SetSystem.from_sets(3, [[], [1]]))
        assert main(["encode", "--in", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decode_rejects_bad_record(self, tmp_path, capsys):
        (tmp_path / "r.json").write_text('{"n": "nope"}')
        assert main(["decode", "--in", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("field, value", [("sigma", "7/3"), ("alpha", "1/100")])
    def test_decode_rejects_wrong_parameters(self, even_file, field, value, tmp_path, capsys):
        path, _ = even_file
        record_path = tmp_path / "record.json"
        assert main(["encode", "--in", path, "--out", str(record_path)]) == 0
        doc = json.loads(record_path.read_text())
        doc[field] = value
        record_path.write_text(json.dumps(doc))
        assert main(["decode", "--in", str(record_path)]) == 2
        assert f"field '{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("how", RECORD_TAMPERS)
    def test_decode_rejects_coerced_values(self, how, tmp_path, capsys):
        system = stacked_even_delta_matroid(7, random_stacked_layers(7, 0))
        doc = json.loads(encoding.dumps_record(encoding.encode_even_system(system)))
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(tamper_record(doc, how)))
        assert main(["decode", "--in", str(record_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decode_rejects_oversized_ground_set(self, tmp_path, capsys):
        record = {"n": 40, "parity": "even", "alpha": "1/41", "sigma": "1/100",
                  "s": [], "covers": [], "residual": []}
        (tmp_path / "r.json").write_text(json.dumps(record))
        assert main(["decode", "--in", str(tmp_path / "r.json")]) == 2
        assert "field 'n' must be an integer in 2..16" in capsys.readouterr().err


class TestSpectrumAndBound:
    def test_bound_json(self, capsys):
        assert main(["--format", "json", "bound", "--n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == "1/4"
        assert doc["bell_bound"] == 52
        assert doc["log_e_n_bound"] > 0

    def test_bound_rejects_tiny(self, capsys):
        assert main(["bound", "--n", "2"]) == 2

    def test_no_spectrum_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n", "4"])
        assert exc.value.code == 2
        assert "invalid choice: 'spectrum'" in capsys.readouterr().err


class TestLimits:
    """Out-of-range sizes exit 2 before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the limit check")

        for module, name in [
            (constructions, "random_stable_set"),
            (constructions, "sample_cut_construction"),
            (constructions, "random_stacked_layers"),
            (constructions, "graham_sloane_stable_set"),
            (encoding, "upper_bound_report"),
            (levels, "build_levels"),
            (levels, "count_next_level_via_classes"),
        ]:
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["construct", "cut-sample", "--n", "40"],
        ["construct", "gs-stable", "--n", "60", "--r", "30"],
        ["construct", "stable-complement", "--n", "40"],
        ["construct", "stacked-even", "--n", "0"],
        ["bound", "--n", "1100"],
        ["count", "--max-n", "0"],
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_size_refused_before_any_work(self, argv, capsys):
        assert main(argv) == 2
        assert "must be in 1..16" in capsys.readouterr().err


def _construct_argvs():
    """Every construct kind over a grid of n, seed and cut, cut errors and
    out-of-range ranks included, gs-stable in both formats."""
    for n in range(1, 11):
        for r in range(-1, n + 2):
            for fmt in ("text", "json"):
                yield ["--format", fmt, "construct", "gs-stable", "--n", str(n), "--r", str(r)]
        for seed in range(3):
            for kind in ("stable-complement", "stacked-even"):
                yield ["construct", kind, "--n", str(n), "--seed", str(seed)]
            for cut in range(n + 2):
                yield ["construct", "cut-sample", "--n", str(n), "--cut", str(cut), "--seed", str(seed)]
    for kind in ("stable-complement", "stacked-even", "cut-sample"):
        yield ["construct", kind, "--n", "12", "--cut", "5", "--seed", "7"]


class TestPinnedOutput:
    """Outputs byte for byte as the package has printed them, so that a
    rewrite of a construction or a report cannot change them silently."""

    def test_construct_outputs_pinned(self, capsys):
        digest = hashlib.sha256()
        count = 0
        for argv in _construct_argvs():
            code = main(argv)
            captured = capsys.readouterr()
            digest.update(f"{argv} {code}\n{captured.out}\n{captured.err}\n".encode())
            count += 1
        assert count == 458
        assert digest.hexdigest() == (
            "9030d8e34dc18765a427365232868d8aa6b0081381045c1bd5f72ae1e756a967"
        )

    def test_bound_text_pinned(self, capsys):
        digest = hashlib.sha256()
        for n in range(3, 17):
            assert main(["bound", "--n", str(n)]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "77028810dbdf3b840d9185e914f8a033dd6c769def221d66203f1bba59692481"
        )
        assert main(["bound", "--n", "3"]) == 0
        assert capsys.readouterr().out == (
            "n: 3\n"
            "alpha: 1/4\n"
            "sigma: 0.34657359027997264\n"
            "sigma_prime: 3/4\n"
            "bell_bound: 15\n"
            "log_e_n_bound: 33.49149345455791\n"
        )

    # the only command that prints e_n, over every listed level
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "212da03289f0f426a7161793e771290d675774066c910c704605d70ef78c9856"),
        ("json", "77faa9486818b01a0835063e193e011f30c7e844236b4f2fba3e794b998f0db7"),
    ])
    def test_count_with_even_pinned(self, fmt, digest, capsys):
        assert main(["--format", fmt, "count", "--max-n", "5", "--with-even"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("system, code, text", [
        (SetSystem.from_sets(3, [[], [1], [2]]), 0,
         "system: n=3, feasible sets: 3\n"
         "verdict: delta-matroid\n"
         "parity: mixed-parity sizes\n"),
        (SetSystem.from_sets(2, [[], [1, 2]]), 0,
         "system: n=2, feasible sets: 2\n"
         "verdict: delta-matroid\n"
         "parity: uniform-parity sizes\n"),
        (SetSystem.from_sets(3, [[], [1, 2, 3]]), 1,
         "system: n=3, feasible sets: 2\n"
         "verdict: not a delta-matroid "
         "(witness: X=[], Y=[1, 2, 3], e=1 admits no exchange)\n"
         "parity: mixed-parity sizes\n"),
        (SetSystem(3, 0), 1,
         "system: n=3, feasible sets: 0\n"
         "verdict: not a delta-matroid (no feasible sets)\n"),
    ], ids=["accepted-mixed", "accepted-uniform", "violating", "improper"])
    def test_check_text_pinned(self, system, code, text, tmp_path, capsys):
        assert main(["check", write_system(tmp_path / "s.json", system)]) == code
        assert capsys.readouterr().out == text


class TestInstalledScript:
    def test_console_entry_point(self):
        exe = shutil.which("dmtool")
        assert exe, "console script not installed"
        result = subprocess.run(
            [exe, "--format", "json", "count", "--max-n", "3"],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/usr/local/bin"},
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["levels"][-1]["d"] == 155
