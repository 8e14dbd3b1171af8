"""Content-addressed results store: durability and replay contracts."""

from __future__ import annotations

from repro.config import SystemConfig
from repro.experiments.parallel import cell_key
from repro.experiments.runner import ExperimentContext
from repro.experiments.store import ResultStore, store_key
from repro.faults.chaos import truncate_tail

CFG = SystemConfig.paper_scaled(1 / 64)
QUICK = dict(seed=1, ops_scale=0.05)


def _simulate_one():
    ctx = ExperimentContext(CFG, **QUICK)
    return ctx.run("CoMD", "hmg")


def _key(seed=1, ops_scale=0.05, protocol="hmg"):
    return store_key(cell_key("CoMD", protocol, CFG, "first_touch",
                              None), seed, ops_scale)


class TestStoreKey:
    def test_discriminates_every_input(self):
        base = _key()
        assert base == _key()
        assert base != _key(seed=2)
        assert base != _key(ops_scale=0.1)
        assert base != _key(protocol="sw")


class TestRoundTrip:
    def test_put_get_across_reopen(self, tmp_path):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result, workload="CoMD", protocol="hmg")
        with ResultStore(tmp_path / "s") as store:
            replayed = store.get(_key())
        assert replayed is not None
        assert replayed.cycles == result.cycles
        assert replayed.ops == result.ops

    def test_wall_seconds_stripped(self, tmp_path):
        result = _simulate_one()
        assert result.wall_seconds > 0
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            assert store.get(_key()).wall_seconds == 0.0
        # The original result is untouched (put copies).
        assert result.wall_seconds > 0

    def test_miss_counts(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None
            assert store.stats() == {"hits": 0, "misses": 1, "puts": 0,
                                     "corrupt_records": 0}

    def test_non_hex_key_is_a_miss(self, tmp_path):
        # Keys arrive from the store CLI and the HTTP service unchecked.
        with ResultStore(tmp_path / "s") as store:
            assert store.get("zz-not-a-key") is None
            assert store.get("") is None
            assert store.misses == 2

    def test_last_writer_wins(self, tmp_path):
        result = _simulate_one()
        import copy

        newer = copy.copy(result)
        newer.cycles = result.cycles + 1
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            store.put(_key(), newer)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()).cycles == newer.cycles


class TestCorruption:
    def _shard(self, root):
        shards = list(root.glob("shard-*.jsonl"))
        assert len(shards) == 1
        return shards[0]

    def test_torn_record_warns_and_misses(self, tmp_path, capsys):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
        truncate_tail(self._shard(tmp_path / "s"), nbytes=7)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None  # corrupt => recompute
            assert store.corrupt_records == 1
        assert "corrupt record" in capsys.readouterr().err

    def test_recompute_after_truncation_survives_reopen(self, tmp_path):
        result = _simulate_one()
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
        truncate_tail(self._shard(tmp_path / "s"), nbytes=7)
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None
            store.put(_key(), result)  # the recompute
        # The healed append must land on its own line: a reopen reads
        # the fresh record even though the torn bytes precede it.
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()).cycles == result.cycles

    def test_flipped_bit_invalidates_one_record(self, tmp_path):
        result = _simulate_one()
        other = _key(protocol="sw")
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(), result)
            store.put(other, result)
        # Corrupt _key()'s record blob without tearing its line.
        for shard in (tmp_path / "s").glob("shard-*.jsonl"):
            lines = shard.read_bytes().splitlines(keepends=True)
            for i, line in enumerate(lines):
                if _key().encode() not in line:
                    continue
                blob_at = line.find(b'"blob": "') + 12
                lines[i] = (line[:blob_at]
                            + bytes([line[blob_at] ^ 0x01])
                            + line[blob_at + 1:])
                shard.write_bytes(b"".join(lines))
        with ResultStore(tmp_path / "s") as store:
            assert store.get(_key()) is None  # CRC caught the flip
            assert store.get(other) is not None  # blast radius: 1 record
            assert store.corrupt_records == 1


class TestContextIntegration:
    GRID = [("CoMD", p) for p in ("noremote", "sw", "hmg")]

    def test_cold_then_warm_run(self, tmp_path):
        cold = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        cold_results = cold.run_many(self.GRID)
        assert cold.store.puts == len(self.GRID)
        cold.store.close()

        warm = ExperimentContext(CFG, store=tmp_path / "s", **QUICK)
        warm_results = warm.run_many(self.GRID)
        stats = warm.store.stats()
        hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
        assert hit_rate >= 0.9
        assert warm._executor.cells_run == 0  # zero re-simulation
        assert [r.cycles for r in warm_results] == [
            r.cycles for r in cold_results
        ]

    def test_warm_run_journals_identically(self, tmp_path):
        from repro.experiments.journal import RunJournal

        journals = {}
        for label in ("cold", "warm"):
            journal = RunJournal(tmp_path / label, context_key={})
            ctx = ExperimentContext(CFG, store=tmp_path / "s",
                                    journal=journal, **QUICK)
            ctx.run_many(self.GRID)
            journal.close()
            ctx.store.close()
            journals[label] = (
                tmp_path / label / "cells.jsonl"
            ).read_bytes()
        assert journals["cold"] == journals["warm"]

    def test_store_respects_seed(self, tmp_path):
        seeded = ExperimentContext(CFG, store=tmp_path / "s", seed=1,
                                   ops_scale=0.05)
        seeded.run("CoMD", "hmg")
        seeded.store.close()
        reseeded = ExperimentContext(CFG, store=tmp_path / "s", seed=2,
                                     ops_scale=0.05)
        reseeded.run("CoMD", "hmg")
        assert reseeded.store.hits == 0  # different seed, full miss
