"""A crash mid-append must not take the next good record with it.

Every durable log — results store, run journal, run registry — is
torn with ``truncate_tail`` (a crash mid-append), gets one
more record, and is reopened.  The fresh record must survive, and the
torn line must be the only corrupt one: an append that glues itself
onto the torn bytes loses both.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import SystemConfig
from repro.experiments.journal import RunJournal
from repro.experiments.store import ResultStore
from repro.faults.chaos import truncate_tail
from repro.telemetry.session import RunRegistry

CFG = SystemConfig.paper_scaled(1 / 64)


class StoreLog:
    @staticmethod
    def path(root):
        return next(root.glob("shard-*.jsonl"))

    @staticmethod
    def write(root, tag):
        with ResultStore(root) as store:
            key = "7" + tag.ljust(63, "0")  # one shard for every tag
            store.put(key, SimpleNamespace(wall_seconds=1.0), workload=tag)

    @staticmethod
    def read(root):
        with ResultStore(root) as store:
            return [meta["workload"] for meta in store.records()]


class JournalLog:
    @staticmethod
    def path(root):
        return root / "cells.jsonl"

    @staticmethod
    def write(root, tag):
        journal = RunJournal(root, context_key={})
        journal.record_cell(tag, "hmg", CFG)
        journal.close()

    @staticmethod
    def read(root):
        return [r["workload"]
                for r in RunJournal(root, context_key={}).cells()]


class RegistryLog:
    @staticmethod
    def path(root):
        return root / "registry.jsonl"

    @staticmethod
    def write(root, tag):
        RunRegistry(root).register("run", root / tag)

    @staticmethod
    def read(root):
        return [Path(e["dir"]).name for e in RunRegistry(root).entries()]


@pytest.mark.parametrize("log", [StoreLog, JournalLog, RegistryLog],
                         ids=["store", "journal", "registry"])
def test_append_after_torn_tail_survives(tmp_path, log):
    root = tmp_path / "log"
    root.mkdir()
    for tag in ("a", "b"):
        log.write(root, tag)
    truncate_tail(log.path(root), nbytes=5)  # "b" is torn

    log.write(root, "c")

    survivors = log.read(root)
    assert sorted(survivors) == ["a", "c"]
    lines = [ln for ln in log.path(root).read_bytes().splitlines()
             if ln.strip()]
    assert len(lines) - len(survivors) == 1  # only the torn line is bad
