"""The durable append-log primitive's own contract."""

from __future__ import annotations

import json
import zlib

from repro.crclog import CrcLog, frame


def test_frame_matches_registry_and_metrics_lines():
    # The framing the registry has always written, so its existing
    # files stay readable.
    record = {"kind": "run", "dir": "/x", "info": {"b": 1.5, "a": "é"}}
    payload = json.dumps(record, sort_keys=True)
    legacy = json.dumps({"v": 1, "crc": zlib.crc32(payload.encode()),
                         "record": record}, sort_keys=True) + "\n"
    assert frame(record, 1) == legacy.encode()


def test_scan_skips_other_versions_and_decoder_rejects(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    other = CrcLog(path, 2, "test log")
    other.append({"n": 0})
    other.close()
    log = CrcLog(path, 1, "test log")
    log.append({"n": 1})
    log.append({"n": "two"})
    log.close()
    assert [r["n"] for r in log.scan()] == [1, "two"]
    assert log.corrupt == 1
    assert list(log.scan(lambda r: r["n"] + 1)) == [2]
    assert log.corrupt == 3
    err = capsys.readouterr().err
    assert "first at line 1 (not a version-1 record)" in err


def test_append_after_compact_reaches_the_new_file(tmp_path):
    path = tmp_path / "log.jsonl"
    log = CrcLog(path, 1, "test log")
    for n in range(3):
        log.append({"n": n})
    log.compact([{"n": 2}])
    log.append({"n": 3})
    log.close()
    assert [r["n"] for r in CrcLog(path, 1, "test log").scan()] == [2, 3]
    assert not path.with_name(path.name + ".tmp").exists()
