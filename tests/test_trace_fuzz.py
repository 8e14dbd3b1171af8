"""Trace IO hardening: property round-trips and malformed-input fuzz.

``load_trace`` validates eagerly — every error here must surface as a
:class:`TraceFormatError` carrying the offending line number, never as
an ``IndexError``/``KeyError``/``ValueError`` hundreds of ops later
inside the simulator.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st_

from repro.config import SystemConfig
from repro.core.types import MemOp, NodeId, OpType, Scope
from repro.trace.io import TraceFormatError, dump_trace, load_trace
from repro.trace.stream import Trace

CFG = SystemConfig.paper_scaled(1.0 / 64)

_ops = st_.builds(
    MemOp,
    op=st_.sampled_from(list(OpType)),
    address=st_.integers(min_value=0, max_value=2**40),
    node=st_.builds(NodeId,
                    gpu=st_.integers(0, CFG.num_gpus - 1),
                    gpm=st_.integers(0, CFG.gpms_per_gpu - 1)),
    cta=st_.integers(0, 63),
    scope=st_.sampled_from(list(Scope)),
    size=st_.integers(1, 4096),
)


def _dump(trace: Trace) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def _load(text: str, cfg=None) -> Trace:
    return load_trace(io.StringIO(text), cfg=cfg)


class TestRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=st_.lists(_ops, max_size=40))
    def test_any_op_list_roundtrips(self, ops):
        trace = Trace(name="fuzz", ops=ops, footprint_bytes=123,
                      kernels=2)
        back = _load(_dump(trace), cfg=CFG)
        assert list(back) == ops
        assert back.name == "fuzz"
        assert back.footprint_bytes == 123

    @settings(max_examples=25, deadline=None)
    @given(ops=st_.lists(_ops, min_size=1, max_size=20),
           drop=st_.integers(0, 19))
    def test_truncation_is_detected(self, ops, drop):
        """Deleting any op line breaks the declared count."""
        drop %= len(ops)
        lines = _dump(Trace(name="t", ops=ops)).splitlines()
        del lines[1 + drop]
        with pytest.raises(TraceFormatError, match="ops"):
            _load("\n".join(lines) + "\n")


def _valid_doc():
    header = {"format": "repro-trace", "version": 1, "name": "t",
              "footprint_bytes": 0, "kernels": 1, "meta": {}, "ops": 1}
    return header, [int(OpType.LOAD), 4096, 0, 0, 0, int(Scope.CTA), 128]


def _doc_text(header, row) -> str:
    return json.dumps(header) + "\n" + json.dumps(row) + "\n"


class TestMalformedRows:
    def _expect(self, row, pattern, cfg=None):
        header, _ = _valid_doc()
        header["ops"] = 1
        with pytest.raises(TraceFormatError, match=pattern) as excinfo:
            _load(_doc_text(header, row), cfg=cfg)
        assert "line 2" in str(excinfo.value)

    def test_bad_json_line(self):
        header, _ = _valid_doc()
        header["ops"] = 1
        with pytest.raises(TraceFormatError, match="line 2.*bad JSON"):
            _load(json.dumps(header) + "\n{not json\n")

    def test_wrong_row_shape(self):
        self._expect([1, 2, 3], "malformed op row")
        self._expect({"op": 1}, "malformed op row")

    def test_non_integer_fields(self):
        _, row = _valid_doc()
        row[1] = "0x1000"
        self._expect(row, "address must be an integer")
        _, row = _valid_doc()
        row[0] = True  # bool is not an op kind
        self._expect(row, "op must be an integer")

    def test_unknown_enums(self):
        _, row = _valid_doc()
        row[0] = 99
        self._expect(row, "unknown op kind")
        _, row = _valid_doc()
        row[5] = 42
        self._expect(row, "unknown scope")

    def test_negative_ids_and_sizes(self):
        _, row = _valid_doc()
        row[1] = -8
        self._expect(row, "negative address")
        _, row = _valid_doc()
        row[2] = -1
        self._expect(row, "negative id")
        _, row = _valid_doc()
        row[6] = 0
        self._expect(row, "size must be positive")

    @pytest.mark.parametrize("index,field_name,value", [
        (1, "address", 2**64),
        (2, "gpu", 2**8),
        (3, "gpm", 2**8),
        (4, "cta", 2**16),
        (6, "size", 2**32),
    ])
    def test_fields_wider_than_packed_record(self, index, field_name,
                                             value):
        """A value the packed record cannot hold is a format error, not
        an overflow (or a silent wrap) when the trace is packed."""
        _, row = _valid_doc()
        row[index] = value - 1  # the widest value that fits still loads
        header, _ = _valid_doc()
        assert len(_load(_doc_text(header, row))) == 1
        row[index] = value
        self._expect(row, f"{field_name} {value} out of range")

    def test_topology_bounds_require_cfg(self):
        _, row = _valid_doc()
        row[2] = CFG.num_gpus  # one past the end
        header, _ = _valid_doc()
        # Without a cfg the row is structurally fine...
        assert len(_load(_doc_text(header, row))) == 1
        # ...with one it is out of range.
        self._expect(row, "gpu .* out of range", cfg=CFG)
        _, row = _valid_doc()
        row[3] = CFG.gpms_per_gpu
        self._expect(row, "gpm .* out of range", cfg=CFG)


class TestMalformedHeaders:
    def _expect_header(self, mutate, pattern):
        header, row = _valid_doc()
        mutate(header)
        with pytest.raises(TraceFormatError, match=pattern):
            _load(_doc_text(header, row))

    def test_ops_count_type(self):
        self._expect_header(lambda h: h.update(ops="three"),
                            "ops count")
        self._expect_header(lambda h: h.update(ops=-1), "ops count")
        self._expect_header(lambda h: h.update(ops=True), "ops count")

    def test_numeric_fields(self):
        self._expect_header(lambda h: h.update(footprint_bytes="big"),
                            "footprint_bytes must be numeric")
        self._expect_header(lambda h: h.update(kernels=[1]),
                            "kernels must be numeric")

    def test_name_type(self):
        self._expect_header(lambda h: h.update(name=7),
                            "name must be a string")

    def test_header_is_not_an_object(self):
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            _load("[1, 2, 3]\n")


class TestPackedFieldWidths:
    @pytest.mark.parametrize("kwargs,field_name", [
        ({"address": 2**64}, "address"),
        ({"node": NodeId(2**8, 0)}, "gpu"),
        ({"node": NodeId(0, 2**8)}, "gpm"),
        ({"cta": 2**16}, "cta"),
        ({"cta": -1}, "cta"),
        ({"size": 2**32}, "size"),
    ])
    def test_hand_built_op_too_wide_is_rejected(self, kwargs, field_name):
        """Packing a hand-built op list range-checks every field rather
        than relying on numpy's cast (which raises ``OverflowError`` or
        wraps, depending on the numpy version)."""
        fields = {"op": OpType.LOAD, "address": 4096,
                  "node": NodeId(0, 0), "cta": 0, "scope": Scope.CTA,
                  "size": 128}
        fields.update(kwargs)
        ok = MemOp(OpType.LOAD, 0, NodeId(0, 0))
        with pytest.raises(ValueError,
                           match=f"op 1: {field_name} .* does not fit"):
            Trace(name="wide", ops=[ok, MemOp(**fields)])
