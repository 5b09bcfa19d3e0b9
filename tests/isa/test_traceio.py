"""Unit tests for binary trace serialisation."""

import gc
import struct

import pytest

from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.isa import DynUop, assemble, execute
from repro.isa import traceio
from repro.isa.traceio import (TraceFormatError, dumps_trace, load_trace,
                               save_trace)


def sample_trace():
    program = assemble("""
        movi r1, 40
        movi r2, 4096
    loop:
        and  r3, r1, 7
        load r4, [r2 + r3*8]
        store r4, [r2 + r3*8 + 512]
        fadd r5, r5, r4
        call fn
        sub r1, r1, 1
        bnez r1, loop
        halt
    fn:
        add r6, r6, 1
        ret
    """)
    memory = {4096 + i * 8: i * 3 for i in range(8)}
    return program, execute(program, memory)


def test_roundtrip_preserves_every_field(tmp_path):
    _, trace = sample_trace()
    path = str(tmp_path / "t.cdft")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    for a, b in zip(trace, loaded):
        assert a.seq == b.seq
        assert a.pc == b.pc
        assert a.op == b.op
        assert a.dst == b.dst
        assert a.srcs == b.srcs
        assert a.exec_lat == b.exec_lat
        assert a.exec_class == b.exec_class
        assert a.is_load == b.is_load
        assert a.is_store == b.is_store
        assert a.is_branch == b.is_branch
        assert a.is_cond_branch == b.is_cond_branch
        assert a.mem_addr == b.mem_addr
        assert a.taken == b.taken
        assert a.next_pc == b.next_pc
        assert a.src_deps == b.src_deps
        assert a.store_dep == b.store_dep


def test_write_read_write_is_bit_identical(tmp_path):
    """Serialisation is canonical: saving a loaded trace reproduces the
    original file byte for byte (so cached trace files are stable keys)."""
    _, trace = sample_trace()
    first = tmp_path / "a.cdft"
    second = tmp_path / "b.cdft"
    save_trace(trace, str(first))
    save_trace(load_trace(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_loaded_trace_simulates_identically(tmp_path):
    _, trace = sample_trace()
    path = str(tmp_path / "t.cdft")
    save_trace(trace, path)
    loaded = load_trace(path)
    a = BaselinePipeline(trace, SimConfig.baseline()).run()
    b = BaselinePipeline(loaded, SimConfig.baseline()).run()
    assert a.cycles == b.cycles
    assert dict(a.counters) == dict(b.counters)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cdft"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TraceFormatError, match="not a CDFT"):
        load_trace(str(path))


@pytest.mark.parametrize("version", [1, 99])
def test_bad_version_rejected(tmp_path, version):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    data = bytearray(path.read_bytes())
    data[4] = version
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError,
                       match=f"version {version}, expected 2"):
        load_trace(str(path))


@pytest.mark.parametrize("size", [4, 6, 16])
def test_short_buffer_rejected(size):
    """A buffer too short for the version or the header is a format
    error, not a struct.error (the trace store only catches the former)."""
    data = dumps_trace(sample_trace()[1])[:size]
    with pytest.raises(TraceFormatError, match="truncated"):
        traceio.loads_trace(data)


def test_truncated_file_rejected(tmp_path):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(str(path))


def test_trailing_bytes_rejected(tmp_path):
    _, trace = sample_trace()
    path = tmp_path / "t.cdft"
    save_trace(trace, str(path))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(TraceFormatError, match="trailing"):
        load_trace(str(path))


def test_empty_trace_roundtrip(tmp_path):
    path = str(tmp_path / "empty.cdft")
    save_trace([], path)
    assert load_trace(path) == []


def test_current_format_is_v2_columnar():
    _, trace = sample_trace()
    data = dumps_trace(trace)
    version = struct.unpack_from("<H", data, 4)[0]
    assert version == traceio.VERSION == 2


class _GCProbeUop(DynUop):
    """Records whether the cyclic collector was on when each uop was
    built."""

    seen = []

    def __init__(self, *args, **kwargs):
        _GCProbeUop.seen.append(gc.isenabled())
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_trace_pauses_gc_and_restores_its_state(monkeypatch, enabled):
    """The decoder builds uops with the collector paused, and leaves it
    on or off as it found it, also when the trace is corrupt."""
    _, trace = sample_trace()
    data = dumps_trace(trace)
    corrupt = bytearray(data)
    corrupt[traceio._COLUMNS_OFFSET + 4 * len(trace) + 1] = 0xFE  # op
    monkeypatch.setattr(traceio, "DynUop", _GCProbeUop)
    monkeypatch.setattr(_GCProbeUop, "seen", [])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(traceio.loads_trace(data)) == len(trace)
        assert gc.isenabled() is enabled
        with pytest.raises(TraceFormatError, match="at uop 1"):
            traceio.loads_trace(bytes(corrupt))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(_GCProbeUop.seen) == len(trace) + 1
    assert not any(_GCProbeUop.seen)
