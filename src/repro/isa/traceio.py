"""Binary trace serialisation.

Functional execution of the bigger kernels takes longer than replaying
them; saving the dynamic uop trace lets experiment sweeps (and other
tools) reuse one functional run, the way trace-driven simulators ship
trace files.

Version 2 is *columnar*: fixed-width per-uop fields are stored as whole
arrays rather than interleaved records, so the decoder lifts each
column with one bulk ``struct.unpack_from`` instead of walking a byte
offset through millions of heterogeneous records.  Layout,
little-endian throughout::

    header:   magic 'CDFT', version u16, uop count u64,
              srcs total u64, mem count u64, deps total u64,
              load count u64
    columns:  pc u32[n], op u8[n], flags u8[n], dst u8[n] (0xFF=none),
              n_srcs u8[n], next_pc u32[n], n_deps u8[n]
    blobs:    srcs u8[srcs_total]        (concatenated, row order)
              mem_addr u64[mem_count]    (rows with MEM flag, row order)
              deps u64[deps_total]       (concatenated, row order)
              store_dep i64[load_count]  (rows with LOAD flag, row order)

Version 1 (interleaved records) is no longer read: a v1 file is
rejected like any other version mismatch.  ``exec_lat`` and
``exec_class`` are recomputed from the opcode on load, so traces stay
valid if latency tables are retuned.
"""

from __future__ import annotations

import struct
from typing import List

from .dynuop import DynUop, gc_paused
from .opcodes import EXEC_CLASS, EXEC_LATENCY, Opcode

MAGIC = b"CDFT"
VERSION = 2

_FLAG_LOAD = 1
_FLAG_STORE = 2
_FLAG_BRANCH = 4
_FLAG_COND = 8
_FLAG_TAKEN = 16
_FLAG_MEM = 32

#: Int-keyed copies of the latency/class tables. ``loads_trace`` runs
#: once per uop; indexing these avoids an ``Opcode(op)`` enum
#: construction per uop (unknown opcodes raise KeyError, which the
#: deserializer's error handler turns into a TraceFormatError).
_EXEC_LAT_BY_OP = {int(op): EXEC_LATENCY[op] for op in Opcode}
_EXEC_CLASS_BY_OP = {int(op): EXEC_CLASS[op] for op in Opcode}

_V2_HEADER = struct.Struct("<HQQQQQ")  # version + the five counts
_COLUMNS_OFFSET = 4 + _V2_HEADER.size  # past the magic and the header

#: flags byte -> (is_load, is_store, is_branch, is_cond_branch, taken,
#: has_mem); decoding runs once per uop, so the six bit tests are paid
#: once per distinct flag byte here instead of once per uop.
_FLAG_DECODE = tuple(
    (bool(f & _FLAG_LOAD), bool(f & _FLAG_STORE), bool(f & _FLAG_BRANCH),
     bool(f & _FLAG_COND), bool(f & _FLAG_TAKEN), bool(f & _FLAG_MEM))
    for f in range(64))


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or version-incompatible."""


def dumps_trace(trace: List[DynUop]) -> bytes:
    """Serialize *trace* to the binary trace format (in memory).

    ``save_trace`` is ``dumps_trace`` plus a file write; the harness's
    persistent trace store uses the byte form directly so it can write
    entries atomically (temp file + ``os.replace``).
    """
    n = len(trace)
    pcs: List[int] = []
    ops: List[int] = []
    flags_col: List[int] = []
    dsts: List[int] = []
    n_srcs: List[int] = []
    next_pcs: List[int] = []
    n_deps: List[int] = []
    srcs_blob = bytearray()
    mem_addrs: List[int] = []
    deps_blob: List[int] = []
    store_deps: List[int] = []
    for uop in trace:
        flags = ((_FLAG_LOAD if uop.is_load else 0)
                 | (_FLAG_STORE if uop.is_store else 0)
                 | (_FLAG_BRANCH if uop.is_branch else 0)
                 | (_FLAG_COND if uop.is_cond_branch else 0)
                 | (_FLAG_TAKEN if uop.taken else 0)
                 | (_FLAG_MEM if uop.mem_addr is not None else 0))
        pcs.append(uop.pc)
        ops.append(uop.op)
        flags_col.append(flags)
        dsts.append(0xFF if uop.dst is None else uop.dst)
        n_srcs.append(len(uop.srcs))
        next_pcs.append(uop.next_pc)
        n_deps.append(len(uop.src_deps))
        srcs_blob += bytes(uop.srcs)
        if uop.mem_addr is not None:
            mem_addrs.append(uop.mem_addr)
        deps_blob.extend(uop.src_deps)
        if uop.is_load:
            store_deps.append(uop.store_dep)
    out = bytearray()
    out += MAGIC
    out += _V2_HEADER.pack(VERSION, n, len(srcs_blob), len(mem_addrs),
                           len(deps_blob), len(store_deps))
    out += struct.pack(f"<{n}I", *pcs)
    out += bytes(ops)
    out += bytes(flags_col)
    out += bytes(dsts)
    out += bytes(n_srcs)
    out += struct.pack(f"<{n}I", *next_pcs)
    out += bytes(n_deps)
    out += bytes(srcs_blob)
    out += struct.pack(f"<{len(mem_addrs)}Q", *mem_addrs)
    out += struct.pack(f"<{len(deps_blob)}Q", *deps_blob)
    out += struct.pack(f"<{len(store_deps)}q", *store_deps)
    return bytes(out)


def save_trace(trace: List[DynUop], path: str) -> None:
    """Write *trace* to *path* in the binary trace format."""
    with open(path, "wb") as handle:
        handle.write(dumps_trace(trace))


@gc_paused()
def _loads_v2(data: bytes, context: str) -> List[DynUop]:
    if len(data) < _COLUMNS_OFFSET:
        raise TraceFormatError(
            f"{context}: truncated v2 header ({len(data)} bytes)")
    (_version, n, n_srcs_total, n_mem, n_deps_total,
     n_loads) = _V2_HEADER.unpack_from(data, 4)
    need = (_COLUMNS_OFFSET + 13 * n + n_srcs_total
            + 8 * (n_mem + n_deps_total + n_loads))
    if len(data) < need:
        raise TraceFormatError(
            f"{context}: truncated v2 trace ({len(data)} bytes, "
            f"header implies {need})")
    if len(data) > need:
        raise TraceFormatError(
            f"{context}: {len(data) - need} trailing bytes")
    # Lift each column in one bulk operation.
    offset = _COLUMNS_OFFSET
    pcs = struct.unpack_from(f"<{n}I", data, offset)
    offset += 4 * n
    ops = data[offset:offset + n]
    offset += n
    flags_col = data[offset:offset + n]
    offset += n
    dsts = data[offset:offset + n]
    offset += n
    n_srcs = data[offset:offset + n]
    offset += n
    next_pcs = struct.unpack_from(f"<{n}I", data, offset)
    offset += 4 * n
    n_deps = data[offset:offset + n]
    offset += n
    srcs_blob = data[offset:offset + n_srcs_total]
    offset += n_srcs_total
    mem_addrs = struct.unpack_from(f"<{n_mem}Q", data, offset)
    offset += 8 * n_mem
    deps_blob = struct.unpack_from(f"<{n_deps_total}Q", data, offset)
    offset += 8 * n_deps_total
    store_deps = struct.unpack_from(f"<{n_loads}q", data, offset)
    # Slices of a tuple are tuples, so each uop's ``srcs`` and
    # ``src_deps`` cost one slice apiece.
    srcs_all = tuple(srcs_blob)
    trace: List[DynUop] = []
    append = trace.append
    lat_by_op = _EXEC_LAT_BY_OP
    class_by_op = _EXEC_CLASS_BY_OP
    flag_decode = _FLAG_DECODE
    dynuop = DynUop
    src_off = 0
    dep_off = 0
    mem_i = 0
    load_i = 0
    try:
        for seq, pc, op, flags, dst, k_srcs, next_pc, k_deps in zip(
                range(n), pcs, ops, flags_col, dsts, n_srcs, next_pcs,
                n_deps):
            (is_load, is_store, is_branch, is_cond, taken,
             has_mem) = flag_decode[flags]
            srcs = srcs_all[src_off:src_off + k_srcs]
            src_off += k_srcs
            deps = deps_blob[dep_off:dep_off + k_deps]
            dep_off += k_deps
            mem_addr = None
            if has_mem:
                mem_addr = mem_addrs[mem_i]
                mem_i += 1
            store_dep = -1
            if is_load:
                store_dep = store_deps[load_i]
                load_i += 1
            append(dynuop(
                seq, pc, op, None if dst == 0xFF else dst, srcs,
                lat_by_op[op], is_load, is_store, is_branch, is_cond,
                mem_addr, taken, next_pc, deps, store_dep,
                class_by_op[op]))
    except (KeyError, IndexError, struct.error) as exc:
        raise TraceFormatError(f"{context}: truncated or corrupt "
                               f"at uop {len(trace)}: {exc}") from exc
    if src_off != n_srcs_total or dep_off != n_deps_total \
            or mem_i != n_mem or load_i != n_loads:
        raise TraceFormatError(
            f"{context}: column totals disagree with per-uop counts")
    return trace


def loads_trace(data: bytes, context: str = "<bytes>") -> List[DynUop]:
    """Deserialize a trace from its binary byte form.

    *context* names the source in error messages (``load_trace`` passes
    the file path).
    """
    if data[:4] != MAGIC:
        raise TraceFormatError(f"{context}: not a CDFT trace file")
    if len(data) < 6:
        raise TraceFormatError(f"{context}: truncated before the version")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise TraceFormatError(
            f"{context}: trace version {version}, expected {VERSION}")
    return _loads_v2(data, context)


def load_trace(path: str) -> List[DynUop]:
    """Read a trace written by :func:`save_trace`."""
    with open(path, "rb") as handle:
        data = handle.read()
    return loads_trace(data, context=str(path))
