"""Trace serialization: a text interchange format and a columnar artifact.

The paper's profiling flow instruments the QEMU disassembler to "output the
trace of instructions executed and data accessed" for offline analysis
(Sec. III-C).  Two formats carry a dynamic stream, told apart by their
first line.

**v1, text** (:func:`dump_trace` / :func:`load_trace`): the interchange
format, one tab-separated line per dynamic instruction —

    seq <TAB> uid <TAB> pc-hex <TAB> mem-hex|- <TAB> taken|-|T|N <TAB> asm

The assembly column round-trips through :mod:`repro.isa.assembly`, so a
dumped trace reloads without needing the generating program.

**v2, columnar** (:func:`encode_columnar` / :func:`decode_columnar`): the
artifact cache's format.  A dynamic stream repeats a few thousand static
instructions across tens of thousands of entries, so v2 stores each
distinct static instruction once and each entry as a row of small
integers::

    # repro-trace v2
    {"entries": N, "mem_none": S, "name": ..., "program_name": ...,
     "seq_start": 0, "statics": [[opcode, dests, srcs, imm, cond,
                                  target, encoding, cdp_cover, uid], ...]}
    static u2 <base64>
    pc u4 <base64>
    mem u4 <base64>
    taken i1 <base64>
    # crc32 <hex>

The JSON line holds the names, the entry count and the statics table,
one record per distinct ``(uid, instruction)`` value.  Each column line
is ``name code data``: ``code`` is ``u``/``i`` (unsigned/signed) plus
the byte width, the narrowest that fits the column, and ``data`` is the
little-endian packed column in base64.  ``static`` indexes the statics table, ``mem`` holds
``mem_none`` where an entry has no address, and ``taken`` is −1 (not a
branch), 0 or 1.  A dense ``seq`` (``start, start+1, ...``) is stored as
``seq_start`` alone; otherwise ``seq_start`` is null and a ``seq`` column
follows.  The trailer is the CRC-32 of every byte before it, so a torn or
flipped blob fails to decode instead of loading wrong numbers.  A
static record costs about as much as a v1 line, so v2 is the smaller of
the two once a walk repeats its statics, as the benchmark's walks do.

:func:`decode_artifact` reads either format by its header line, so v1
artifacts written before v2 existed still load under the same cache keys.
"""

from __future__ import annotations

import base64
import io
import json
import sys
import zlib
from array import array
from typing import Dict, List, TextIO, Tuple

from repro.isa.assembly import parse_line
from repro.isa.condition import Cond
from repro.isa.instruction import Encoding, Instruction
from repro.isa.opcodes import Opcode
from repro.trace.dynamic import Trace, TraceEntry

#: Format marker written as the first line of the text format.
HEADER = "# repro-trace v1"

#: Format marker written as the first line of the columnar format.
COLUMNAR_HEADER = "# repro-trace v2"


def dump_trace(trace: Trace, stream: TextIO) -> int:
    """Write ``trace`` to ``stream``; returns the number of entries."""
    stream.write(HEADER + "\n")
    stream.write(f"# name={trace.name}\n")
    stream.write(f"# program={trace.program_name}\n")
    count = 0
    for entry in trace:
        mem = f"{entry.mem_addr:#x}" if entry.mem_addr is not None else "-"
        if entry.taken is None:
            taken = "-"
        else:
            taken = "T" if entry.taken else "N"
        stream.write(
            f"{entry.seq}\t{entry.uid}\t{entry.pc:#x}\t{mem}\t{taken}\t"
            f"{entry.instr.to_text()}\n"
        )
        count += 1
    return count


def dump_trace_to_path(trace: Trace, path: str) -> int:
    """Write ``trace`` to a file path."""
    with open(path, "w") as handle:
        return dump_trace(trace, handle)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed."""


def load_trace(stream: TextIO) -> Trace:
    """Parse a trace previously written by :func:`dump_trace`.

    A dynamic stream repeats a few thousand *static* instructions across
    tens of thousands of entries, so parsed instructions are memoized by
    their ``(uid, asm)`` line — repeats share one ``Instruction`` object,
    exactly as a materialized trace shares the program's objects (the
    simulator's static-info caches rely on that identity).
    """
    first = stream.readline().rstrip("\n")
    if first != HEADER:
        raise TraceFormatError(f"bad header {first!r}; expected {HEADER!r}")
    name = "trace"
    program_name = ""
    entries: List[TraceEntry] = []
    statics: dict = {}
    statics_get = statics.get
    for lineno, raw in enumerate(stream, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name="):
                name = body[len("name="):]
            elif body.startswith("program="):
                program_name = body[len("program="):]
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise TraceFormatError(
                f"line {lineno}: expected 6 tab-separated fields, "
                f"got {len(fields)}"
            )
        seq_s, uid_s, pc_s, mem_s, taken_s, asm = fields
        try:
            static_key = (uid_s, asm)
            instr = statics_get(static_key)
            if instr is None:
                instr = parse_line(asm).with_uid(int(uid_s))
                statics[static_key] = instr
            entries.append(TraceEntry(
                seq=int(seq_s),
                instr=instr,
                pc=int(pc_s, 16),
                mem_addr=None if mem_s == "-" else int(mem_s, 16),
                taken=None if taken_s == "-" else taken_s == "T",
            ))
        except (ValueError, KeyError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    return Trace(entries, name=name, program_name=program_name)


def load_trace_from_path(path: str) -> Trace:
    """Load a trace from a file path."""
    with open(path) as handle:
        return load_trace(handle)


# -- the columnar format -------------------------------------------------------

#: Column code -> ``array`` typecode of that signedness and byte width.
_TYPECODES: Dict[str, str] = {
    f"{'i' if tc.islower() else 'u'}{array(tc).itemsize}": tc
    for tc in "QqIiHhBb"
}

#: Column codes narrowest first, with the value range each holds.
_WIDTHS: Tuple[Tuple[str, int, int], ...] = tuple(
    (f"{sign}{size}", lo, hi)
    for size in (1, 2, 4, 8)
    for sign, lo, hi in (("u", 0, (1 << 8 * size) - 1),
                         ("i", -(1 << 8 * size - 1), (1 << 8 * size - 1) - 1))
)

_BIG_ENDIAN = sys.byteorder == "big"

#: Enum member by value, for the statics table.
_OPCODES = {member.value: member for member in Opcode}
_CONDS = {member.value: member for member in Cond}
_ENCODINGS = {member.value: member for member in Encoding}

#: ``taken`` column value -> TraceEntry.taken (−1 indexes ``None``).
_TAKEN = (False, True, None)


def _pack(values: List[int]) -> str:
    """``code data`` for one column, in the narrowest code that fits."""
    lo, hi = (min(values), max(values)) if values else (0, 0)
    for code, code_lo, code_hi in _WIDTHS:
        if code_lo <= lo and hi <= code_hi:
            break
    else:
        raise TraceFormatError(
            f"column values {lo}..{hi} do not fit in 64 bits")
    packed = array(_TYPECODES[code], values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return f"{code} {base64.b64encode(packed.tobytes()).decode('ascii')}"


def _unpack(code: str, data: str, count: int) -> array:
    """Inverse of :func:`_pack`; the column must hold ``count`` values."""
    column = array(_TYPECODES[code])
    raw = base64.b64decode(data, validate=True)
    if len(raw) != count * column.itemsize:
        raise TraceFormatError(
            f"column holds {len(raw)} bytes, expected {count} "
            f"{code} values")
    column.frombytes(raw)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _static_record(instr: Instruction) -> list:
    return [instr.opcode.value, list(instr.dests), list(instr.srcs),
            instr.imm, instr.cond.value, instr.target, instr.encoding.value,
            instr.cdp_cover, instr.uid]


def _static_from_record(record: list) -> Instruction:
    (opcode, dests, srcs, imm, cond, target, encoding, cdp_cover,
     uid) = record
    for value in (imm, target, cdp_cover):
        if value is not None and type(value) is not int:
            raise TraceFormatError(f"bad static field {value!r}")
    if type(uid) is not int or type(dests) is not list \
            or type(srcs) is not list:
        raise TraceFormatError(f"bad static record {record!r}")
    return Instruction(_OPCODES[opcode], tuple(dests), tuple(srcs), imm,
                       _CONDS[cond], target, _ENCODINGS[encoding],
                       cdp_cover, uid)


def encode_columnar(trace: Trace) -> str:
    """Render ``trace`` in the columnar v2 format (module docstring)."""
    entries = trace.entries
    statics: List[Instruction] = []
    by_object: Dict[int, int] = {}
    by_value: Dict[Tuple[int, Instruction], int] = {}
    index: List[int] = []
    for entry in entries:
        # Entries mostly share their program's objects: look each object
        # up by identity first, and hash its value only once.
        instr = entry.instr
        slot = by_object.get(id(instr))
        if slot is None:
            slot = by_value.setdefault((instr.uid, instr), len(statics))
            if slot == len(statics):
                statics.append(instr)
            by_object[id(instr)] = slot
        index.append(slot)
    seqs = [e.seq for e in entries]
    mems = [e.mem_addr for e in entries]
    present = [m for m in mems if m is not None]
    mem_none = max(present) + 1 if present else 0
    seq_start = seqs[0] if seqs else 0
    dense = seqs == list(range(seq_start, seq_start + len(seqs)))
    header = {
        "entries": len(entries),
        "mem_none": mem_none,
        "name": trace.name,
        "program_name": trace.program_name,
        "seq_start": seq_start if dense else None,
        "statics": [_static_record(instr) for instr in statics],
    }
    lines = [
        COLUMNAR_HEADER,
        json.dumps(header, separators=(",", ":")),
        "static " + _pack(index),
        "pc " + _pack([e.pc for e in entries]),
        "mem " + _pack([mem_none if m is None else m for m in mems]),
        "taken " + _pack([-1 if e.taken is None else int(e.taken)
                          for e in entries]),
    ]
    if not dense:
        lines.append("seq " + _pack(seqs))
    body = "\n".join(lines) + "\n"
    return f"{body}# crc32 {zlib.crc32(body.encode('ascii')):08x}\n"


def decode_columnar(text: str) -> Trace:
    """Parse a blob written by :func:`encode_columnar`.

    Every malformed blob raises :class:`TraceFormatError`: a bad header
    or checksum, a column whose length is not the declared entry count,
    a static index outside the statics table, or a static record that
    :class:`Instruction` rejects.  Entries that share a static record
    share one ``Instruction`` object.
    """
    try:
        return _decode_columnar(text)
    except TraceFormatError:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise TraceFormatError(f"bad columnar trace: {exc}") from exc


def _decode_columnar(text: str) -> Trace:
    body, _, trailer = text[:-1].rpartition("\n")
    body += "\n"
    if not text.endswith("\n") \
            or trailer != f"# crc32 {zlib.crc32(body.encode('ascii')):08x}":
        raise TraceFormatError("columnar trace is truncated or corrupt")
    first, meta, *column_lines = body[:-1].split("\n")
    if first != COLUMNAR_HEADER:
        raise TraceFormatError(
            f"bad header {first!r}; expected {COLUMNAR_HEADER!r}")
    header = json.loads(meta)
    count = header["entries"]
    mem_none = header["mem_none"]
    seq_start = header["seq_start"]
    if type(count) is not int or count < 0 or type(mem_none) is not int:
        raise TraceFormatError(f"bad entry count {count!r} or mem_none")
    columns: Dict[str, array] = {}
    for line in column_lines:
        name, code, data = line.split(" ")
        if name in columns:
            raise TraceFormatError(f"duplicate column {name!r}")
        columns[name] = _unpack(code, data, count)
    expected = {"static", "pc", "mem", "taken"}
    if seq_start is None:
        expected.add("seq")
    elif type(seq_start) is not int:
        raise TraceFormatError(f"bad seq_start {seq_start!r}")
    if set(columns) != expected:
        raise TraceFormatError(
            f"columns {sorted(columns)}; expected {sorted(expected)}")
    statics = [_static_from_record(r) for r in header["statics"]]
    index, taken = columns["static"], columns["taken"]
    if count and (min(index) < 0 or max(index) >= len(statics)):
        raise TraceFormatError("static index out of range")
    if count and (min(taken) < -1 or max(taken) > 1):
        raise TraceFormatError("taken value out of range")
    seqs = columns["seq"] if seq_start is None \
        else range(seq_start, seq_start + count)
    entries = list(map(
        TraceEntry,
        seqs,
        map(statics.__getitem__, index),
        columns["pc"],
        [None if m == mem_none else m for m in columns["mem"]],
        map(_TAKEN.__getitem__, taken),
    ))
    name, program_name = header["name"], header["program_name"]
    if type(name) is not str or type(program_name) is not str:
        raise TraceFormatError("bad trace name")
    return Trace(entries, name=name, program_name=program_name)


def decode_artifact(text: str) -> Trace:
    """Parse a stored trace in either format, chosen by its first line."""
    if text.startswith(COLUMNAR_HEADER + "\n"):
        return decode_columnar(text)
    return load_trace(io.StringIO(text))
