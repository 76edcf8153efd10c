"""Tests for trace serialization."""

import io

import pytest

from repro.trace.trace_io import (
    COLUMNAR_HEADER,
    HEADER,
    TraceFormatError,
    decode_artifact,
    decode_columnar,
    dump_trace,
    dump_trace_to_path,
    encode_columnar,
    load_trace,
    load_trace_from_path,
)
from repro.workloads import generate, get_profile


@pytest.fixture(scope="module")
def trace():
    return generate(get_profile("Email"), walk_blocks=60).trace()


class TestRoundTrip:
    def test_full_round_trip(self, trace):
        buffer = io.StringIO()
        count = dump_trace(trace, buffer)
        assert count == len(trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert len(loaded) == len(trace)
        assert loaded.name == trace.name
        assert loaded.program_name == trace.program_name
        for a, b in zip(trace, loaded):
            assert a.seq == b.seq
            assert a.uid == b.uid
            assert a.pc == b.pc
            assert a.mem_addr == b.mem_addr
            assert a.taken == b.taken
            assert a.instr.signature() == b.instr.signature()
            assert a.instr.encoding == b.instr.encoding

    def test_dependences_survive_round_trip(self, trace):
        from repro.trace import compute_producers
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert compute_producers(trace) == compute_producers(loaded)

    def test_path_helpers(self, trace, tmp_path):
        path = tmp_path / "trace.tsv"
        dump_trace_to_path(trace, str(path))
        loaded = load_trace_from_path(str(path))
        assert len(loaded) == len(trace)

    def test_loaded_trace_simulates_identically(self, trace):
        from repro.cpu import simulate
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert simulate(trace).cycles == simulate(loaded).cycles


class TestCdpAndThumbRoundTrip:
    """A CritIC-compiled trace (CDP markers + Thumb-converted sizes) must
    survive dump/load exactly — the artifact cache stores scheme traces
    this way and re-simulates them expecting bit-identical stats."""

    @pytest.fixture(scope="class")
    def scheme_trace(self):
        from repro.compiler import CriticPass, PassManager, region_oracle
        from repro.profiler import FinderConfig, find_critic_profile
        workload = generate(get_profile("Email"), walk_blocks=60)
        trace = workload.trace()
        profile = find_critic_profile(
            trace, workload.program, FinderConfig(), app_name="Email",
        )
        records = profile.select_for_compiler(max_length=5)
        result = PassManager([
            CriticPass(records, mode="cdp",
                       may_alias=region_oracle(workload.memory)),
        ]).run(workload.program)
        return workload.trace_for(result.program)

    def test_trace_contains_cdp_and_thumb(self, scheme_trace):
        assert any(e.instr.cdp_cover is not None for e in scheme_trace)
        assert any(e.instr.size_bytes == 2 for e in scheme_trace)

    def test_cdp_markers_and_sizes_round_trip(self, scheme_trace):
        buffer = io.StringIO()
        dump_trace(scheme_trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert len(loaded) == len(scheme_trace)
        for a, b in zip(scheme_trace, loaded):
            assert a.instr.cdp_cover == b.instr.cdp_cover
            assert a.instr.size_bytes == b.instr.size_bytes
            assert a.instr.encoding == b.instr.encoding
            assert a.instr.signature() == b.instr.signature()

    def test_loaded_scheme_trace_simulates_identically(self, scheme_trace):
        import dataclasses
        from repro.cpu import simulate
        buffer = io.StringIO()
        dump_trace(scheme_trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert dataclasses.asdict(simulate(scheme_trace)) \
            == dataclasses.asdict(simulate(loaded))


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="bad header"):
            load_trace(io.StringIO("not a trace\n"))

    def test_wrong_field_count(self):
        text = HEADER + "\n0\t1\t0x10\n"
        with pytest.raises(TraceFormatError, match="6 tab-separated"):
            load_trace(io.StringIO(text))

    def test_bad_assembly(self):
        text = HEADER + "\n0\t1\t0x10\t-\t-\tFROB R1\n"
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO(text))

    def test_blank_and_comment_lines_skipped(self):
        text = HEADER + "\n# name=x\n\n0\t0\t0x10\t-\t-\tNOP\n"
        loaded = load_trace(io.StringIO(text))
        assert len(loaded) == 1
        assert loaded.name == "x"


# -- the columnar (v2) artifact format ----------------------------------------


def _v1_text(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def opp16_critic_trace():
    """A materialized OPP16+CritIC trace: CDP markers and Thumb sizes."""
    from repro.compiler import PassManager
    from repro.experiments.runner import app_context

    ctx = app_context("Email", 60)
    result = PassManager(ctx._passes("opp16_critic")).run(
        ctx.workload.program)
    return ctx.workload.trace_for(result.program)


@pytest.fixture(params=["baseline", "opp16_critic"])
def any_trace(request, trace, opp16_critic_trace):
    return trace if request.param == "baseline" else opp16_critic_trace


class TestColumnarRoundTrip:
    def test_scheme_trace_has_cdp_and_thumb(self, opp16_critic_trace):
        assert any(e.instr.cdp_cover is not None
                   for e in opp16_critic_trace)
        assert any(e.instr.size_bytes == 2 for e in opp16_critic_trace)

    def test_v2_then_v1_is_byte_identical(self, any_trace):
        text = encode_columnar(any_trace)
        assert text.startswith(COLUMNAR_HEADER + "\n")
        assert _v1_text(decode_columnar(text)) == _v1_text(any_trace)

    @pytest.mark.parametrize("app", ["Email", "Music"])
    def test_v2_is_smaller_than_v1_once_statics_repeat(self, app):
        """A static record costs about as much as a v1 line, so v2 wins
        once the walk repeats its statics, as 150-block walks do."""
        walked = generate(get_profile(app), walk_blocks=150).trace()
        assert len(encode_columnar(walked)) < len(_v1_text(walked))

    def test_same_uid_shares_one_instruction(self, any_trace):
        loaded = decode_columnar(encode_columnar(any_trace))
        by_uid = {}
        for entry in loaded:
            assert by_uid.setdefault(entry.uid, entry.instr) is entry.instr
        assert len(by_uid) < len(loaded)

    def test_loaded_trace_simulates_identically(self, any_trace):
        import dataclasses
        from repro.cpu import simulate
        loaded = decode_columnar(encode_columnar(any_trace))
        assert dataclasses.asdict(simulate(loaded)) \
            == dataclasses.asdict(simulate(any_trace))

    def test_window_with_nonzero_seq_round_trips(self, any_trace):
        window = any_trace.window(37, 500)
        assert window[0].seq == 37
        loaded = decode_columnar(encode_columnar(window))
        assert loaded.name == window.name
        assert _v1_text(loaded) == _v1_text(window)

    def test_sparse_seq_is_stored_as_a_column(self, trace):
        from repro.trace.dynamic import Trace
        sparse = Trace(trace.entries[::3], name="every-third")
        text = encode_columnar(sparse)
        assert "\nseq " in text
        assert _v1_text(decode_columnar(text)) == _v1_text(sparse)

    def test_empty_trace(self):
        from repro.trace.dynamic import Trace
        loaded = decode_columnar(encode_columnar(Trace([], name="empty")))
        assert len(loaded) == 0 and loaded.name == "empty"

    def test_columns_use_the_narrowest_width(self, trace):
        codes = dict(line.split(" ")[:2]
                     for line in encode_columnar(trace).splitlines()[2:-1])
        assert codes["taken"] == "i1"
        assert codes["static"] == "u2"

    def test_value_too_wide_raises(self, trace):
        from dataclasses import replace
        from repro.trace.dynamic import Trace
        huge = replace(trace[0], pc=1 << 64)
        with pytest.raises(TraceFormatError, match="64 bits"):
            encode_columnar(Trace([huge], name="huge"))

    def test_decode_artifact_reads_both_formats(self, trace):
        v1 = decode_artifact(_v1_text(trace))
        v2 = decode_artifact(encode_columnar(trace))
        assert _v1_text(v1) == _v1_text(v2) == _v1_text(trace)
