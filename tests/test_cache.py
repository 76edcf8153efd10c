"""Tests for the content-addressed artifact cache and its runner wiring."""

import base64
import dataclasses
import io
import json
import sys
import zlib
from array import array

import pytest

import repro.cache as cache_mod
from repro import telemetry
from repro.cache import ArtifactCache, artifact_key
from repro.cpu import GOOGLE_TABLET, simulate
from repro.experiments.runner import app_context, clear_cache, run_apps
from repro.profiler import FinderConfig, find_critic_profile
from repro.trace.trace_io import COLUMNAR_HEADER, dump_trace
from repro.workloads import generate, get_profile


def _v1(trace) -> str:
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(root=str(tmp_path), enabled=True)


@pytest.fixture(scope="module")
def workload():
    return generate(get_profile("Email"), walk_blocks=60)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Route the process-wide cache at a fresh directory for one test."""
    monkeypatch.setenv(cache_mod.ENV_DIR, str(tmp_path))
    monkeypatch.delenv(cache_mod.ENV_ENABLE, raising=False)
    cache_mod.reset_cache()
    clear_cache()
    yield tmp_path
    cache_mod.reset_cache()
    clear_cache()


class TestArtifactKey:
    def test_deterministic(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile) \
            == artifact_key("trace", profile=profile)

    def test_walk_blocks_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile.scaled(0.5)) \
            != artifact_key("trace", profile=profile)

    def test_scheme_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile, scheme="critic") \
            != artifact_key("trace", profile=profile, scheme="baseline")

    def test_schema_bump_changes_key(self, monkeypatch):
        profile = get_profile("Email")
        before = artifact_key("trace", profile=profile)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        assert artifact_key("trace", profile=profile) != before

    def test_kind_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile) \
            != artifact_key("stats", profile=profile)

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError):
            artifact_key("trace", fn=lambda: None)


class TestArtifactStore:
    def test_trace_round_trip(self, store, workload):
        trace = workload.trace()
        key = artifact_key("trace", profile=workload.profile)
        assert store.load_trace(key) is None
        store.store_trace(key, trace)
        loaded = store.load_trace(key)
        assert loaded is not None
        assert len(loaded) == len(trace)
        assert dataclasses.asdict(simulate(loaded)) \
            == dataclasses.asdict(simulate(trace))

    def test_profile_round_trip(self, store, workload):
        profile = find_critic_profile(
            workload.trace(), workload.program, FinderConfig(),
            app_name="Email",
        )
        key = artifact_key("critic_profile", profile=workload.profile)
        store.store_profile(key, profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.records == profile.records
        assert loaded.profiled_instructions == profile.profiled_instructions

    def test_stats_round_trip(self, store, workload):
        stats = simulate(workload.trace())
        key = artifact_key("stats", profile=workload.profile,
                           config=GOOGLE_TABLET)
        store.store_stats(key, stats)
        loaded = store.load_stats(key)
        assert loaded is not None
        assert dataclasses.asdict(loaded) == dataclasses.asdict(stats)

    def test_schema_bump_invalidates(self, store, workload, monkeypatch):
        stats = simulate(workload.trace())
        key = artifact_key("stats", profile=workload.profile)
        store.store_stats(key, stats)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        # both the key and the on-disk namespace move
        assert store.load_stats(artifact_key(
            "stats", profile=workload.profile)) is None

    def test_disabled_store_is_noop(self, tmp_path, workload):
        store = ArtifactCache(root=str(tmp_path), enabled=False)
        stats = simulate(workload.trace())
        store.store_stats("0" * 64, stats)
        assert store.load_stats("0" * 64) is None
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_artifact_is_a_miss(self, store, workload):
        key = artifact_key("trace", profile=workload.profile)
        path = store.path_for("trace", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a trace\n")
        assert store.load_trace(key) is None

    def test_clear(self, store, workload):
        stats = simulate(workload.trace())
        store.store_stats("ab" * 32, stats)
        assert store.clear() == 1
        assert store.load_stats("ab" * 32) is None

    def test_clear_deletes_but_never_counts_orphan_tmp_files(
            self, store, workload):
        """An interrupted atomic write leaves a ``.tmp-*`` orphan next
        to the artifacts.  ``clear()`` must sweep it away, but the
        return value counts artifacts — the orphan was never one."""
        stats = simulate(workload.trace())
        store.store_stats("ab" * 32, stats)
        artifact = store.path_for("stats", "ab" * 32)
        orphan = artifact.parent / ".tmp-1234-abandoned"
        orphan.write_bytes(b"partial write")
        assert store.clear() == 1  # the stats artifact, not the orphan
        assert not orphan.exists()
        assert not artifact.exists()


def _reseal(body: str) -> str:
    """Append a valid CRC trailer, so a blob exercises the decoder's own
    checks instead of failing on the checksum."""
    return f"{body}# crc32 {zlib.crc32(body.encode('ascii')):08x}\n"


def _edit_line(text: str, prefix: str, edit) -> str:
    """Reseal ``text`` with its line starting ``prefix`` passed through
    ``edit`` (dropped when ``edit`` returns ``None``)."""
    lines = [edit(line) if line.startswith(prefix) else line
             for line in text.splitlines()[:-1]]
    lines = [line for line in lines if line is not None]
    return _reseal("\n".join(lines) + "\n")


def _static_line(text: str, values) -> str:
    """Replace the static-index column with packed ``values``."""
    packed = array("H", values)
    if sys.byteorder == "big":
        packed.byteswap()
    data = base64.b64encode(packed.tobytes()).decode("ascii")
    return _edit_line(text, "static ",
                      lambda line: f"static u2 {data}")


def _flip(text: str, prefix: str, char: str) -> str:
    """Overwrite one byte in the middle of a column's base64 data."""
    start = text.index("\n" + prefix) + len(prefix) + 5
    if text[start] == char:
        start += 1
    return text[:start] + char + text[start + 1:]


def _corruptions(text: str):
    header = json.loads(text.splitlines()[1])
    n_statics = len(header["statics"])
    n_entries = header["entries"]
    bad_record = dict(header, statics=[["ADD", [99], [], None, "AL", None,
                                        "arm32", None, 1]])
    yield "truncated half", text[: len(text) // 2]
    yield "truncated trailer", text[: text.rindex("# crc32")]
    yield "missing final newline", text[:-1]
    yield "flipped base64 byte", _flip(text, "pc ", "A")
    yield "non-base64 byte", _flip(text, "mem ", "*")
    yield "flipped header byte", text.replace('"entries"', '"entriez"', 1)
    yield "short column", _edit_line(
        text, "pc ", lambda line: line[: len(line) - 8])
    yield "static index out of range", _static_line(
        text, [0] * (n_entries - 1) + [n_statics])
    yield "missing column", _edit_line(
        text, "taken ", lambda line: None)
    yield "unknown width", _edit_line(
        text, "pc ", lambda line: line.replace("pc u4", "pc u3", 1))
    yield "bad JSON header", _edit_line(
        text, "{", lambda line: line[:-1])
    yield "JSON header not an object", _edit_line(
        text, "{", lambda line: "[1, 2]")
    yield "invalid static record", _edit_line(
        text, "{", lambda line: json.dumps(
            dict(bad_record, statics=bad_record["statics"] * n_statics)))
    yield "taken out of range", _edit_line(
        text, "taken ", lambda line: "taken i1 " + base64.b64encode(
            bytes([2]) * n_entries).decode("ascii"))


class TestColumnarArtifact:
    """Trace artifacts are stored in the columnar v2 format; any
    malformed v2 blob degrades to a counted miss, and v1 text artifacts
    stored before v2 existed still load."""

    def test_store_writes_v2_and_round_trips(self, store, workload):
        trace = workload.trace()
        key = artifact_key("trace", profile=workload.profile)
        store.store_trace(key, trace)
        text = store.path_for("trace", key).read_text()
        assert text.startswith(COLUMNAR_HEADER + "\n")
        loaded = store.load_trace(key)
        assert _v1(loaded) == _v1(trace)

    def test_v1_artifact_at_a_v2_era_key_still_loads(self, store, workload):
        trace = workload.trace()
        key = artifact_key("trace", profile=workload.profile)
        path = store.path_for("trace", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_v1(trace))
        before = telemetry.counters().get("cache.corrupt.trace", 0)
        loaded = store.load_trace(key)
        assert loaded is not None
        assert _v1(loaded) == _v1(trace)
        assert telemetry.counters().get("cache.corrupt.trace", 0) == before

    def test_encode_and_decode_phases_nest_in_store_and_load(
            self, store, workload):
        key = artifact_key("trace", profile=workload.profile)
        telemetry.reset()
        store.store_trace(key, workload.trace())
        store.load_trace(key)
        phases = telemetry.phase_stats()
        for outer, inner in (("cache.store_trace", "cache.encode_trace"),
                             ("cache.load_trace", "cache.decode_trace")):
            assert phases[inner]["calls"] == phases[outer]["calls"] == 1
            assert phases[inner]["total_s"] <= phases[outer]["total_s"]

    def test_malformed_blobs_are_counted_misses(self, store, workload):
        trace = workload.trace()
        key = artifact_key("trace", profile=workload.profile)
        store.store_trace(key, trace)
        path = store.path_for("trace", key)
        good = path.read_text()
        assert store.load_trace(key) is not None
        cases = list(_corruptions(good))
        assert len(cases) == 14
        for label, blob in cases:
            assert blob != good, label
            path.write_text(blob)
            before = telemetry.counters().get("cache.corrupt.trace", 0)
            assert store.load_trace(key) is None, label
            after = telemetry.counters().get("cache.corrupt.trace", 0)
            assert after == before + 1, label
            # A corrupt load writes nothing: the blob and the store's
            # contents are exactly as the test left them.
            assert path.read_text() == blob, label
            assert store.backend.list("trace") == [key], label


class TestRunnerWiring:
    def test_warm_stats_identical_and_hit(self, isolated_cache):
        cold = app_context("Email", 60).stats("critic")
        assert cache_mod.get_cache().hits == 0
        clear_cache()
        cache_mod.reset_cache()
        warm = app_context("Email", 60).stats("critic")
        assert cache_mod.get_cache().hits >= 1
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_changed_walk_blocks_misses(self, isolated_cache):
        app_context("Email", 60).stats("baseline")
        clear_cache()
        cache_mod.reset_cache()
        app_context("Email", 80).stats("baseline")
        cache = cache_mod.get_cache()
        assert cache.hits == 0
        assert cache.misses >= 1

    def test_changed_scheme_misses(self, isolated_cache):
        app_context("Email", 60).stats("critic")
        clear_cache()
        cache_mod.reset_cache()
        app_context("Email", 60).stats("hoist")
        cache = cache_mod.get_cache()
        assert cache.misses >= 2  # the hoist trace + stats are new
        assert cache.hits >= 1    # the critic-profile artifact is reused

    def test_run_apps_matches_stats_and_seeds_memo(self, isolated_cache):
        results = run_apps(["Email", "Maps"], ("baseline", "critic"),
                           walk_blocks=60)
        for name in ("Email", "Maps"):
            ctx = app_context(name, 60)
            for scheme in ("baseline", "critic"):
                cell = results[name][(scheme, GOOGLE_TABLET.name)]
                assert ctx._stats[(scheme, GOOGLE_TABLET.name)] is cell
                assert dataclasses.asdict(ctx.stats(scheme)) \
                    == dataclasses.asdict(cell)

    def test_run_apps_serial_fallback(self, isolated_cache):
        serial = run_apps(["Email"], ("baseline",), jobs=1, walk_blocks=60)
        assert serial["Email"][("baseline", GOOGLE_TABLET.name)].cycles > 0
