"""Unit tests for the component registry core and the built-in registries."""

import os
import subprocess
import sys
import textwrap
import threading
import uuid

import pytest

import repro
from repro.cpu import GOOGLE_TABLET
from repro.registry import (
    BRANCH_PREDICTORS,
    HARDWARE_CONFIGS,
    ICACHE_POLICIES,
    PREFETCHERS,
    SCHEME_RECIPES,
    component_identity,
)
from repro.registry.core import Registry, RegistryError


class TestRegistryCore:
    def test_register_decorator_and_lookup(self):
        reg = Registry("widget")

        @reg.register("alpha", version=2)
        def alpha():
            return "a"

        assert reg.get("alpha") is alpha
        assert reg.create("alpha") == "a"
        assert reg.version("alpha") == 2
        assert reg.identity("alpha") == "alpha@2"

    def test_register_direct_object(self):
        reg = Registry("widget")
        obj = object()
        returned = reg.register("thing", obj)
        assert returned is obj
        assert reg.get("thing") is obj

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate widget"):
            reg.register("alpha", object())

    def test_overwrite_replaces(self):
        reg = Registry("widget")
        reg.register("alpha", "old")
        reg.register("alpha", "new", version=2, overwrite=True)
        assert reg.get("alpha") == "new"
        assert reg.identity("alpha") == "alpha@2"

    def test_unknown_key_did_you_mean(self):
        reg = Registry("widget")
        reg.register("critic", object())
        reg.register("baseline", object())
        with pytest.raises(RegistryError) as exc:
            reg.get("crtic")
        message = str(exc.value)
        assert "unknown widget 'crtic'" in message
        assert "did you mean 'critic'" in message
        assert "baseline" in message  # the known-names list

    def test_unknown_key_without_close_match(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(RegistryError) as exc:
            reg.get("zzzzzz")
        assert "did you mean" not in str(exc.value)

    def test_error_is_key_and_value_error(self):
        reg = Registry("widget")
        with pytest.raises(KeyError):
            reg.get("missing")
        with pytest.raises(ValueError):
            reg.get("missing")

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        reg.unregister("alpha")
        assert "alpha" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("alpha")

    def test_scoped_new_name_removed_on_exit(self):
        reg = Registry("widget")
        with reg.scoped("temp", "obj"):
            assert reg.get("temp") == "obj"
        assert "temp" not in reg

    def test_scoped_override_restores_previous(self):
        reg = Registry("widget")
        reg.register("alpha", "original", version=3)
        with reg.scoped("alpha", "override", version=9):
            assert reg.get("alpha") == "override"
            assert reg.identity("alpha") == "alpha@9"
        assert reg.get("alpha") == "original"
        assert reg.identity("alpha") == "alpha@3"

    def test_scoped_restores_on_exception(self):
        reg = Registry("widget")
        reg.register("alpha", "original")
        with pytest.raises(RuntimeError):
            with reg.scoped("alpha", "override"):
                raise RuntimeError("boom")
        assert reg.get("alpha") == "original"

    def test_names_keep_registration_order(self):
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, object())
        assert reg.names() == ("zeta", "alpha", "mid")
        assert list(reg) == ["zeta", "alpha", "mid"]
        assert len(reg) == 3

    def test_create_forwards_arguments(self):
        reg = Registry("widget")
        reg.register("pair", lambda a, b=1: (a, b))
        assert reg.create("pair", 5, b=7) == (5, 7)


def _provider_pair(tmp_path, monkeypatch, body):
    """A fresh registry (in module ``holder``) whose one provider module
    runs ``body`` at import time; returns the registry."""
    tag = uuid.uuid4().hex[:8]
    holder, provider = f"reg_holder_{tag}", f"reg_provider_{tag}"
    (tmp_path / f"{holder}.py").write_text(
        "from repro.registry.core import Registry\n"
        f"REG = Registry('widget', providers=({provider!r},))\n")
    (tmp_path / f"{provider}.py").write_text(
        f"from {holder} import REG\n" + textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in (holder, provider):
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = __import__(holder)
    return module.REG


class TestProviderLoading:
    def test_concurrent_first_lookup_waits_for_slow_provider(
            self, tmp_path, monkeypatch):
        reg = _provider_pair(tmp_path, monkeypatch, """
            import time
            time.sleep(0.3)
            REG.register("lru", "policy")
        """)
        threads = 4
        barrier = threading.Barrier(threads)
        found, errors = [], []

        def lookup():
            barrier.wait()
            try:
                found.append(reg.get("lru"))
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        workers = [threading.Thread(target=lookup) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert found == ["policy"] * threads

    def test_provider_may_look_itself_up_while_loading(
            self, tmp_path, monkeypatch):
        reg = _provider_pair(tmp_path, monkeypatch, """
            REG.register("alpha", "a")
            SEEN = REG.names()
            REG.register("beta", "b")
        """)
        assert reg.names() == ("alpha", "beta")
        provider = reg._providers[0]
        assert sys.modules[provider].SEEN == ("alpha",)


class TestBuiltinRegistries:
    def test_scheme_canonical_order(self):
        names = SCHEME_RECIPES.names()
        assert names[:8] == (
            "baseline", "hoist", "critic", "critic_ideal",
            "branch", "opp16", "compress", "opp16_critic",
        )

    def test_runner_schemes_complete_after_registry_loads_first(self):
        """A scheme lookup before the runner is imported loads the
        provider without importing the runner halfway through it."""
        code = (
            "from repro.registry import SCHEME_RECIPES\n"
            "SCHEME_RECIPES.names()\n"
            "from repro.experiments.runner import SCHEMES\n"
            "assert SCHEMES == SCHEME_RECIPES.names(), SCHEMES\n"
            "assert len(SCHEMES) == 8, SCHEMES\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_runner_schemes_mirror_registry(self):
        from repro.experiments.runner import SCHEMES
        assert SCHEMES == (
            "baseline", "hoist", "critic", "critic_ideal",
            "branch", "opp16", "compress", "opp16_critic",
        )

    def test_builtin_identities(self):
        assert HARDWARE_CONFIGS.identity("google-tablet") == "google-tablet@1"
        assert BRANCH_PREDICTORS.identity("two-level") == "two-level@1"
        assert ICACHE_POLICIES.identity("trrip") == "trrip@1"
        assert PREFETCHERS.identity("critical-nextline") == \
            "critical-nextline@1"

    def test_component_identity_of_baseline(self):
        identity = component_identity(GOOGLE_TABLET)
        assert identity["branch_predictor"] == "two-level@1"
        assert identity["icache_policy"] == "lru@1"
        assert identity["prefetchers"] == []

    def test_component_identity_with_overrides(self):
        config = GOOGLE_TABLET.with_components(
            prefetchers=("critical-nextline",), icache_policy="trrip",
        )
        identity = component_identity(config)
        assert identity["icache_policy"] == "trrip@1"
        assert identity["prefetchers"] == ["critical-nextline@1"]
        assert config.name == "google-tablet+pf=critical-nextline+i$=trrip"

    def test_hardware_factory_unknown_suggests(self):
        with pytest.raises(RegistryError, match="google-tablet"):
            HARDWARE_CONFIGS.create("google-tablte")
