"""repro.registry: versioned publish/rollback and the change watcher.

The contracts under test:

* Publishing assigns monotonically increasing versions, keyed by the
  spec's content digest — republishing the active payload is an
  idempotent no-op, never a new version.
* The lint gate rejects payloads whose diagnostics reach the threshold,
  and the registry is left untouched by a rejected publish.
* Rollback is a non-destructive pointer move: every version's payload
  file survives, and rolling forward again needs no re-publish.
* The on-disk layout is crash-safe by construction: payload files land
  before the index pointer, and both are written via atomic rename.
* :class:`RegistryWatcher` fires exactly once per digest change, filters
  by name, and survives callback failures.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.registry import PublishRejected, RegistryError, SpecRegistry, SpecVersion
from repro.registry.watch import RegistryWatcher

V1 = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author-word", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "v1: ln -> author-word",
        },
        {
            "name": "V2",
            "match": [{"attr": "publisher", "op": "=", "bind": "N"}],
            "where": [{"cond": "value_is", "vars": ["N"]}],
            "emit": {"attr": "publisher", "op": "=", "value": "$N"},
            "exact": True,
            "doc": "v1: publisher rename",
        },
    ],
}

V2 = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        {
            "name": "V1",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "v2: ln -> author",
        }
    ],
}


class TestPublish:
    def test_first_publish_is_version_one_and_active(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        version = registry.publish(V1)
        assert isinstance(version, SpecVersion)
        assert (version.name, version.version, version.active) == ("K_Amazon", 1, True)
        assert registry.active_version("K_Amazon").version == 1
        assert registry.names() == ["K_Amazon"]

    def test_publish_assigns_increasing_versions(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        assert registry.publish(V1).version == 1
        assert registry.publish(V2).version == 2
        assert registry.active_version("K_Amazon").version == 2

    def test_republishing_active_payload_is_idempotent(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        first = registry.publish(V1)
        again = registry.publish(copy.deepcopy(V1))
        assert again.version == first.version
        assert len(registry.history("K_Amazon")) == 1

    def test_emit_only_edit_is_a_new_version(self, tmp_path):
        # Names, docs and patterns are unchanged; the digest covers the
        # whole payload, so the edit still publishes.
        registry = SpecRegistry(tmp_path)
        registry.publish(V2)
        edited = copy.deepcopy(V2)
        edited["rules"][0]["emit"]["attr"] = "creator"
        version = registry.publish(edited)
        assert (version.version, version.active) == (2, True)
        assert registry.load_raw("K_Amazon") == edited
        assert [v.version for v in registry.history("K_Amazon")] == [1, 2]

    def test_payload_round_trips_bit_identically(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        assert registry.load_raw("K_Amazon") == V1
        # And the file itself is the canonical JSON of the payload.
        version = registry.history("K_Amazon")[0]
        from pathlib import Path

        assert json.loads(Path(version.path).read_text(encoding="utf-8")) == V1

    def test_load_builds_a_runnable_specification(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        spec = registry.load("K_Amazon")
        assert spec.name == "K_Amazon"
        assert len(spec.rules) == 2

    def test_state_maps_names_to_active_digests(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        v = registry.publish(V1)
        assert registry.state() == {"K_Amazon": v.digest}

    def test_two_registries_share_the_directory(self, tmp_path):
        SpecRegistry(tmp_path).publish(V1)
        assert SpecRegistry(tmp_path).active_version("K_Amazon").version == 1

    def test_rejects_unsafe_spec_names(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        with pytest.raises(RegistryError):
            registry.publish({**V1, "name": "../escape"})

    def test_rejects_foreign_index_file(self, tmp_path):
        (tmp_path / "registry.json").write_text(
            json.dumps({"kind": "something-else"}), encoding="utf-8"
        )
        with pytest.raises(RegistryError, match="not a"):
            SpecRegistry(tmp_path).names()


#: A rule that emits the negation of its own match: the linter confirms
#: the soundness violation (VM003, error severity) deterministically.
UNSOUND = {
    "name": "K_Bad",
    "target": "T",
    "rules": [
        {
            "name": "A",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"not": {"attr": "ln", "op": "=", "value": "$L"}},
            "exact": True,
            "doc": "emits the negation of its own match",
        }
    ],
}

#: A rule whose condition references a binding the match never creates:
#: every sampled head binding raises, a warning-severity finding (VM011).
CRASHY = {
    "name": "K_Crashy",
    "target": "T",
    "rules": [
        {
            "name": "A",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["NOPE"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": True,
            "doc": "condition uses an unbound variable",
        }
    ],
}


class TestLintGate:
    def test_gate_rejects_at_threshold_and_leaves_registry_untouched(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        with pytest.raises(PublishRejected) as excinfo:
            registry.publish(UNSOUND, fail_on="error")
        assert any(d.code == "VM003" for d in excinfo.value.diagnostics)
        assert registry.names() == []

    def test_warning_threshold_is_stricter(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        # The crashy rule only warns (VM011): passes the default error
        # gate but is rejected once the operator tightens to warnings.
        assert registry.publish(CRASHY, fail_on="error").version == 1
        with pytest.raises(PublishRejected):
            SpecRegistry(tmp_path / "strict").publish(CRASHY, fail_on="warning")

    def test_no_gate_bypasses_the_linter(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        version = registry.publish(UNSOUND, gate=False)
        assert version.version == 1


class TestRollback:
    def test_rollback_defaults_to_previous_version(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        registry.publish(V2)
        version = registry.rollback("K_Amazon")
        assert version.version == 1
        assert registry.active_version("K_Amazon").version == 1
        assert registry.load_raw("K_Amazon") == V1

    def test_rollback_is_non_destructive(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        registry.publish(V2)
        registry.rollback("K_Amazon")
        history = registry.history("K_Amazon")
        assert [v.version for v in history] == [1, 2]
        assert [v.active for v in history] == [True, False]
        # Roll forward again without republishing.
        assert registry.rollback("K_Amazon", to_version=2).version == 2

    def test_rollback_without_older_version_fails(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        with pytest.raises(RegistryError, match="no version before"):
            registry.rollback("K_Amazon")

    def test_rollback_unknown_name_fails(self, tmp_path):
        with pytest.raises(RegistryError, match="no specification"):
            SpecRegistry(tmp_path).rollback("ghost")

    def test_publish_after_rollback_continues_version_numbers(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        registry.publish(V2)
        registry.rollback("K_Amazon")
        v3 = copy.deepcopy(V2)
        v3["rules"][0]["doc"] = "v3: ln -> author, republished"
        assert registry.publish(v3).version == 3


class TestWatcher:
    def test_initial_fire_applies_current_state(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        seen: list[tuple[str, dict]] = []
        watcher = RegistryWatcher(registry, lambda n, p: seen.append((n, p)))
        assert watcher.poll_once() == 1
        assert seen == [("K_Amazon", V1)]

    def test_fires_once_per_digest_change(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        seen: list[dict] = []
        watcher = RegistryWatcher(registry, lambda n, p: seen.append(p))
        watcher.poll_once()
        assert watcher.poll_once() == 0  # no change, no callback
        registry.publish(V2)
        assert watcher.poll_once() == 1
        registry.rollback("K_Amazon")
        assert watcher.poll_once() == 1
        assert seen == [V1, V2, V1]

    def test_name_filter(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        seen: list[str] = []
        watcher = RegistryWatcher(
            registry, lambda n, p: seen.append(n), names={"other"}
        )
        assert watcher.poll_once() == 0
        assert seen == []

    def test_callback_errors_do_not_stop_the_watch(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        errors: list[str] = []

        def explode(name, payload):
            raise RuntimeError("boom")

        watcher = RegistryWatcher(
            registry, explode, on_error=lambda n, e: errors.append(f"{n}: {e}")
        )
        assert watcher.poll_once() == 0
        assert errors == ["K_Amazon: boom"]
        # The failing digest is marked seen — no retry storm...
        assert watcher.poll_once() == 0
        # ...but a new publish fires again.
        registry.publish(V2)
        watcher.callback = lambda n, p: None
        assert watcher.poll_once() == 1

    def test_thread_lifecycle(self, tmp_path):
        registry = SpecRegistry(tmp_path)
        registry.publish(V1)
        seen: list[str] = []
        watcher = RegistryWatcher(
            registry, lambda n, p: seen.append(n), interval=0.05
        ).start()
        try:
            deadline = 100
            while not seen and deadline:
                deadline -= 1
                import time

                time.sleep(0.02)
            assert seen
        finally:
            watcher.stop()

    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            RegistryWatcher(SpecRegistry(tmp_path), lambda n, p: None, interval=0)
