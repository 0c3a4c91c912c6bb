"""The on-disk spec registry (see the package docstring).

Layout — one directory per registry::

    <root>/
        registry.json           # the index: active pointers + history
        specs/
            K_Amazon/
                v1.json         # declarative spec, verbatim as published
                v2.json

``registry.json`` is the only mutable file and every update lands via a
unique temp file + ``os.replace``, so a crash mid-publish leaves the
previous index intact and a version file is never referenced before it
exists (version files are written *first*).  Spec payload files are
immutable once written — rollback only moves the ``active`` pointer,
preserving the full history.

Identity is the specification's content digest
(:attr:`~repro.rules.MappingSpecification.content_digest`), the sha256
of the whole declarative payload: publishing a payload whose digest
equals the currently active version's is an idempotent no-op, any edit
(an ``emit`` or a ``let`` included) records a new version, and the
serving stack compares the same digest to decide whether a reload
actually changes anything.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import VocabMapError
from repro.rules.declarative import spec_from_dict
from repro.rules.spec import MappingSpecification

__all__ = ["REGISTRY_FORMAT", "PublishRejected", "RegistryError", "SpecRegistry", "SpecVersion"]

#: Bump when the index layout changes; loads reject other formats.
REGISTRY_FORMAT = 1

_KIND = "repro.registry"


class RegistryError(VocabMapError):
    """Malformed registry state or an impossible lifecycle operation."""


class PublishRejected(RegistryError):
    """The publish gate (vocablint) found diagnostics at/above the bar.

    Carries the offending :class:`~repro.analysis.Diagnostic` list so
    callers (the CLI, tests) can render codes and messages.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SpecVersion:
    """One immutable published version of one specification."""

    name: str
    version: int
    digest: str
    created: float
    note: str
    rules: int
    path: str
    active: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "digest": self.digest,
            "created": self.created,
            "note": self.note,
            "rules": self.rules,
            "path": self.path,
            "active": self.active,
        }


def _atomic_write_json(target: Path, payload: dict) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class SpecRegistry:
    """A versioned store of declarative mapping specifications.

    Thread-safe within one process (an internal lock serializes index
    read-modify-write cycles); cross-process safety rests on the atomic
    index replace — concurrent publishers cannot tear the index, though
    one of two simultaneous publishes may win the pointer.
    """

    def __init__(self, root: str | os.PathLike[str]):
        self.root = Path(root)
        self._lock = threading.Lock()

    # -- index I/O -------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / "registry.json"

    def _spec_dir(self, name: str) -> Path:
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise RegistryError(f"unusable specification name {name!r}")
        return self.root / "specs" / name

    def _load_index(self) -> dict:
        path = self.index_path
        if not path.exists():
            return {"format": REGISTRY_FORMAT, "kind": _KIND, "specs": {}}
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or raw.get("kind") != _KIND:
            raise RegistryError(f"{path}: not a {_KIND} index")
        if raw.get("format") != REGISTRY_FORMAT:
            raise RegistryError(
                f"{path}: registry format {raw.get('format')!r} is not "
                f"the supported format {REGISTRY_FORMAT}"
            )
        return raw

    def _save_index(self, index: dict) -> None:
        _atomic_write_json(self.index_path, index)

    def _section(self, index: dict, name: str) -> dict:
        section = index["specs"].get(name)
        if section is None:
            known = ", ".join(sorted(index["specs"])) or "<empty registry>"
            raise RegistryError(
                f"no specification {name!r} in registry {self.root} ({known})"
            )
        return section

    # -- read API --------------------------------------------------------------

    def names(self) -> list[str]:
        """Every specification with at least one published version."""
        with self._lock:
            return sorted(self._load_index()["specs"])

    def history(self, name: str) -> list[SpecVersion]:
        """All published versions of ``name``, oldest first."""
        with self._lock:
            index = self._load_index()
            section = self._section(index, name)
            active = section.get("active")
            return [
                SpecVersion(
                    name=name,
                    version=meta["version"],
                    digest=meta["digest"],
                    created=meta["created"],
                    note=meta.get("note", ""),
                    rules=meta.get("rules", 0),
                    path=str(self._spec_dir(name) / f"v{meta['version']}.json"),
                    active=meta["version"] == active,
                )
                for meta in section["versions"]
            ]

    def active_version(self, name: str) -> SpecVersion:
        """The currently active version of ``name``."""
        for entry in self.history(name):
            if entry.active:
                return entry
        raise RegistryError(f"specification {name!r} has no active version")

    def state(self) -> dict[str, str]:
        """``{spec name: active digest}`` — the watcher's poll target."""
        with self._lock:
            index = self._load_index()
            out: dict[str, str] = {}
            for name, section in index["specs"].items():
                active = section.get("active")
                for meta in section["versions"]:
                    if meta["version"] == active:
                        out[name] = meta["digest"]
                        break
            return out

    def load_raw(self, name: str, version: int | None = None) -> dict:
        """The declarative payload of ``name`` (active or a pinned version)."""
        entry = self._resolve(name, version)
        return json.loads(Path(entry.path).read_text(encoding="utf-8"))

    def load(
        self,
        name: str,
        version: int | None = None,
        *,
        functions: Mapping[str, Callable] | None = None,
    ) -> MappingSpecification:
        """Build the :class:`MappingSpecification` for ``name``."""
        return spec_from_dict(self.load_raw(name, version), functions)

    def _resolve(self, name: str, version: int | None) -> SpecVersion:
        if version is None:
            return self.active_version(name)
        for entry in self.history(name):
            if entry.version == version:
                return entry
        raise RegistryError(f"specification {name!r} has no version {version}")

    # -- lifecycle -------------------------------------------------------------

    def publish(
        self,
        data: Mapping,
        *,
        note: str = "",
        gate: bool = True,
        fail_on: str = "error",
        functions: Mapping[str, Callable] | None = None,
    ) -> SpecVersion:
        """Publish one declarative spec payload; returns the new version.

        The payload is first *built* (so structurally invalid specs are
        rejected with the loader's :class:`SpecificationError`), then —
        unless ``gate=False`` — linted, rejecting with
        :class:`PublishRejected` when any diagnostic reaches the
        ``fail_on`` severity (``info``/``warning``/``error``; the same
        thresholds as ``repro lint --fail-on``).  Publishing a payload
        whose digest matches the active version is an idempotent no-op
        returning the existing version.  Rollback does not erase
        history, so publishing after a rollback appends a fresh version
        number past everything ever published.
        """
        spec = spec_from_dict(data, functions)
        if gate:
            self._gate(spec, fail_on)
        digest = spec.content_digest
        with self._lock:
            index = self._load_index()
            section = index["specs"].setdefault(
                spec.name, {"active": None, "versions": []}
            )
            active = section.get("active")
            for meta in section["versions"]:
                if meta["version"] == active and meta["digest"] == digest:
                    return SpecVersion(
                        name=spec.name,
                        version=meta["version"],
                        digest=digest,
                        created=meta["created"],
                        note=meta.get("note", ""),
                        rules=meta.get("rules", 0),
                        path=str(self._spec_dir(spec.name) / f"v{active}.json"),
                        active=True,
                    )
            number = 1 + max(
                (meta["version"] for meta in section["versions"]), default=0
            )
            payload_path = self._spec_dir(spec.name) / f"v{number}.json"
            # Payload first, pointer second: a crash between the two
            # leaves an unreferenced file, never a dangling reference.
            _atomic_write_json(payload_path, dict(data))
            meta = {
                "version": number,
                "digest": digest,
                "created": time.time(),
                "note": note,
                "rules": len(spec.rules),
            }
            section["versions"].append(meta)
            section["active"] = number
            self._save_index(index)
            return SpecVersion(
                name=spec.name,
                version=number,
                digest=digest,
                created=meta["created"],
                note=note,
                rules=len(spec.rules),
                path=str(payload_path),
                active=True,
            )

    def _gate(self, spec: MappingSpecification, fail_on: str) -> None:
        from repro.analysis import Severity, lint_specification

        try:
            threshold = Severity.parse(fail_on)
        except ValueError as exc:
            raise RegistryError(str(exc)) from None
        report = lint_specification(spec)
        blocking = tuple(
            d for d in report.diagnostics if d.severity >= threshold
        )
        if blocking:
            codes = ", ".join(
                f"{d.code}({d.severity})" for d in blocking[:8]
            )
            raise PublishRejected(
                f"publish of {spec.name!r} rejected by vocablint: "
                f"{len(blocking)} diagnostic(s) at/above {threshold} ({codes}); "
                "fix the spec or lower the gate with fail_on",
                diagnostics=blocking,
            )

    def rollback(self, name: str, to_version: int | None = None) -> SpecVersion:
        """Repoint ``name``'s active version (default: the previous one).

        Non-destructive — every version file and history entry survives,
        so a rollback can itself be rolled forward by publishing again
        or by ``rollback(name, to_version=...)``.
        """
        with self._lock:
            index = self._load_index()
            section = self._section(index, name)
            versions = [meta["version"] for meta in section["versions"]]
            active = section.get("active")
            if to_version is None:
                candidates = [v for v in versions if active is None or v < active]
                if not candidates:
                    raise RegistryError(
                        f"specification {name!r} has no version before "
                        f"the active v{active} to roll back to"
                    )
                to_version = max(candidates)
            if to_version not in versions:
                raise RegistryError(
                    f"specification {name!r} has no version {to_version} "
                    f"(published: {versions})"
                )
            section["active"] = to_version
            self._save_index(index)
        return self._resolve(name, to_version)
