"""Versioned on-disk model registry with hot activation and rollback.

The serving layer never points at a bare artifact file — it points at a
**registry**, a directory of named models each holding every published
version plus a pointer to the live one::

    <registry>/
      <name>/
        ACTIVE            # JSON {"version": ..., "previous": ...}
        v1/model.npz      # one Anonymizer.save() artifact pair per version
        v1/model.json
        v2/model.npz
        v2/model.json

Versions are immutable once published (a publish lands in a fresh
directory; nothing is ever overwritten), so "deploy" and "undo" are both
just the ACTIVE pointer moving — written atomically through
:mod:`repro.runtime.atomic`, so a crash mid-switch leaves the old pointer
intact and a reader never observes a half-written one.  The pointer also
remembers the previously active version, which is exactly what
:meth:`ModelRegistry.rollback` restores.

Loads go through :func:`~repro.serving.model.read_model_artifact`, so
every registry read is format-version checked and content-checksum
verified; damage surfaces as the typed
:class:`~repro.runtime.ArtifactError` hierarchy rather than a numpy
traceback.
"""

from __future__ import annotations

from pathlib import Path

from ..backend import SerialBackend
from ..runtime.atomic import ArtifactError, atomic_write_json, read_json
from .model import TransformModel

#: File name of the artifact pair inside each version directory.
_ARTIFACT_STEM = "model"

#: File name of the active-version pointer inside each model directory.
_ACTIVE_POINTER = "ACTIVE"


class ModelRegistryError(ArtifactError):
    """A registry operation failed (unknown model/version, bad layout)."""


def _check_component(value: str, what: str) -> str:
    """Reject names/versions that would escape the registry layout."""
    if (
        not value
        or value != Path(value).name
        or value.startswith(".")
        or value == _ACTIVE_POINTER
    ):
        raise ModelRegistryError(
            f"invalid {what} {value!r}: must be a plain directory name "
            "(no separators, no leading dot)"
        )
    return value


class ModelRegistry:
    """Directory of versioned, checksum-verified anonymization models.

    Parameters
    ----------
    root:
        The registry directory.  Created lazily on first
        :meth:`publish`; reads against a missing registry raise
        :class:`ModelRegistryError`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- layout helpers ------------------------------------------------------------

    def model_dir(self, name: str) -> Path:
        """Directory holding every version of one named model."""
        return self.root / _check_component(name, "model name")

    def version_dir(self, name: str, version: str) -> Path:
        """Directory holding one published version's artifact pair."""
        return self.model_dir(name) / _check_component(version, "version")

    def artifact_path(self, name: str, version: str) -> Path:
        """The ``.npz`` half of one version's artifact pair."""
        return self.version_dir(name, version) / f"{_ARTIFACT_STEM}.npz"

    # -- listing -------------------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted names of every model with at least one published version."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[str]:
        """Published versions of ``name``, oldest first."""
        directory = self.model_dir(name)
        if not directory.is_dir():
            return []
        found = [
            entry.name
            for entry in directory.iterdir()
            if entry.is_dir() and (entry / f"{_ARTIFACT_STEM}.npz").exists()
        ]
        return sorted(found, key=_version_sort_key)

    def active_version(self, name: str) -> str | None:
        """The live version of ``name`` (``None`` if nothing is active)."""
        pointer = self.model_dir(name) / _ACTIVE_POINTER
        if not pointer.exists():
            return None
        payload = read_json(pointer, kind="registry pointer")
        version = payload.get("version")
        return str(version) if version is not None else None

    def describe(self) -> dict:
        """JSON-ready registry listing (the ``/v1/models`` skeleton)."""
        return {
            name: {
                "versions": self.versions(name),
                "active": self.active_version(name),
            }
            for name in self.names()
        }

    # -- publishing and the ACTIVE pointer -----------------------------------------

    def publish(
        self,
        name: str,
        model,
        *,
        version: str | None = None,
        activate: bool = True,
    ) -> str:
        """Save a fitted model as a new immutable version; return the version.

        ``model`` is anything with the ``Anonymizer.save(path)`` artifact
        contract.  ``version`` defaults to the next ``v<N>``; publishing
        over an existing version is refused (versions are immutable —
        publish a new one instead).  With ``activate`` (the default) the
        new version becomes live immediately.
        """
        if version is None:
            version = f"v{_next_version_number(self.versions(name))}"
        directory = self.version_dir(name, version)
        if directory.exists():
            raise ModelRegistryError(
                f"version {version!r} of model {name!r} already exists; "
                "registry versions are immutable — publish a new version"
            )
        directory.mkdir(parents=True)
        model.save(directory / _ARTIFACT_STEM)
        if activate:
            self.activate(name, version)
        return version

    def activate(self, name: str, version: str) -> None:
        """Atomically point ``name`` at ``version`` (hot swap).

        The previous live version is remembered in the pointer, which is
        what :meth:`rollback` restores.
        """
        if not self.artifact_path(name, version).exists():
            raise ModelRegistryError(
                f"cannot activate version {version!r} of model {name!r}: "
                f"no such version is published (have {self.versions(name)})"
            )
        previous = self.active_version(name)
        atomic_write_json(
            self.model_dir(name) / _ACTIVE_POINTER,
            {"version": version, "previous": previous},
        )

    def rollback(self, name: str) -> str:
        """Re-activate the previously active version; return it."""
        pointer = self.model_dir(name) / _ACTIVE_POINTER
        if not pointer.exists():
            raise ModelRegistryError(
                f"model {name!r} has no active version to roll back from"
            )
        payload = read_json(pointer, kind="registry pointer")
        previous = payload.get("previous")
        if not previous:
            raise ModelRegistryError(
                f"model {name!r} has no previous version recorded; nothing "
                "to roll back to"
            )
        self.activate(name, str(previous))
        return str(previous)

    # -- loading -------------------------------------------------------------------

    def load(
        self,
        name: str,
        version: str | None = None,
        *,
        backend: SerialBackend | str | None = None,
        mmap_mode: str | None = None,
    ) -> TransformModel:
        """Load one version (default: the active one) as a ``TransformModel``.

        ``mmap_mode="r"`` maps the arrays read-only so concurrent workers
        loading the same version share page-cache pages.
        """
        if version is None:
            version = self.active_version(name)
            if version is None:
                raise ModelRegistryError(
                    f"model {name!r} has no active version "
                    f"(published: {self.versions(name) or 'none'}); "
                    "activate one first"
                )
        path = self.artifact_path(name, version)
        if not path.exists():
            raise ModelRegistryError(
                f"model {name!r} has no published version {version!r} "
                f"(have {self.versions(name)})"
            )
        return TransformModel.load(path, backend=backend, mmap_mode=mmap_mode)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(root={str(self.root)!r})"


def _version_sort_key(version: str) -> tuple:
    """Sort ``v2`` before ``v10`` while tolerating arbitrary labels."""
    if version.startswith("v") and version[1:].isdigit():
        return (0, int(version[1:]), version)
    return (1, 0, version)


def _next_version_number(existing: list[str]) -> int:
    """Smallest ``N`` such that ``v<N>`` is unused (monotonic over ``v*``)."""
    numbers = [
        int(v[1:]) for v in existing if v.startswith("v") and v[1:].isdigit()
    ]
    return max(numbers, default=0) + 1
