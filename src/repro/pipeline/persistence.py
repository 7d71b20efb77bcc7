"""Fitted-pipeline persistence: spec JSON + fitted arrays on disk.

A saved pipeline directory contains everything needed to serve identical
top-N lists without refitting any model:

``spec.json``
    The declarative :class:`~repro.pipeline.spec.PipelineSpec`.
``split.npz``
    The exact train/test interaction arrays (dense indices) and the raw id
    maps, so exclusion masks and evaluation run against the very same split
    and later deltas resolve raw ids to the same users and items.  Id lists
    of one type are stored as typed arrays; mixed-type lists as JSON, so
    every id loads back with the type it was saved with.
``state.npz``
    The fitted state of the accuracy recommender (namespaced as
    ``recommender.<attribute>``) plus the fitted preference vector ``theta``.
    Only state that cannot be rebuilt cheaply is stored: caches and derived
    arrays are rebuilt at load time.
``manifest.json``
    Scalar component state, class names for integrity checks, and the
    format version.

Both ``.npz`` files are written uncompressed (``np.savez``): the arrays are
small once caches are left out, and zlib over them cost far more time than
the bytes it saved, in every save and every load.  ``np.load`` reads
compressed archives too, so directories written with ``np.savez_compressed``
still load.

Component state is harvested generically: numpy arrays and scipy sparse
matrices go to the ``.npz``, plain scalars go to the manifest, and anything
else is rejected loudly (a component holding un-persistable state should
override what it stores, not be silently half-saved).  A component chooses
what it stores through one optional pair of methods: ``_persisted_state()``
returns the attributes to store (default: all instance attributes), and
``_restore_persisted_state()`` runs after they are set back, to rebuild
what was left out.  :class:`~repro.parallel.handles.ComponentHandle` ships
the same state to process workers.  Coverage recommenders are *not*
persisted — their fit is a cheap, deterministic state initialization that
re-runs at load time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.data.split import TrainTestSplit
from repro.exceptions import ConfigurationError, DataFormatError

#: Current on-disk format version.
FORMAT_VERSION = 1

#: Attributes never persisted: the train dataset is stored once at the split
#: level, and fit diagnostics are not needed to serve.
_SKIPPED_ATTRIBUTES = frozenset({"_train", "history_", "trace_", "last_oslg_result_"})

_SPARSE_MARKER = "__sparse_csr__"
_COVERAGE_STATE_MARKER = "__coverage_state__"


# --------------------------------------------------------------------------- #
# Generic component state
# --------------------------------------------------------------------------- #
def component_state(component: object) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Split a component's persisted attributes into (arrays, scalar meta)."""
    from repro.coverage.state import CoverageState

    persisted = getattr(component, "_persisted_state", None)
    attributes = persisted() if persisted is not None else vars(component)
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {}
    for name, value in attributes.items():
        if name in _SKIPPED_ATTRIBUTES:
            continue
        if value is None:
            meta[name] = None
        elif isinstance(value, np.ndarray):
            arrays[name] = value
        elif isinstance(value, CoverageState):
            # The scores are derived; the counts fully determine the state.
            arrays[f"{name}::counts"] = np.asarray(value.counts)
            meta[name] = {_COVERAGE_STATE_MARKER: True}
        elif sparse.issparse(value):
            csr = value.tocsr()
            arrays[f"{name}::data"] = csr.data
            arrays[f"{name}::indices"] = csr.indices
            arrays[f"{name}::indptr"] = csr.indptr
            meta[name] = {_SPARSE_MARKER: True, "shape": [int(s) for s in csr.shape]}
        elif isinstance(value, np.generic):
            meta[name] = value.item()
        elif isinstance(value, (bool, int, float, str)):
            meta[name] = value
        else:
            raise ConfigurationError(
                f"cannot persist attribute {name!r} of {type(component).__name__} "
                f"(type {type(value).__name__}); add it to the skip list or "
                "store it as arrays/scalars"
            )
    return arrays, meta


def restore_component_state(
    component: object,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
) -> None:
    """Inverse of :func:`component_state` (mutates ``component`` in place)."""
    from repro.coverage.state import CoverageState

    for name, value in meta.items():
        if isinstance(value, Mapping) and value.get(_SPARSE_MARKER):
            matrix = sparse.csr_matrix(
                (arrays[f"{name}::data"], arrays[f"{name}::indices"], arrays[f"{name}::indptr"]),
                shape=tuple(value["shape"]),
            )
            setattr(component, name, matrix)
        elif isinstance(value, Mapping) and value.get(_COVERAGE_STATE_MARKER):
            setattr(component, name, CoverageState(arrays[f"{name}::counts"]))
        else:
            setattr(component, name, value)
    for name, value in arrays.items():
        if "::" in name:
            continue  # part of a sparse matrix restored above
        setattr(component, name, value)
    restore = getattr(component, "_restore_persisted_state", None)
    if restore is not None:
        restore()


# --------------------------------------------------------------------------- #
# Split persistence
# --------------------------------------------------------------------------- #
def _ids_payload(key: str, ids: Any) -> dict[str, np.ndarray]:
    """Raw ids as one typed array, or as JSON when their types are mixed.

    ``np.asarray`` casts a mixed int/str list to strings, and a stringified
    integer id no longer matches the integer a later delta names, so mixed
    lists are stored as JSON, which keeps each id's type.
    """
    ids = [raw.item() if isinstance(raw, np.generic) else raw for raw in ids]
    array = np.asarray(ids)
    if len({type(raw) for raw in ids}) <= 1 and array.ndim == 1 and array.dtype != object:
        return {key: array}
    return {f"{key}_json": np.str_(json.dumps(ids))}


def _load_ids(payload: Any, key: str) -> list[object]:
    if f"{key}_json" in payload.files:
        return json.loads(str(payload[f"{key}_json"]))
    return payload[key].tolist()


def _dataset_arrays(dataset: RatingDataset, prefix: str) -> dict[str, np.ndarray]:
    return {
        f"{prefix}_users": dataset.user_indices,
        f"{prefix}_items": dataset.item_indices,
        f"{prefix}_ratings": dataset.ratings,
    }


def save_split_npz(split: TrainTestSplit, path: str | Path) -> Path:
    """Write a train/test split as one uncompressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        **_dataset_arrays(split.train, "train"),
        **_dataset_arrays(split.test, "test"),
        "n_users": np.int64(split.train.n_users),
        "n_items": np.int64(split.train.n_items),
        **_ids_payload("user_ids", split.train.user_ids),
        **_ids_payload("item_ids", split.train.item_ids),
        "train_name": np.str_(split.train.name),
        "test_name": np.str_(split.test.name),
    }
    np.savez(path, **payload)
    return path


def load_split_npz(path: str | Path) -> TrainTestSplit:
    """Load a split previously written by :func:`save_split_npz`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as payload:
            n_users = int(payload["n_users"])
            n_items = int(payload["n_items"])
            user_ids = _load_ids(payload, "user_ids")
            item_ids = _load_ids(payload, "item_ids")

            def build(prefix: str, name: str) -> RatingDataset:
                """Rebuild one side of the split from its prefixed arrays."""
                return RatingDataset(
                    payload[f"{prefix}_users"],
                    payload[f"{prefix}_items"],
                    payload[f"{prefix}_ratings"],
                    n_users=n_users,
                    n_items=n_items,
                    user_ids=user_ids,
                    item_ids=item_ids,
                    name=name,
                )

            return TrainTestSplit(
                train=build("train", str(payload["train_name"])),
                test=build("test", str(payload["test_name"])),
            )
    except OSError as exc:
        raise DataFormatError(f"cannot read split file {path}: {exc}") from exc
    except KeyError as exc:
        raise DataFormatError(f"{path} is missing split array {exc}") from exc


# --------------------------------------------------------------------------- #
# JSON helpers
# --------------------------------------------------------------------------- #
def write_json(payload: Mapping[str, Any], path: str | Path) -> Path:
    """Write a JSON document with stable key order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON document, normalizing failures onto DataFormatError."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
