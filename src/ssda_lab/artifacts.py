"""The one on-disk format: a JSON record with a ``format_version`` plus ``.npy`` tables whose sha256 it holds.

Splits, selection dumps and checkpoints write their tables first and the
record last; whatever a reader cannot use raises ``DataError``.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised for malformed, missing, or tampered artifacts."""


def sha256(data: bytes | str | Path) -> str:
    """Hex sha256 of ``data``, or of the file at ``data`` when it is a path."""
    return hashlib.sha256(data if isinstance(data, bytes) else Path(data).read_bytes()).hexdigest()


def table_path(record: str | Path, name: str) -> Path:
    """The table ``name`` beside a record: ``selection.json``'s ``soft_label`` is ``selection.soft_label.npy``."""
    record = Path(record)
    return record.with_name(f"{record.stem}.{name}.npy")


def write_table(path: str | Path, array: np.ndarray) -> str:
    """Write ``array`` as one ``.npy`` file (no pickle); returns the sha256 of the bytes written."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    data = buf.getvalue()
    Path(path).write_bytes(data)
    return sha256(data)


def read_table(path: str | Path, checksum, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """The ``.npy`` table at ``path``, parsed from the very bytes whose sha256 ``checksum`` was checked.

    Refused unless it holds exactly ``dtype`` and ``shape`` and nothing after
    the array; a ``None`` in ``shape`` takes any length along that axis.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing table: {path}")
    data, name = path.read_bytes(), path.name
    if sha256(data) != checksum:
        raise DataError(f"checksum mismatch for {name}")
    fp = io.BytesIO(data)
    try:
        array = np.lib.format.read_array(fp, allow_pickle=False)
    except (ValueError, MemoryError) as err:  # MemoryError: a header shape too large to allocate
        raise DataError(f"malformed table {name}: {err}") from err
    if fp.tell() != len(data):
        raise DataError(f"malformed table {name}: {len(data) - fp.tell()} bytes after the array")
    if array.dtype != dtype:
        raise DataError(f"malformed table {name}: dtype {array.dtype}, expected {dtype}")
    if len(array.shape) != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise DataError(f"malformed table {name}: shape {array.shape}, expected {shape}")
    return array


def read_record(path: str | Path, version: int, what: str, key: str, remedy: str) -> dict:
    """The JSON object at ``path``, refused unless it holds ``key`` and its ``format_version`` is ``version``.

    ``what`` names the artifact in each refusal, and ``key`` is one that
    every version of it has held.  ``remedy``, the command that rewrites
    it, follows an integer version below ``version``.  Any other record (no
    ``key``, no version, or one this reader never wrote) is not a ``what``
    at all, and gets no remedy.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing {what}: {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:  # also bytes that are not UTF-8
        raise DataError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(record, dict):
        raise DataError(f"{what} {path} must be a JSON object")
    found = record.get("format_version")
    if key not in record:
        raise DataError(f"{path} is not a {what}: it holds no {key!r}")
    if type(found) is int and found < version:
        raise DataError(f"{what} {path} has format_version {found}, not {version}; {remedy}")
    if found != version:
        raise DataError(f"{path} is not a {what}: its format_version is {found!r}, not {version}")
    return record


def check_keys(found, expected: set, where: str) -> None:
    """Refuse ``found`` unless it is a JSON object with exactly the keys ``expected``."""
    if not isinstance(found, dict):
        raise DataError(f"{where} must be a JSON object")
    missing, unknown = sorted(expected - set(found)), sorted(set(found) - expected)
    if missing or unknown:
        raise DataError(f"{where}: missing keys {missing}, unknown keys {unknown}")
