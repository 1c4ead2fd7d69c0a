"""Store records — the one file format of a verification store.

Every file a store owns (a batch of verdicts, a finished plan's payload, a
directory's delta baseline) is one *record*: a header line followed by a
compact JSON body::

    {"checksum":"<sha256 of the body>","key":"…","kind":"plan","magic":"symnet-store-record","version":2}
    {"payload":…}

The header names what the record holds (``kind``) and what it answers
(``key``); its checksum covers every body byte.  The body keeps the
writer's key order, so a stored payload reads back exactly as it was
rendered.  ``version`` is the container's codec; a plan or baseline body
names its meaning in a ``schema`` (:func:`~repro.core.facts.schema_digest`)
and states each reason once, in a ``reasons`` table.  A record of another
version or schema is refused, never reinterpreted.

:func:`read_record` is handed the kind and key the caller is looking for
and refuses — with :class:`RecordError` — a wrong magic, version, kind or
key, a header that is not in canonical form, a checksum mismatch
(truncation, bit flips, splices) or a body that does not parse.  It never returns partial data; the store
quarantines whatever it refuses.  :func:`write_record` writes a record
atomically, so a crash mid-write leaves either the whole record or a
dot-prefixed tmp file no reader looks at.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

RECORD_MAGIC = "symnet-store-record"
RECORD_VERSION = 2
RECORD_SUFFIX = ".rec"


class RecordError(ValueError):
    """A store file failed an integrity check and must not be trusted."""


def _compact(value: object, sort_keys: bool = False) -> bytes:
    return json.dumps(value, sort_keys=sort_keys, separators=(",", ":")).encode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, fsync, ``os.replace``.  A reader (or a crash) never sees a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_record(path: str, kind: str, key: str, body: object) -> None:
    """Atomically write ``body`` as a ``kind`` record answering ``key``."""
    data = _compact(body)
    header = {
        "checksum": hashlib.sha256(data).hexdigest(),
        "key": key,
        "kind": kind,
        "magic": RECORD_MAGIC,
        "version": RECORD_VERSION,
    }
    atomic_write_bytes(path, _compact(header, sort_keys=True) + b"\n" + data)


def read_record(path: str, kind: str, key: str) -> object:
    """The body of the ``kind`` record answering ``key`` at ``path``.

    Raises :class:`RecordError` on any content inconsistency.  An
    ``OSError`` (a missing file, a permissions hiccup) propagates unchanged:
    failing to *read* a file proves nothing about its content.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    header_bytes, newline, data = raw.partition(b"\n")
    if not newline:
        raise RecordError("record has no header line")
    try:
        header = json.loads(header_bytes)
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"unparsable record header: {exc}")
    if not isinstance(header, dict) or header.get("magic") != RECORD_MAGIC:
        raise RecordError("not a store record (bad magic)")
    if header.get("version") != RECORD_VERSION:
        raise RecordError(f"unsupported record version {header.get('version')!r}")
    if header.get("kind") != kind:
        raise RecordError(f"a {header.get('kind')!r} record read as {kind!r}")
    if header.get("key") != key:
        raise RecordError(f"record answers {header.get('key')!r}, not {key!r}")
    if _compact(header, sort_keys=True) != header_bytes:
        raise RecordError("record header is not in canonical form")
    if hashlib.sha256(data).hexdigest() != header.get("checksum"):
        raise RecordError("checksum mismatch (truncated or corrupted body)")
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"unparsable record body: {exc}")
