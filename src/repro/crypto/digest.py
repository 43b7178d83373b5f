"""Canonical encoding and content digests for protocol messages.

Digests must be stable across processes and runs (transaction ids are
digests, and the paper's protocol compares them across replicas), so we
define a small canonical byte encoding rather than relying on ``hash()``
or pickle details.
"""

from __future__ import annotations

import dataclasses
from typing import Any

# The one SHA-256: CPython's built-in, OpenSSL's bytes without mapping
# libcrypto (``_hashlib``); ``hashlib`` serves builds without it.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

#: A digest is a 32-byte SHA-256 value, kept as bytes.
Digest = bytes


def canonical_encode(obj: Any) -> bytes:
    """Encode ``obj`` into canonical bytes.

    Supported: None, bool, int, float, str, bytes, list/tuple, dict
    (sorted by encoded key), frozenset/set (sorted by encoded element),
    and message objects (dataclasses / ``canonical_fields()`` carriers).
    Two equal values always encode identically; different types never
    collide because every atom is tagged.

    Message objects are encoded *by digest* (hash-tree style): a nested
    transaction record or certificate contributes its 32-byte digest,
    which is memoized on the object.  This keeps re-hashing of shared
    protocol structures O(1) — certificates are embedded in thousands of
    read replies — while remaining deterministic across parties, since
    the digest itself is content-derived.  The price is the immutability
    contract: protocol objects must never be mutated after construction
    (they are frozen dataclasses).
    """
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


#: Message class -> ``(header, field names)``: its tagged class name (plus
#: the list tag of its dataclass fields) and the names of those fields, or
#: None when it encodes its ``canonical_fields()``.  Filled as classes are
#: first encoded; a class is a message class for good once it is here.
_LAYOUTS: dict[type, tuple[bytes, tuple[str, ...] | None]] = {}

#: Classes whose instances are never cached as message classes: those the
#: tagged-atom rules claim first in :func:`_encode_tagged`, and classes.
_NOT_MESSAGES = (int, float, str, bytes, list, tuple, dict, set, frozenset, type)


def _encode_into(obj: Any, out: bytearray) -> None:
    # Exact types first, most frequent first; everything else (subclasses,
    # dicts, sets, unseen classes) takes the tagged rules in their order.
    cls = type(obj)
    if cls is bytes:
        out += b"b%d:" % len(obj)
        out += obj
    elif cls is str:
        body = obj.encode()
        out += b"s%d:" % len(body)
        out += body
    elif cls is tuple or cls is list:
        out += b"l%d:" % len(obj)
        for item in obj:
            _encode_into(item, out)
    elif cls is int:
        body = b"%d" % obj
        out += b"i%d:" % len(body)
        out += body
    else:
        layout = _LAYOUTS.get(cls)
        if layout is None:
            _encode_tagged(obj, out)
            return
        memo = getattr(obj, "_digest_memo", None)
        out += b"h"
        out += memo if memo is not None else _object_digest(obj, layout)


def _encode_tagged(obj: Any, out: bytearray) -> None:
    """The encoding rules in full: what :func:`_encode_into` does not
    short-cut, with the same bytes for what it does."""
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        body = str(obj).encode()
        out += b"i%d:" % len(body)
        out += body
    elif isinstance(obj, float):
        body = repr(obj).encode()
        out += b"f%d:" % len(body)
        out += body
    elif isinstance(obj, str):
        body = obj.encode()
        out += b"s%d:" % len(body)
        out += body
    elif isinstance(obj, bytes):
        out += b"b%d:" % len(obj)
        out += obj
    elif isinstance(obj, (list, tuple)):
        out += b"l%d:" % len(obj)
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        entries = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in obj.items()
        )
        out += b"d%d:" % len(entries)
        for k, v in entries:
            out += k
            out += v
    elif isinstance(obj, (set, frozenset)):
        entries = sorted(canonical_encode(item) for item in obj)
        out += b"e%d:" % len(entries)
        for entry in entries:
            out += entry
    else:
        # Message-object branch.  Check the digest memo first: shared
        # protocol structures (certificates, votes) are re-encoded
        # constantly, and after the first encode this is one getattr.
        memo = getattr(obj, "_digest_memo", None)
        if memo is not None:
            out += b"h"
            out += memo
        elif _is_message(obj):
            out += b"h"
            out += _object_digest(obj, _layout_of(type(obj)))
        else:
            raise TypeError(f"cannot canonically encode {type(obj).__name__}: {obj!r}")


def _is_message(obj: Any) -> bool:
    return hasattr(obj, "canonical_fields") or (
        dataclasses.is_dataclass(obj) and not isinstance(obj, type)
    )


def _layout_of(cls: type) -> tuple[bytes, tuple[str, ...] | None]:
    """A message class's layout (see ``_LAYOUTS``), cached unless the
    class is one the tagged-atom rules encode by value."""
    layout = _LAYOUTS.get(cls)
    if layout is None:
        name = cls.__name__.encode()
        header = b"c%d:" % len(name) + name
        if hasattr(cls, "canonical_fields"):
            layout = (header, None)
        else:
            names = tuple(field.name for field in dataclasses.fields(cls))
            layout = (header + b"l%d:" % len(names), names)
        if not issubclass(cls, _NOT_MESSAGES):
            _LAYOUTS[cls] = layout
    return layout


def _object_digest(obj: Any, layout: tuple[bytes, tuple[str, ...] | None]) -> Digest:
    """Content digest of a message object (hash-tree node), memoized on it."""
    header, names = layout
    out = bytearray(header)
    if names is None:
        _encode_into(obj.canonical_fields(), out)
    else:
        for name in names:
            _encode_into(getattr(obj, name), out)
    digest = sha256(out).digest()
    try:
        object.__setattr__(obj, "_digest_memo", digest)
    except (AttributeError, TypeError):
        pass  # slotted or otherwise unwritable: skip memoization
    return digest


def digest_of(obj: Any) -> Digest:
    """SHA-256 digest of the canonical encoding of ``obj``."""
    memo = getattr(obj, "_digest_memo", None)
    if memo is not None:
        return memo
    layout = _LAYOUTS.get(type(obj))
    if layout is not None:
        return _object_digest(obj, layout)
    if _is_message(obj):
        return _object_digest(obj, _layout_of(type(obj)))
    return sha256(canonical_encode(obj)).digest()


def digest_bytes(data: bytes) -> Digest:
    """SHA-256 of raw bytes (used by the Merkle tree)."""
    return sha256(data).digest()


def short_hex(digest: Digest, length: int = 8) -> str:
    """Human-readable prefix of a digest, for logs and reprs."""
    return digest.hex()[:length]
