"""Record codec for DBFS rows (paper § 3(1): format-descriptor inodes).

Every table row is encoded ``binary-v2``, the encoding each per-type
format descriptor inode names.  It is a schema-aware binary layout: the
descriptor carries an append-only ``field_order`` list; each row stores
a per-row field-offset table followed by tagged values, so a reader can
decode *only* the fields a predicate or projection touches (partial
decode) and ``bytes`` are stored raw, not base64.

JSON with base64-wrapped bytes (:func:`encode_record_v1`) is not a
table encoding.  It remains the format of authority-escrow blobs, which
the authority must decode without the operator's descriptors, and of
the v2 ``JSON`` value tag below.

v2 row layout (all integers little-endian)::

    [0]      magic      0xB2   (JSON text can never start with 0xB2)
    [1]      version    0x02
    [2:4]    u16 N      number of offset-table slots
    [4:4+4N] u32 * N    value offsets relative to the values section;
                        0xFFFFFFFF marks an absent field
    [...]    values     each value = 1 tag byte + payload

Value tags::

    0x00 NONE    (no payload)
    0x01 INT     8-byte signed little-endian (<q)
    0x02 FLOAT   8-byte IEEE-754 double (<d)
    0x03 BOOL    1 byte (0 or 1)
    0x04 STR     u32 length + UTF-8 bytes
    0x05 BYTES   u32 length + raw bytes
    0x06 JSON    u32 length + UTF-8 JSON (fallback: out-of-range ints,
                 nested containers; nested bytes use the base64 wrapping)

Schema evolution is append-only (``evolve_type``), so ``field_order``
only ever grows at the tail: rows written before an evolution simply
have a shorter offset table and decode fine against the longer order.
A row without the v2 magic, or a descriptor that names another
encoding, is rejected with :class:`~repro.errors.DBFSError`.
"""
from __future__ import annotations

import base64
import json
import struct
from typing import Dict, Iterable, List, Sequence

from ..errors import DBFSError

# The encoding name written into format-descriptor inodes.
ENCODING_V2 = "binary-v2"

MAGIC_V2 = 0xB2
VERSION_V2 = 0x02

_ABSENT = 0xFFFFFFFF

_TAG_NONE = 0x00
_TAG_INT = 0x01
_TAG_FLOAT = 0x02
_TAG_BOOL = 0x03
_TAG_STR = 0x04
_TAG_BYTES = 0x05
_TAG_JSON = 0x06

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_HEADER = struct.Struct("<BBH")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


# --------------------------------------------------------------------------
# JSON with base64-wrapped bytes (escrow blobs, the v2 JSON tag)
# --------------------------------------------------------------------------

def _json_default(obj: object) -> object:
    if isinstance(obj, bytes):
        return {"__bytes__": base64.b64encode(obj).decode("ascii")}
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def _json_object_hook(obj: Dict[str, object]) -> object:
    if set(obj) == {"__bytes__"}:
        return base64.b64decode(obj["__bytes__"])
    return obj


def encode_record_v1(record: Dict[str, object]) -> bytes:
    """Serialize a record dict as JSON with base64-wrapped bytes."""
    return json.dumps(record, sort_keys=True, default=_json_default).encode()


def decode_record_v1(raw: bytes) -> Dict[str, object]:
    """Deserialize a JSON record payload (empty payload = empty record).

    Accepts any bytes-like object (``memoryview`` from the zero-copy
    read path included), hence ``str(raw, ...)`` over ``raw.decode()``.
    """
    if not raw:
        return {}
    return json.loads(str(raw, "utf-8"), object_hook=_json_object_hook)


def is_v2_payload(raw: bytes) -> bool:
    """True when *raw* carries the v2 magic header."""
    return len(raw) >= 2 and raw[0] == MAGIC_V2 and raw[1] == VERSION_V2


# --------------------------------------------------------------------------
# v2: schema-aware binary rows with a per-row field-offset table
# --------------------------------------------------------------------------

class RecordCodec:
    """Compiled v2 codec for one PD type's ``field_order``.

    One instance is cached per live format descriptor; it pre-computes
    the name→ordinal map and offset-table unpackers so the per-row work
    is a couple of ``struct`` calls.
    """

    __slots__ = ("field_order", "ordinal", "_offsets_fmt")

    def __init__(self, field_order: Sequence[str]):
        self.field_order: List[str] = list(field_order)
        self.ordinal: Dict[str, int] = {
            name: i for i, name in enumerate(self.field_order)
        }
        if len(self.ordinal) != len(self.field_order):
            raise DBFSError("format descriptor field_order has duplicates")
        self._offsets_fmt: Dict[int, struct.Struct] = {}

    def _offsets(self, count: int) -> struct.Struct:
        unpacker = self._offsets_fmt.get(count)
        if unpacker is None:
            unpacker = struct.Struct(f"<{count}I")
            self._offsets_fmt[count] = unpacker
        return unpacker

    # -- encode ----------------------------------------------------------

    def encode(self, record: Dict[str, object]) -> bytes:
        order = self.field_order
        ordinal = self.ordinal
        for name in record:
            if name not in ordinal:
                raise DBFSError(
                    f"field {name!r} not in format descriptor field order"
                )
        offsets = [_ABSENT] * len(order)
        values = bytearray()
        for name, value in record.items():
            offsets[ordinal[name]] = len(values)
            _encode_value(values, value)
        out = bytearray(_HEADER.pack(MAGIC_V2, VERSION_V2, len(order)))
        out += self._offsets(len(order)).pack(*offsets)
        out += values
        return bytes(out)

    # -- decode ----------------------------------------------------------

    def decode(self, raw: bytes) -> Dict[str, object]:
        """Fully decode a v2 row (an empty payload is an empty record)."""
        if not raw:
            return {}
        count, offsets, base = self._parse_header(raw)
        order = self.field_order
        record: Dict[str, object] = {}
        for i in range(count):
            off = offsets[i]
            if off != _ABSENT:
                record[order[i]] = _decode_value(raw, base + off)
        return record

    def decode_fields(
        self, raw: bytes, fields: Iterable[str]
    ) -> Dict[str, object]:
        """Decode only *fields*, using the offset table to skip the rest."""
        if not raw:
            return {}
        count, offsets, base = self._parse_header(raw)
        ordinal = self.ordinal
        record: Dict[str, object] = {}
        for name in fields:
            i = ordinal.get(name)
            if i is None or i >= count:
                continue
            off = offsets[i]
            if off != _ABSENT:
                record[name] = _decode_value(raw, base + off)
        return record

    def _parse_header(self, raw: bytes):
        try:
            magic, version, count = _HEADER.unpack_from(raw, 0)
        except struct.error as exc:
            raise DBFSError(f"truncated v2 row header: {exc}") from exc
        if magic != MAGIC_V2 or version != VERSION_V2:
            raise DBFSError("row lacks the binary-v2 magic header")
        if count > len(self.field_order):
            raise DBFSError(
                f"v2 row has {count} field slots but the format descriptor "
                f"knows only {len(self.field_order)} fields"
            )
        base = _HEADER.size + 4 * count
        if len(raw) < base:
            raise DBFSError("truncated v2 row offset table")
        offsets = self._offsets(count).unpack_from(raw, _HEADER.size)
        return count, offsets, base


def _encode_value(out: bytearray, value: object) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True or value is False:
        out.append(_TAG_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX:
        out.append(_TAG_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(encoded))
        out += encoded
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    else:
        # Fallback covers out-of-range ints and nested containers; the
        # JSON leg reuses the base64 wrapping for nested bytes.
        encoded = json.dumps(
            value, sort_keys=True, default=_json_default
        ).encode()
        out.append(_TAG_JSON)
        out += _U32.pack(len(encoded))
        out += encoded


def _decode_value(raw: bytes, pos: int) -> object:
    try:
        tag = raw[pos]
    except IndexError as exc:
        raise DBFSError("v2 value offset past end of row") from exc
    try:
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_INT:
            return _I64.unpack_from(raw, pos + 1)[0]
        if tag == _TAG_FLOAT:
            return _F64.unpack_from(raw, pos + 1)[0]
        if tag == _TAG_BOOL:
            return raw[pos + 1] != 0
        if tag == _TAG_STR:
            (length,) = _U32.unpack_from(raw, pos + 1)
            start = pos + 5
            # str(buffer, encoding) decodes any bytes-like object, so
            # memoryview rows from the zero-copy path need no copy here.
            return str(raw[start:start + length], "utf-8")
        if tag == _TAG_BYTES:
            (length,) = _U32.unpack_from(raw, pos + 1)
            start = pos + 5
            return bytes(raw[start:start + length])
        if tag == _TAG_JSON:
            (length,) = _U32.unpack_from(raw, pos + 1)
            start = pos + 5
            return json.loads(
                str(raw[start:start + length], "utf-8"),
                object_hook=_json_object_hook,
            )
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise DBFSError(f"corrupt v2 value at offset {pos}: {exc}") from exc
    raise DBFSError(f"unknown v2 value tag 0x{tag:02x} at offset {pos}")


def codec_for_format(format_spec: Dict[str, object]) -> RecordCodec:
    """Compile the :class:`RecordCodec` a format descriptor declares."""
    type_name = format_spec.get("type")
    encoding = format_spec.get("encoding")
    if encoding != ENCODING_V2:
        raise DBFSError(
            f"format descriptor of {type_name!r} declares encoding "
            f"{encoding!r}; only {ENCODING_V2!r} tables are supported"
        )
    field_order = format_spec.get("field_order")
    if not field_order:
        raise DBFSError(
            f"binary-v2 format descriptor of {type_name!r} is missing "
            "its field_order"
        )
    return RecordCodec(field_order)
