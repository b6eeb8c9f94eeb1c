"""TLV codec for the radar's compressed point-cloud stream.

Wire layout (all little-endian):

  magic  : 8-byte preamble, see MAGIC
  header : uint32 type, uint32 length   (8 bytes; length counts payload only)
  point  : int8 elevation, int8 azimuth, int16 doppler,
           uint16 range, uint16 snr     (8 bytes per point)

The point layout is defined once, as :data:`POINT_DTYPE`, and so are
the scales that give its raw integers their physical units,
:data:`WIRE_SCALES`: every radar speaks the same format.  In physical
units a frame is one ``(n, 5)`` float64 *point array*, a row per
detection in the radar's own spherical frame with columns range (m),
azimuth (rad), elevation (rad), doppler (m/s) and snr (dB): the
simulator draws it,
:func:`encode_points` packs it and :func:`decode_points` returns it.
Encoding is two steps, :func:`quantize` and a range check to raw
values, then :func:`pack_raw` to records, so a caller holding raw
values already known to fit (the simulator) packs them without
quantising again.
Every frame starts with the magic preamble, which lets the scanner
resynchronize after byte loss on a serial link or a corrupt length
field.  :class:`FrameScanner` is the one header reader.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

# Type id of compressed point-cloud TLVs; every other type is skipped.
COMPRESSED_POINTS_TYPE_ID = 1044

# Frame preamble, also used by TI demo streams.
MAGIC = bytes([0x02, 0x01, 0x04, 0x03, 0x06, 0x05, 0x08, 0x07])

# A longer payload is taken for a corrupt length field: 64 KiB is 8192
# points, far above the detections a radar reports per frame.
MAX_PAYLOAD_BYTES = 64 * 1024

_HEADER = struct.Struct("<II")
POINT_DTYPE = np.dtype([("elevation", "<i1"), ("azimuth", "<i1"),
                        ("doppler", "<i2"), ("range", "<u2"),
                        ("snr", "<u2")])
# physical value per raw unit of each field, in POINT_DTYPE order:
# elevation and azimuth rad, doppler m/s, range m, snr dB
WIRE_SCALES = (0.01, 0.01, 0.00028, 0.00025, 0.1)

HEADER_SIZE = _HEADER.size        # 8
POINT_SIZE = POINT_DTYPE.itemsize  # 8
# preamble plus header: the bytes before a frame's payload
_PREFIX_SIZE = len(MAGIC) + HEADER_SIZE

# column of each wire field, in POINT_DTYPE order, in a point array
_WIRE_COLUMNS = [2, 1, 3, 0, 4]
_FIELD_COLUMNS = list(zip(POINT_DTYPE.names, _WIRE_COLUMNS))
# the integer range of each wire field, in POINT_DTYPE order
RAW_LO = np.array([np.iinfo(POINT_DTYPE[f]).min for f in POINT_DTYPE.names])
RAW_HI = np.array([np.iinfo(POINT_DTYPE[f]).max for f in POINT_DTYPE.names])
# WIRE_SCALES in point-array column order, as one read-only row
COLUMN_SCALES = np.empty(5)
COLUMN_SCALES[_WIRE_COLUMNS] = WIRE_SCALES
COLUMN_SCALES.flags.writeable = False


class TlvError(Exception):
    pass


class MisalignedPayload(TlvError):
    pass


class ValueOutOfRange(TlvError):
    def __init__(self, field_name: str, index: int, value: float):
        super().__init__(f"point {index}: field '{field_name}' value {value} "
                         f"does not fit its raw integer width")
        self.field_name = field_name
        self.index = index
        self.value = value


def decode_points(payload: bytes) -> np.ndarray:
    """The ``(n, 5)`` point array of a point TLV's payload: each raw
    field times its scale, in its column.  The raw integers are cast
    into their columns, then the array is multiplied in place by
    :data:`COLUMN_SCALES`, so each value is ``float64(raw) * scale``."""
    if len(payload) % POINT_SIZE != 0:
        raise MisalignedPayload(
            f"payload length {len(payload)} is not a multiple of {POINT_SIZE}")
    raw = np.frombuffer(payload, POINT_DTYPE)
    out = np.empty((len(raw), 5))
    for name, col in _FIELD_COLUMNS:
        out[:, col] = raw[name]
    out *= COLUMN_SCALES
    return out


def quantize(points) -> np.ndarray:
    """Raw values of an ``(n, 5)`` point array as ``(n, 5)`` floats in
    wire field order: each column divided by its scale and rounded half
    to even.  Nothing is checked: a value may lie outside its integer
    width, or be NaN or infinite."""
    return np.rint(np.asarray(points, dtype=float)[:, _WIRE_COLUMNS]
                   / WIRE_SCALES)


def pack_raw(raw) -> bytes:
    """The packed point records of ``(n, 5)`` raw values in wire field
    order, each within its field's integer width: ``n * POINT_SIZE``
    bytes, as many rows as are given, so the records of consecutive
    rows are consecutive slices of one call's bytes."""
    rec = np.empty(len(raw), POINT_DTYPE)
    for j, name in enumerate(POINT_DTYPE.names):
        rec[name] = raw[:, j]
    return rec.tobytes()


def pack_tlv(records: bytes, type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """Header plus packed point records: one TLV."""
    return _HEADER.pack(type_id, len(records)) + records


def encode_points(points, type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """Header plus packed point records, inverse of :func:`decode_points`.

    ``points`` is an ``(n, 5)`` point array, or empty; any other shape
    raises ``ValueError``.  A value whose raw integer does not fit its
    field, NaN and infinity included, raises :class:`ValueOutOfRange`
    for the first such point and, within it, the first such field in
    wire order."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        points = points.reshape(0, 5)
    elif points.ndim != 2 or points.shape[1] != 5:
        raise ValueError(f"points of shape {points.shape}, expected (n, 5)")
    raw = quantize(points)
    bad = ~((raw >= RAW_LO) & (raw <= RAW_HI))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueOutOfRange(POINT_DTYPE.names[j], int(i),
                              float(points[i, _WIRE_COLUMNS[j]]))
    return pack_tlv(pack_raw(raw), type_id)


def encode_frame(points, type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """A full on-wire frame: magic preamble, then header+payload."""
    return MAGIC + encode_points(points, type_id)


@dataclass
class FrameScanner:
    """Resynchronizing splitter over an arbitrary byte stream.

    Feed chunks in arrival order; the ``(type_id, payload)`` of each
    complete TLV comes out in order.  Garbage between frames is skipped
    up to the next preamble and counted in ``dropped_bytes``, and so is
    the preamble of a header whose length exceeds MAX_PAYLOAD_BYTES;
    nothing is ever raised for corruption.  The header is read in place
    from the buffer; only the payload is copied out.
    """

    dropped_bytes: int = 0
    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes):
        buf = self._buf
        buf += data
        while True:
            idx = buf.find(MAGIC)
            if idx < 0:
                # keep a possible partial preamble at the tail
                if len(buf) >= len(MAGIC):
                    self._drop(len(buf) - (len(MAGIC) - 1))
                return
            if idx:
                self._drop(idx)
            if len(buf) < _PREFIX_SIZE:
                return
            type_id, length = _HEADER.unpack_from(buf, len(MAGIC))
            if length > MAX_PAYLOAD_BYTES:
                # corrupt length: resync at the next preamble
                self._drop(len(MAGIC))
                continue
            end = _PREFIX_SIZE + length
            if len(buf) < end:
                return
            payload = bytes(buf[_PREFIX_SIZE:end])
            del buf[:end]
            yield type_id, payload

    def _drop(self, n: int):
        self.dropped_bytes += n
        del self._buf[:n]


@dataclass
class FrameDecoder:
    """Scanner plus point decoding: bytes in, ``(n, 5)`` point arrays out.

    TLVs of any other type than COMPRESSED_POINTS_TYPE_ID are
    length-hopped and counted, never errors; so are point TLVs whose
    payload is not a whole number of points.  ``feed`` does not read
    ``ts_ns``, since a decoded frame carries no time; the argument
    stays because ``perfbench/tracing.py`` proxies ``feed`` with it.
    """

    unknown_tlv_count: int = 0
    misaligned_tlv_count: int = 0

    def __post_init__(self):
        self.scanner = FrameScanner()

    def feed(self, data: bytes, ts_ns: int):
        for type_id, payload in self.scanner.feed(data):
            if type_id != COMPRESSED_POINTS_TYPE_ID:
                self.unknown_tlv_count += 1
            elif len(payload) % POINT_SIZE:
                self.misaligned_tlv_count += 1
            else:
                yield decode_points(payload)
