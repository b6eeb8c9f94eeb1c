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
simulator draws it, :func:`encode_frame` writes it and
:class:`FrameDecoder` reads it back.  :func:`encode_frame` is the one
checked writer: :func:`quantize` to raw values, a range check, then
:func:`pack_raw` to records and :func:`pack_tlv` to a point TLV.  A
caller holding raw values already known to fit (the simulator) takes
the last two steps alone, without quantising again.  Every frame starts
with the magic preamble, which lets the decoder resynchronize after
byte loss on a serial link or a corrupt length field.
:class:`FrameDecoder` is the one reader: it reads each header in place,
skips and counts any TLV type but points, and is the one place a
payload's alignment is checked.
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


class ValueOutOfRange(ValueError):
    def __init__(self, field_name: str, index: int, value: float):
        super().__init__(f"point {index}: field '{field_name}' value {value} "
                         f"does not fit its raw integer width")
        self.field_name = field_name
        self.index = index
        self.value = value


def decode_points(payload: bytes) -> np.ndarray:
    """The ``(n, 5)`` point array of a point TLV's whole-point payload
    (else ``ValueError``): each raw field times its scale, cast into its
    column, then the array multiplied in place by
    :data:`COLUMN_SCALES`, so each value is ``float64(raw) * scale``."""
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


def pack_tlv(records: bytes) -> bytes:
    """Header plus packed point records: one point TLV."""
    return _HEADER.pack(COMPRESSED_POINTS_TYPE_ID, len(records)) + records


def encode_frame(points) -> bytes:
    """A full on-wire frame, inverse of :class:`FrameDecoder`: the magic
    preamble, then one point TLV of the packed points.

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
    return MAGIC + pack_tlv(pack_raw(raw))


@dataclass
class FrameDecoder:
    """The one reader of a radar's byte stream: chunks in, in arrival
    order; an ``(n, 5)`` point array out per complete point TLV, in order.

    Garbage between frames is skipped up to the next preamble and
    counted in ``dropped_bytes``, and so is the preamble of a header
    whose length exceeds MAX_PAYLOAD_BYTES.  A TLV of another type than
    COMPRESSED_POINTS_TYPE_ID (``unknown_tlv_count``) or a point TLV
    that is not whole points (``misaligned_tlv_count``, the codec's one
    alignment check) is counted and hopped by its length.  Nothing is
    raised for corruption.  Headers are read in place in the buffer;
    only a point TLV's payload is copied out, to be decoded.  ``feed``
    does not read ``ts_ns``, since a decoded frame carries no time; the
    argument stays because ``perfbench/tracing.py`` proxies it.
    """

    dropped_bytes: int = 0
    unknown_tlv_count: int = 0
    misaligned_tlv_count: int = 0
    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes, ts_ns: int):
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
            points = None
            if type_id != COMPRESSED_POINTS_TYPE_ID:
                self.unknown_tlv_count += 1
            elif length % POINT_SIZE:
                self.misaligned_tlv_count += 1
            else:
                points = decode_points(buf[_PREFIX_SIZE:end])
            del buf[:end]
            if points is not None:
                yield points

    def _drop(self, n: int):
        self.dropped_bytes += n
        del self._buf[:n]
