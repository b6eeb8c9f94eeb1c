"""TLV codec for the radar's compressed point-cloud stream.

Wire layout (all little-endian):

  magic  : 8-byte preamble, see MAGIC
  header : uint32 type, uint32 length   (8 bytes; length counts payload only)
  point  : int8 elevation, int8 azimuth, int16 doppler,
           uint16 range, uint16 snr     (8 bytes per point)

The point layout is defined once, as :data:`POINT_DTYPE`.  Raw
integers are converted to physical units through per-radar scale
factors (:class:`DecodeUnits`).  In physical units a frame is one
``(n, 5)`` float64 *point array*, a row per detection in the radar's
own spherical frame with columns range (m), azimuth (rad), elevation
(rad), doppler (m/s) and snr (dB): the simulator draws it,
:func:`encode_points` packs it and :func:`decode_points` returns it.
Every frame starts with the magic preamble, which lets the scanner
resynchronize after byte loss on a serial link or a corrupt length
field.
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

HEADER_SIZE = _HEADER.size        # 8
POINT_SIZE = POINT_DTYPE.itemsize  # 8

# column of each wire field, in POINT_DTYPE order, in a point array
_WIRE_COLUMNS = [2, 1, 3, 0, 4]
_RAW_LO = np.array([np.iinfo(POINT_DTYPE[f]).min for f in POINT_DTYPE.names])
_RAW_HI = np.array([np.iinfo(POINT_DTYPE[f]).max for f in POINT_DTYPE.names])


class TlvError(Exception):
    pass


class BufferTooShort(TlvError):
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


@dataclass(frozen=True)
class TlvHeader:
    type_id: int
    length: int


@dataclass(frozen=True)
class DecodeUnits:
    """Physical value per raw integer unit, one scale per field."""

    elevation_scale: float = 0.01     # rad / raw
    azimuth_scale: float = 0.01      # rad / raw
    doppler_scale: float = 0.00028   # m/s / raw
    range_scale: float = 0.00025     # m / raw
    snr_scale: float = 0.1           # dB / raw

    def __post_init__(self):
        for name, v in zip(POINT_DTYPE.names, self.wire_scales()):
            if not (v > 0.0 and v == v and v != float("inf")):
                raise ValueError(
                    f"{name}_scale must be strictly positive and finite")

    def wire_scales(self) -> list[float]:
        """The scale of each wire field, in POINT_DTYPE order."""
        return [self.elevation_scale, self.azimuth_scale, self.doppler_scale,
                self.range_scale, self.snr_scale]


def parse_header(buf: bytes) -> TlvHeader:
    if len(buf) < HEADER_SIZE:
        raise BufferTooShort(f"need {HEADER_SIZE} bytes, got {len(buf)}")
    type_id, length = _HEADER.unpack_from(buf)
    return TlvHeader(type_id, length)


def decode_points(payload: bytes, units: DecodeUnits) -> np.ndarray:
    """The ``(n, 5)`` point array of a point TLV's payload: each raw
    field times its scale, in its column."""
    if len(payload) % POINT_SIZE != 0:
        raise MisalignedPayload(
            f"payload length {len(payload)} is not a multiple of {POINT_SIZE}")
    raw = np.frombuffer(payload, POINT_DTYPE)
    out = np.empty((len(raw), 5))
    for name, col, scale in zip(POINT_DTYPE.names, _WIRE_COLUMNS,
                                units.wire_scales()):
        np.multiply(raw[name], scale, out=out[:, col])
    return out


def quantize(points, units: DecodeUnits) -> np.ndarray:
    """Raw values of an ``(n, 5)`` point array as ``(n, 5)`` floats in
    wire field order: each column divided by its scale and rounded half
    to even.  Nothing is checked: a value may lie outside its integer
    width, or be NaN or infinite."""
    return np.rint(np.asarray(points, dtype=float)[:, _WIRE_COLUMNS]
                   / units.wire_scales())


def encode_points(points, units: DecodeUnits,
                  type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """Header plus packed point records, inverse of :func:`decode_points`.

    ``points`` is an ``(n, 5)`` point array.  A value whose raw integer
    does not fit its field, NaN and infinity included, raises
    :class:`ValueOutOfRange` for the first such point and, within it,
    the first such field in wire order."""
    points = np.asarray(points, dtype=float).reshape(-1, 5)
    raw = quantize(points, units)
    bad = ~((raw >= _RAW_LO) & (raw <= _RAW_HI))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueOutOfRange(POINT_DTYPE.names[j], int(i),
                              float(points[i, _WIRE_COLUMNS[j]]))
    rec = np.empty(len(raw), POINT_DTYPE)
    for j, name in enumerate(POINT_DTYPE.names):
        rec[name] = raw[:, j]
    return _HEADER.pack(type_id, rec.nbytes) + rec.tobytes()


def encode_frame(points, units: DecodeUnits,
                 type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """A full on-wire frame: magic preamble, then header+payload."""
    return MAGIC + encode_points(points, units, type_id)


@dataclass
class FrameScanner:
    """Resynchronizing splitter over an arbitrary byte stream.

    Feed chunks in arrival order; complete (header, payload) records come
    out in order.  Garbage between frames is skipped up to the next
    preamble and counted in ``dropped_bytes``, and so is the preamble of
    a header whose length exceeds MAX_PAYLOAD_BYTES; nothing is ever
    raised for corruption.
    """

    dropped_bytes: int = 0
    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes):
        self._buf.extend(data)
        while True:
            rec = self._next_record()
            if rec is None:
                return
            yield rec

    def _drop(self, n: int):
        self.dropped_bytes += n
        del self._buf[:n]

    def _next_record(self):
        while True:
            idx = self._buf.find(MAGIC)
            if idx < 0:
                # keep a possible partial preamble at the tail
                self._drop(max(0, len(self._buf) - (len(MAGIC) - 1)))
                return None
            self._drop(idx)
            base = len(MAGIC)
            if len(self._buf) < base + HEADER_SIZE:
                return None
            header = parse_header(bytes(self._buf[base:base + HEADER_SIZE]))
            if header.length <= MAX_PAYLOAD_BYTES:
                break
            self._drop(base)   # corrupt length: resync at the next preamble
        end = base + HEADER_SIZE + header.length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[base + HEADER_SIZE:end])
        del self._buf[:end]
        return header, payload


@dataclass
class FrameDecoder:
    """Scanner plus point decoding: bytes in, ``(n, 5)`` point arrays out.

    TLVs of any other type than COMPRESSED_POINTS_TYPE_ID are
    length-hopped and counted, never errors; so are point TLVs whose
    payload is not a whole number of points.  ``feed`` does not read
    ``ts_ns``, since a decoded frame carries no time; the argument
    stays because ``perfbench/tracing.py`` proxies ``feed`` with it.
    """

    units: DecodeUnits
    unknown_tlv_count: int = 0
    misaligned_tlv_count: int = 0

    def __post_init__(self):
        self.scanner = FrameScanner()

    def feed(self, data: bytes, ts_ns: int):
        for header, payload in self.scanner.feed(data):
            if header.type_id != COMPRESSED_POINTS_TYPE_ID:
                self.unknown_tlv_count += 1
                continue
            if len(payload) % POINT_SIZE:
                self.misaligned_tlv_count += 1
                continue
            yield decode_points(payload, self.units)
