"""TLV codec for the radar's compressed point-cloud stream.

Wire layout (all little-endian):

  magic  : 8-byte preamble, see MAGIC
  header : uint32 type, uint32 length   (8 bytes; length counts payload only)
  point  : int8 elevation, int8 azimuth, int16 doppler,
           uint16 range, uint16 snr     (8 bytes per point)

Raw integers are converted to physical units through per-radar scale
factors (:class:`DecodeUnits`).  Every frame starts with the magic
preamble, which lets the scanner resynchronize after byte loss on a
serial link or a corrupt length field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

# Type id of compressed point-cloud TLVs; every other type is skipped.
COMPRESSED_POINTS_TYPE_ID = 1044

# Frame preamble, also used by TI demo streams.
MAGIC = bytes([0x02, 0x01, 0x04, 0x03, 0x06, 0x05, 0x08, 0x07])

# A longer payload is taken for a corrupt length field: 64 KiB is 8192
# points, far above the detections a radar reports per frame.
MAX_PAYLOAD_BYTES = 64 * 1024

_HEADER = struct.Struct("<II")
_POINT = struct.Struct("<bbhHH")

HEADER_SIZE = _HEADER.size   # 8
POINT_SIZE = _POINT.size     # 8


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
        for name in ("elevation_scale", "azimuth_scale", "doppler_scale",
                     "range_scale", "snr_scale"):
            v = getattr(self, name)
            if not (v > 0.0 and v == v and v != float("inf")):
                raise ValueError(f"{name} must be strictly positive and finite")


@dataclass(frozen=True)
class RadarPoint:
    """One decoded detection in the radar's own spherical frame."""

    range_m: float
    azimuth: float
    elevation: float
    doppler: float
    snr: float
    radar_id: str
    ts_ns: int


def parse_header(buf: bytes) -> TlvHeader:
    if len(buf) < HEADER_SIZE:
        raise BufferTooShort(f"need {HEADER_SIZE} bytes, got {len(buf)}")
    type_id, length = _HEADER.unpack_from(buf)
    return TlvHeader(type_id, length)


def decode_points(payload: bytes, units: DecodeUnits, radar_id: str,
                  ts_ns: int) -> list[RadarPoint]:
    if len(payload) % POINT_SIZE != 0:
        raise MisalignedPayload(
            f"payload length {len(payload)} is not a multiple of {POINT_SIZE}")
    out = []
    for off in range(0, len(payload), POINT_SIZE):
        el, az, dop, rng, snr = _POINT.unpack_from(payload, off)
        out.append(RadarPoint(
            range_m=rng * units.range_scale,
            azimuth=az * units.azimuth_scale,
            elevation=el * units.elevation_scale,
            doppler=dop * units.doppler_scale,
            snr=snr * units.snr_scale,
            radar_id=radar_id,
            ts_ns=ts_ns,
        ))
    return out


_RAW_BOUNDS = {
    "elevation": (-128, 127),
    "azimuth": (-128, 127),
    "doppler": (-32768, 32767),
    "range": (0, 65535),
    "snr": (0, 65535),
}


def _raw(value: float, scale: float, field_name: str, index: int) -> int:
    r = round(value / scale)
    lo, hi = _RAW_BOUNDS[field_name]
    if not lo <= r <= hi:
        raise ValueOutOfRange(field_name, index, value)
    return r


def encode_points(points: list[RadarPoint], units: DecodeUnits,
                  type_id: int = COMPRESSED_POINTS_TYPE_ID) -> bytes:
    """Header plus packed point records, inverse of :func:`decode_points`."""
    chunks = [_HEADER.pack(type_id, len(points) * POINT_SIZE)]
    for i, p in enumerate(points):
        chunks.append(_POINT.pack(
            _raw(p.elevation, units.elevation_scale, "elevation", i),
            _raw(p.azimuth, units.azimuth_scale, "azimuth", i),
            _raw(p.doppler, units.doppler_scale, "doppler", i),
            _raw(p.range_m, units.range_scale, "range", i),
            _raw(p.snr, units.snr_scale, "snr", i),
        ))
    return b"".join(chunks)


def encode_frame(points: list[RadarPoint], units: DecodeUnits,
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
    """Scanner plus point decoding: bytes in, RadarPoint frames out.

    TLVs of any other type than COMPRESSED_POINTS_TYPE_ID are
    length-hopped and counted, never errors; so are point TLVs whose
    payload is not a whole number of points.
    """

    units: DecodeUnits
    radar_id: str
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
            yield decode_points(payload, self.units, self.radar_id, ts_ns)
