import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radarfuse import tlv


UNITS = tlv.DecodeUnits()


def make_point(range_m=1.0, azimuth=0.0, elevation=0.0, doppler=0.0,
               snr=10.0):
    """One point row, columns in point-array order."""
    return [range_m, azimuth, elevation, doppler, snr]


class TestParseHeader:
    def test_little_endian_read(self):
        buf = bytes([0x14, 0x04, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00])
        assert tlv.parse_header(buf) == tlv.TlvHeader(type_id=1044, length=32)

    def test_zero_case(self):
        assert tlv.parse_header(bytes(8)) == tlv.TlvHeader(0, 0)

    def test_short_buffer(self):
        with pytest.raises(tlv.BufferTooShort):
            tlv.parse_header(bytes(7))


@pytest.mark.parametrize("name", [f"{n}_scale" for n in tlv.POINT_DTYPE.names])
@pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf])
def test_bad_scale_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive"):
        tlv.DecodeUnits(**{name: value})


class TestDecodePoints:
    def test_zero_record(self):
        pts = tlv.decode_points(bytes(8), UNITS)
        assert pts.shape == (1, 5) and pts.dtype == np.float64
        assert pts.tolist() == [[0, 0, 0, 0, 0]]

    def test_scale_multiplication(self):
        units = tlv.DecodeUnits(range_scale=0.01, snr_scale=0.5)
        payload = struct.pack("<bbhHH", 0, 0, 0, 250, 40)
        range_m, _, _, _, snr = tlv.decode_points(payload, units)[0]
        assert range_m == pytest.approx(2.5)
        assert snr == pytest.approx(20.0)

    def test_stride(self):
        assert tlv.decode_points(bytes(24), UNITS).shape == (3, 5)

    def test_misaligned(self):
        with pytest.raises(tlv.MisalignedPayload):
            tlv.decode_points(bytes(9), UNITS)


class TestEncodePoints:
    def test_empty(self):
        buf = tlv.encode_points([], UNITS)
        assert len(buf) == 8
        assert tlv.parse_header(buf).length == 0

    def test_one_zero_point(self):
        buf = tlv.encode_points([make_point(range_m=0, snr=0)], UNITS)
        assert len(buf) == 16
        assert buf[8:] == bytes(8)

    def test_out_of_range(self):
        units = tlv.DecodeUnits(range_scale=0.01)
        with pytest.raises(tlv.ValueOutOfRange) as exc:
            tlv.encode_points([make_point(range_m=700.0)], units)
        assert exc.value.field_name == "range"
        assert exc.value.index == 0

    def test_wire_layout(self):
        # wire order is elevation, azimuth, doppler, range, snr; the
        # negative azimuth and doppler exercise the signed fields
        buf = tlv.encode_points([make_point(range_m=2.5, azimuth=-0.5,
                                            elevation=0.25, doppler=-1.4,
                                            snr=20.0)], UNITS)
        assert buf[8:] == struct.pack("<bbhHH", 25, -50, -5000, 10000, 200)

    def test_first_bad_point_then_first_bad_field_in_wire_order(self):
        # point 1 overflows range (column 0) and doppler (column 3), and
        # doppler comes first on the wire; point 2's elevation, the first
        # wire field, is reported only after every field of point 1
        pts = [make_point(), make_point(range_m=99.0, doppler=99.0),
               make_point(elevation=2.0)]
        with pytest.raises(tlv.ValueOutOfRange) as exc:
            tlv.encode_points(pts, UNITS)
        assert (exc.value.field_name, exc.value.index) == ("doppler", 1)
        assert exc.value.value == 99.0

    @pytest.mark.parametrize("field,column", [("range", 0), ("azimuth", 1),
                                              ("elevation", 2),
                                              ("doppler", 3), ("snr", 4)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_out_of_range(self, field, column, value):
        bad = make_point()
        bad[column] = value
        with pytest.raises(tlv.ValueOutOfRange) as exc:
            tlv.encode_points([make_point(), bad], UNITS)
        assert (exc.value.field_name, exc.value.index) == (field, 1)

    def test_length_matches_count(self):
        pts = [make_point(range_m=i * 0.1) for i in range(5)]
        buf = tlv.encode_points(pts, UNITS)
        header = tlv.parse_header(buf)
        assert header.length == 5 * tlv.POINT_SIZE
        assert len(tlv.decode_points(buf[8:], UNITS)) == 5


point_strategy = st.builds(
    make_point,
    range_m=st.floats(0.0, 16.0),
    azimuth=st.floats(-1.27, 1.27),
    elevation=st.floats(-1.27, 1.27),
    doppler=st.floats(-9.0, 9.0),
    snr=st.floats(0.0, 100.0),
)


# one quantum per column of a point array
QUANTA = [UNITS.range_scale, UNITS.azimuth_scale, UNITS.elevation_scale,
          UNITS.doppler_scale, UNITS.snr_scale]


@settings(max_examples=200)
@given(st.lists(point_strategy, max_size=20))
def test_round_trip_within_one_quantum(points):
    buf = tlv.encode_points(points, UNITS)
    back = tlv.decode_points(buf[8:], UNITS)
    assert back.shape == (len(points), 5)
    for point, dec in zip(points, back.tolist()):
        for value, decoded, quantum in zip(point, dec, QUANTA):
            assert abs(value - decoded) <= quantum


def _records(fields):
    return np.array(fields, tlv.POINT_DTYPE).tobytes()


raw_strategy = st.lists(st.tuples(
    *(st.integers(int(np.iinfo(tlv.POINT_DTYPE[name]).min),
                  int(np.iinfo(tlv.POINT_DTYPE[name]).max))
      for name in tlv.POINT_DTYPE.names)), max_size=20).map(_records)


@settings(max_examples=300)
@given(raw_strategy)
@example(_records([(-128, -128, -32768, 65535, 65535),
                   (127, 127, 32767, 0, 0)]))
@example(b"")
def test_wire_round_trip_is_exact(raw):
    # every raw record decodes to floats that encode back to its bytes
    points = tlv.decode_points(raw, UNITS)
    assert points.shape == (len(raw) // tlv.POINT_SIZE, 5)
    assert tlv.encode_points(points, UNITS)[tlv.HEADER_SIZE:] == raw


class TestFrameScanner:
    def frame(self, n_points):
        pts = [make_point(range_m=0.5 + 0.1 * i) for i in range(n_points)]
        return tlv.encode_frame(pts, UNITS)

    def test_back_to_back(self):
        scanner = tlv.FrameScanner()
        recs = list(scanner.feed(self.frame(2) + self.frame(3)))
        assert [h.length for h, _ in recs] == [16, 24]
        assert scanner.dropped_bytes == 0

    def test_truncated_final_record(self):
        scanner = tlv.FrameScanner()
        data = self.frame(2) + self.frame(3)[:-5]
        recs = list(scanner.feed(data))
        assert len(recs) == 1
        # remainder is buffered, not dropped
        assert scanner.dropped_bytes == 0
        recs += list(scanner.feed(self.frame(3)[-5:]))
        assert len(recs) == 2

    def test_garbage_between_records(self):
        garbage = bytes([0xDE, 0xAD, 0xBE, 0xEF, 0x99])
        stream = self.frame(1) + garbage + self.frame(2) + self.frame(1)
        scanner = tlv.FrameScanner()
        recs = list(scanner.feed(stream))
        assert len(recs) == 3
        assert scanner.dropped_bytes == 5

    def test_byte_at_a_time_feeding(self):
        stream = self.frame(2) + self.frame(1)
        scanner = tlv.FrameScanner()
        recs = []
        for i in range(len(stream)):
            recs.extend(scanner.feed(stream[i:i + 1]))
        assert [h.length for h, _ in recs] == [16, 8]

    def test_implausible_length_resyncs(self):
        # a preamble and a header claiming ~4 GiB of payload, then 2000
        # valid frames: 80 000 bytes, more than MAX_PAYLOAD_BYTES
        bad = tlv.MAGIC + struct.pack("<II", tlv.COMPRESSED_POINTS_TYPE_ID,
                                      0xFFFFFFF0)
        scanner = tlv.FrameScanner()
        recs = list(scanner.feed(bad))
        for _ in range(2000):
            recs.extend(scanner.feed(self.frame(3)))
            assert len(scanner._buf) <= tlv.MAX_PAYLOAD_BYTES
        assert [h.length for h, _ in recs] == [24] * 2000
        assert scanner.dropped_bytes == len(bad)


class TestFrameDecoder:
    def test_unknown_type_skipped_and_counted(self):
        units = UNITS
        dec = tlv.FrameDecoder(units=units)
        known = tlv.encode_frame([make_point()], units)
        unknown = tlv.encode_frame([make_point(range_m=2.0)], units,
                                   type_id=9999)
        frames = list(dec.feed(unknown + known, ts_ns=5))
        assert len(frames) == 1
        assert dec.unknown_tlv_count == 1
        # the one frame out is the known TLV's point
        (decoded,) = frames[0].tolist()
        for value, got, quantum in zip(make_point(), decoded, QUANTA):
            assert abs(value - got) <= quantum

    def test_misaligned_point_tlv_dropped_and_counted(self):
        dec = tlv.FrameDecoder(units=UNITS)
        bad = tlv.MAGIC + struct.pack(
            "<II", tlv.COMPRESSED_POINTS_TYPE_ID, 7) + bytes(7)
        good = tlv.encode_frame([make_point(), make_point()], UNITS)
        frames = list(dec.feed(bad + good, ts_ns=5))
        assert [len(f) for f in frames] == [2]
        assert dec.misaligned_tlv_count == 1
        assert dec.unknown_tlv_count == 0
