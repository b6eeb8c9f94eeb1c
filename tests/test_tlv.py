import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _reference import brute_decode
from radarfuse import tlv


def make_point(range_m=1.0, azimuth=0.0, elevation=0.0, doppler=0.0,
               snr=10.0):
    """One point row, columns in point-array order."""
    return [range_m, azimuth, elevation, doppler, snr]


class TestParseHeader:
    """The scanner is the one header reader."""

    def test_little_endian_read(self):
        header = bytes([0x14, 0x04, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00])
        payload = bytes(range(32))
        assert list(tlv.FrameScanner().feed(tlv.MAGIC + header + payload)) \
            == [(1044, payload)]

    def test_zero_case(self):
        assert list(tlv.FrameScanner().feed(tlv.MAGIC + bytes(8))) == \
            [(0, b"")]

    def test_short_buffer(self):
        scanner = tlv.FrameScanner()
        assert list(scanner.feed(tlv.MAGIC + bytes(7))) == []
        assert list(scanner.feed(bytes(1))) == [(0, b"")]
        assert scanner.dropped_bytes == 0


class TestDecodePoints:
    def test_zero_record(self):
        pts = tlv.decode_points(bytes(8))
        assert pts.shape == (1, 5) and pts.dtype == np.float64
        assert pts.tolist() == [[0, 0, 0, 0, 0]]

    def test_scale_multiplication(self):
        payload = struct.pack("<bbhHH", 25, -50, -5000, 10000, 200)
        assert tlv.decode_points(payload)[0].tolist() == pytest.approx(
            [2.5, -0.5, 0.25, -1.4, 20.0])

    def test_stride(self):
        assert tlv.decode_points(bytes(24)).shape == (3, 5)

    def test_misaligned(self):
        with pytest.raises(tlv.MisalignedPayload):
            tlv.decode_points(bytes(9))

    def test_column_scales_are_wire_scales_read_only(self):
        # wire order elevation, azimuth, doppler, range, snr; column
        # order range, azimuth, elevation, doppler, snr
        assert tlv.WIRE_SCALES == (0.01, 0.01, 0.00028, 0.00025, 0.1)
        assert tlv.COLUMN_SCALES.tolist() == [0.00025, 0.01, 0.01, 0.00028,
                                              0.1]
        with pytest.raises(ValueError):
            tlv.COLUMN_SCALES[0] = 1.0


class TestEncodePoints:
    def test_empty(self):
        buf = tlv.encode_points([])
        assert len(buf) == 8
        assert list(tlv.FrameScanner().feed(tlv.MAGIC + buf)) == \
            [(tlv.COMPRESSED_POINTS_TYPE_ID, b"")]

    def test_one_zero_point(self):
        buf = tlv.encode_points([make_point(range_m=0, snr=0)])
        assert len(buf) == 16
        assert buf[8:] == bytes(8)

    def test_out_of_range(self):
        # 17 m is past the 65535 * 0.25 mm = 16.38 m the range field spans
        with pytest.raises(tlv.ValueOutOfRange) as exc:
            tlv.encode_points([make_point(range_m=17.0)])
        assert exc.value.field_name == "range"
        assert exc.value.index == 0

    def test_wire_layout(self):
        # wire order is elevation, azimuth, doppler, range, snr; the
        # negative azimuth and doppler exercise the signed fields
        buf = tlv.encode_points([make_point(range_m=2.5, azimuth=-0.5,
                                            elevation=0.25, doppler=-1.4,
                                            snr=20.0)])
        assert buf[8:] == struct.pack("<bbhHH", 25, -50, -5000, 10000, 200)

    def test_first_bad_point_then_first_bad_field_in_wire_order(self):
        # point 1 overflows range (column 0) and doppler (column 3), and
        # doppler comes first on the wire; point 2's elevation, the first
        # wire field, is reported only after every field of point 1
        pts = [make_point(), make_point(range_m=99.0, doppler=99.0),
               make_point(elevation=2.0)]
        with pytest.raises(tlv.ValueOutOfRange) as exc:
            tlv.encode_points(pts)
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
            tlv.encode_points([make_point(), bad])
        assert (exc.value.field_name, exc.value.index) == (field, 1)

    def test_length_matches_count(self):
        pts = [make_point(range_m=i * 0.1) for i in range(5)]
        buf = tlv.encode_points(pts)
        ((type_id, payload),) = tlv.FrameScanner().feed(tlv.MAGIC + buf)
        assert type_id == tlv.COMPRESSED_POINTS_TYPE_ID
        assert len(payload) == 5 * tlv.POINT_SIZE
        assert len(tlv.decode_points(buf[8:])) == 5


point_strategy = st.builds(
    make_point,
    range_m=st.floats(0.0, 16.0),
    azimuth=st.floats(-1.27, 1.27),
    elevation=st.floats(-1.27, 1.27),
    doppler=st.floats(-9.0, 9.0),
    snr=st.floats(0.0, 100.0),
)


# one quantum per column of a point array
QUANTA = tlv.COLUMN_SCALES.tolist()


@settings(max_examples=200)
@given(st.lists(point_strategy, max_size=20))
def test_round_trip_within_one_quantum(points):
    buf = tlv.encode_points(points)
    back = tlv.decode_points(buf[8:])
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
    points = tlv.decode_points(raw)
    assert points.shape == (len(raw) // tlv.POINT_SIZE, 5)
    assert tlv.encode_points(points)[tlv.HEADER_SIZE:] == raw


@settings(max_examples=300)
@given(raw_strategy)
@example(b"")
def test_decode_matches_brute_decode(raw):
    # bit for bit: one in-place multiply by the column scales gives the
    # oracle's Python float products
    want = np.array(brute_decode(raw), dtype=float).reshape(-1, 5)
    got = tlv.decode_points(raw)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(raw_strategy, st.integers(0, 20), st.integers(0, 20))
def test_packed_rows_are_record_slices(raw, a, b):
    # pack_raw writes each row's record in place, so the records of rows
    # a..b of one call are bytes a..b of it
    rec = np.frombuffer(raw, tlv.POINT_DTYPE)
    values = np.column_stack([rec[name] for name in
                              tlv.POINT_DTYPE.names]).astype(float)
    assert tlv.pack_raw(values.reshape(-1, 5)) == raw
    assert tlv.pack_raw(values.reshape(-1, 5)[a:b]) == \
        raw[a * tlv.POINT_SIZE:b * tlv.POINT_SIZE]


class TestFrameScanner:
    def frame(self, n_points):
        pts = [make_point(range_m=0.5 + 0.1 * i) for i in range(n_points)]
        return tlv.encode_frame(pts)

    def test_back_to_back(self):
        scanner = tlv.FrameScanner()
        recs = list(scanner.feed(self.frame(2) + self.frame(3)))
        assert [len(p) for _, p in recs] == [16, 24]
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
        assert [len(p) for _, p in recs] == [16, 8]

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
        assert [len(p) for _, p in recs] == [24] * 2000
        assert scanner.dropped_bytes == len(bad)


class TestFrameDecoder:
    def test_unknown_type_skipped_and_counted(self):
        dec = tlv.FrameDecoder()
        known = tlv.encode_frame([make_point()])
        unknown = tlv.encode_frame([make_point(range_m=2.0)], type_id=9999)
        frames = list(dec.feed(unknown + known, ts_ns=5))
        assert len(frames) == 1
        assert dec.unknown_tlv_count == 1
        # the one frame out is the known TLV's point
        (decoded,) = frames[0].tolist()
        for value, got, quantum in zip(make_point(), decoded, QUANTA):
            assert abs(value - got) <= quantum

    def test_misaligned_point_tlv_dropped_and_counted(self):
        dec = tlv.FrameDecoder()
        bad = tlv.MAGIC + struct.pack(
            "<II", tlv.COMPRESSED_POINTS_TYPE_ID, 7) + bytes(7)
        good = tlv.encode_frame([make_point(), make_point()])
        frames = list(dec.feed(bad + good, ts_ns=5))
        assert [len(f) for f in frames] == [2]
        assert dec.misaligned_tlv_count == 1
        assert dec.unknown_tlv_count == 0


def _framed(type_id, length, body=b""):
    return tlv.MAGIC + struct.pack("<II", type_id, length) + body


# stream pieces: whole point frames, unknown and misaligned TLVs, garbage
# and headers whose length field is over MAX_PAYLOAD_BYTES
piece_strategy = st.one_of(
    raw_strategy.map(
        lambda raw: _framed(tlv.COMPRESSED_POINTS_TYPE_ID, len(raw), raw)),
    st.tuples(st.integers(0, 2**32 - 1).filter(
                  lambda t: t != tlv.COMPRESSED_POINTS_TYPE_ID),
              st.binary(max_size=24)).map(
        lambda tb: _framed(tb[0], len(tb[1]), tb[1])),
    st.binary(min_size=1, max_size=23).filter(
        lambda b: len(b) % tlv.POINT_SIZE).map(
        lambda b: _framed(tlv.COMPRESSED_POINTS_TYPE_ID, len(b), b)),
    st.binary(max_size=20),
    st.tuples(st.integers(0, 2**32 - 1),
              st.integers(tlv.MAX_PAYLOAD_BYTES + 1, 2**32 - 1)).map(
        lambda tl: _framed(*tl)),
)


def _decode_chunks(chunks):
    dec = tlv.FrameDecoder()
    frames = [f.tobytes() for chunk in chunks for f in dec.feed(chunk, 0)]
    return (frames, dec.scanner.dropped_bytes, dec.unknown_tlv_count,
            dec.misaligned_tlv_count)


@settings(max_examples=200, deadline=None)
@given(st.lists(piece_strategy, max_size=10), st.data())
def test_decoder_output_does_not_depend_on_chunking(pieces, data):
    # cuts fall anywhere, splitting preambles, headers and payloads
    stream = b"".join(pieces)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                     max_size=12)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    bytewise = [stream[i:i + 1] for i in range(len(stream))]
    assert _decode_chunks(chunks) == _decode_chunks(bytewise)
