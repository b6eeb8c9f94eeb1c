import json

import pytest

from radarfuse import recording
from radarfuse.recording import (FORMAT_NAME, FORMAT_VERSION, FormatError,
                                 LogRecord, Recorder, VersionMismatch,
                                 read_jsonl, replay)


def write_log(path, records, radars=("r0",)):
    with Recorder(path, radars) as rec:
        for r in records:
            rec.write(r)


SAMPLE = [
    LogRecord(ts_ns=0, radar_id="r0", payload=b"\x01\x02"),
    LogRecord(ts_ns=100_000_000, radar_id="r0", payload=b"\x00\x7f" * 4),
    LogRecord(ts_ns=200_000_000, radar_id="r0", payload=b"\xff" * 16),
]


def test_round_trip_records(tmp_path):
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    out = list(replay(p, as_fast_as_possible=True))
    assert out == SAMPLE


def test_round_trip_byte_identical(tmp_path):
    """Re-recording a replayed log reproduces the file byte for byte."""
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_log(p1, SAMPLE)
    write_log(p2, list(replay(p1, as_fast_as_possible=True)))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_contents(tmp_path):
    p = tmp_path / "a.jsonl"
    write_log(p, [], radars=["b", "a"])
    assert list(replay(p, as_fast_as_possible=True)) == []
    _, h = next(read_jsonl(p))
    assert h["format"] == FORMAT_NAME
    assert h["version"] == FORMAT_VERSION
    assert h["radars"] == ["a", "b"]


def test_pacing_with_recorded_sleeps(tmp_path):
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    slept = []
    list(replay(p, speed=2.0, sleep=slept.append))
    # deltas are 0.1 s each, halved by speed=2
    assert slept == pytest.approx([0.05, 0.05])


def test_fast_replay_never_sleeps(tmp_path):
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    slept = []
    list(replay(p, as_fast_as_possible=True, sleep=slept.append))
    assert slept == []


def test_bad_speed(tmp_path):
    p = tmp_path / "a.jsonl"
    write_log(p, [])
    for speed in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            list(replay(p, speed=speed))


def test_per_radar_monotonicity_enforced(tmp_path):
    p = tmp_path / "a.jsonl"
    with Recorder(p, ["r0", "r1"]) as rec:
        rec.write(LogRecord(5, "r0", b""))
        rec.write(LogRecord(1, "r1", b""))  # other radar: fine
        with pytest.raises(ValueError):
            rec.write(LogRecord(4, "r0", b""))


# the recorder writes only what replay reads back: every refusal names
# its field, and nothing reaches the file
@pytest.mark.parametrize("record,field", [
    pytest.param(LogRecord(1.5, "r0", b""), "ts_ns", id="float-ts"),
    pytest.param(LogRecord(True, "r0", b""), "ts_ns", id="bool-ts"),
    pytest.param(LogRecord(1, b"r0", b""), "radar_id", id="bytes-radar_id"),
    pytest.param(LogRecord(1, "r1", b""), "radar_id", id="radar-not-in-header"),
])
def test_recorder_refuses_unreadable_record(tmp_path, record, field):
    p = tmp_path / "a.jsonl"
    with Recorder(p, ["r0"]) as rec:
        with pytest.raises(ValueError, match=field):
            rec.write(record)
    assert len(p.read_text().splitlines()) == 1  # the header alone
    assert list(replay(p, as_fast_as_possible=True)) == []


def test_recorder_refuses_non_string_radar_id(tmp_path):
    p = tmp_path / "a.jsonl"
    with pytest.raises(ValueError, match="radar_id"):
        Recorder(p, ["r0", 1])
    assert not p.exists()


@pytest.mark.parametrize("bad", [
    pytest.param('{"ts_ns": "nope"}', id="bad-ts"),
    pytest.param('{"ts_ns": 1, "radar_id": "r0", "kind": "raw_tlv", '
                 '"payload": "AQI"}', id="bad-padding"),
    pytest.param('{"ts_ns": 1, "radar_id": "r0", "kind": "points", '
                 '"payload": [{"x": 1.0}]}', id="points-kind"),
    # field types: no coercion, no unhashable radar id
    pytest.param('{"ts_ns": 1, "radar_id": ["r0"], "kind": "raw_tlv", '
                 '"payload": ""}', id="list-radar_id"),
    pytest.param('{"ts_ns": true, "radar_id": "r0", "kind": "raw_tlv", '
                 '"payload": ""}', id="bool-ts"),
    pytest.param('{"ts_ns": "12", "radar_id": "r0", "kind": "raw_tlv", '
                 '"payload": ""}', id="string-ts"),
    pytest.param('{"ts_ns": 1.7, "radar_id": "r0", "kind": "raw_tlv", '
                 '"payload": ""}', id="float-ts"),
])
def test_format_error_line_number(tmp_path, bad):
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    lines = p.read_text().splitlines()
    lines[2] = bad
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as ei:
        list(replay(p, as_fast_as_possible=True))
    assert ei.value.line_no == 3


def test_stray_base64_characters_discarded(tmp_path):
    p = tmp_path / "a.jsonl"
    p.write_text(json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                             "radars": ["r0"]}) + "\n"
                 + '{"ts_ns": 1, "radar_id": "r0", "kind": "raw_tlv", '
                   '"payload": "AQ!I="}\n')
    (rec,) = replay(p, as_fast_as_possible=True)
    assert rec.payload == b"\x01\x02"


def test_not_a_log(tmp_path):
    p = tmp_path / "a.jsonl"
    p.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(FormatError):
        replay(p)


@pytest.mark.parametrize("header", [
    {"format": FORMAT_NAME, "version": FORMAT_VERSION},
    {"format": FORMAT_NAME, "version": FORMAT_VERSION, "radars": "wall_a"},
    {"format": FORMAT_NAME, "version": FORMAT_VERSION, "radars": ["r0", 1]},
    [FORMAT_NAME, FORMAT_VERSION],
], ids=["no-radars", "radars-string", "radars-non-string-id", "not-object"])
def test_bad_header_radars(tmp_path, header):
    p = tmp_path / "a.jsonl"
    p.write_text(json.dumps(header) + "\n")
    with pytest.raises(FormatError) as ei:
        replay(p)
    assert ei.value.line_no == 1


def test_version_mismatch(tmp_path):
    p = tmp_path / "a.jsonl"
    p.write_text(json.dumps({"format": FORMAT_NAME, "version": 99}) + "\n")
    with pytest.raises(VersionMismatch):
        replay(p)
    # VersionMismatch is a FormatError, so one except clause covers both
    assert issubclass(VersionMismatch, FormatError)


def test_replay_checks_before_first_record(tmp_path):
    # the checks run at the call, so a caller can fail before it opens
    # its outputs; the message names the log
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    with pytest.raises(ValueError, match="speed must be > 0"):
        replay(p, speed=0.0)
    p.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(FormatError) as ei:
        replay(p)
    assert str(ei.value) == f"{p}: line 1: not a radarfuse log"


def test_replay_opens_the_log_once(tmp_path, monkeypatch):
    # the header and the records are read from one open file
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(recording, "open", counting_open, raising=False)
    assert list(replay(p, as_fast_as_possible=True)) == SAMPLE
    assert opened == [p]


def test_read_jsonl_skips_blank_lines(tmp_path):
    p = tmp_path / "a.jsonl"
    p.write_text('\n{"a": 1}\n  \n{"b": [2]}\n\n')
    assert list(recording.read_jsonl(p)) == [(2, {"a": 1}), (4, {"b": [2]})]


def test_header_is_first_non_blank_line(tmp_path):
    # blank lines are skipped wherever they stand, before the header too;
    # a header error names the header's line
    p = tmp_path / "a.jsonl"
    write_log(p, SAMPLE)
    p.write_text("\n \n" + p.read_text())
    line_no, header = next(read_jsonl(p))
    assert (line_no, header["radars"]) == (3, ["r0"])
    assert list(replay(p, as_fast_as_possible=True)) == SAMPLE
    p.write_text('\n{"format":"something-else","version":1}\n')
    with pytest.raises(FormatError) as ei:
        replay(p)
    assert str(ei.value) == f"{p}: line 2: not a radarfuse log"


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
def test_log_without_header(tmp_path, text):
    p = tmp_path / "a.jsonl"
    p.write_text(text)
    with pytest.raises(FormatError) as ei:
        replay(p)
    assert str(ei.value) == f"{p}: line 1: not a radarfuse log"
