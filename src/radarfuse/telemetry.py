"""MQTT publishing of zone statuses and occupancy events.

Payloads are canonical JSON with a fixed key order so they are
byte-stable for golden-file comparison.  The publisher owns a bounded
in-memory queue and an exponential-backoff reconnect loop: when the
broker is down the queue fills and the oldest entries are dropped and
counted.  Every offered status is published (the grid's data-time
``status_period`` is the one throttle).  A connect or a QoS-1 PUBACK
wait in ``pump`` can hold the caller for up to the socket timeout per
read; an acknowledgement is read until its 4 bytes arrive or the peer
closes, and a PUBACK counts only if it names the packet just sent.  A
client that fails is disconnected before the backoff.

A minimal MQTT 3.1.1 client over a plain socket is included; any object
with connect/publish/disconnect can be substituted (tests use a fake).
"""

from __future__ import annotations

import json
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field

from .occupancy import OccupancyEvent, ZoneStatus

BACKOFF_CAP = 30.0  # s
SOCKET_TIMEOUT = 5.0  # s, MiniMqttClient's connect and receive timeout
# (QoS, retain) of each message kind; MiniMqttClient speaks QoS 0 and 1
STATUS_DELIVERY = (0, True)   # a zone's state, kept by the broker
EVENT_DELIVERY = (1, False)   # an enter or exit, acknowledged once
# MQTT 3.1.1 §1.5.3: a string is a 2-byte length, then its UTF-8 bytes
MAX_STRING_BYTES = 0xFFFF


def check_string(what: str, s: str):
    """Raise ValueError, its message beginning with ``what``, when ``s``
    does not fit in one MQTT string or holds U+0000, which §1.5.3 bars."""
    if "\0" in s:
        raise ValueError(f"{what} holds U+0000, which an MQTT string "
                         f"may not")
    size = len(s.encode("utf-8"))
    if size > MAX_STRING_BYTES:
        raise ValueError(f"{what} is {size} UTF-8 bytes; an MQTT string "
                         f"holds at most {MAX_STRING_BYTES}")


@dataclass(frozen=True)
class MqttConfig:
    host: str = "localhost"
    port: int = 1883
    client_id: str = "radarfuse"
    topic_prefix: str = "radarfuse"
    queue_limit: int = 1000

    def __post_init__(self):
        if not self.topic_prefix or self.topic_prefix.endswith("/"):
            raise ValueError("topic_prefix must be nonempty with no trailing slash")
        if any(c in self.topic_prefix for c in "+#"):
            raise ValueError(f"topic_prefix {self.topic_prefix!r} contains "
                             "an MQTT wildcard")
        check_string("client_id", self.client_id)
        check_string("topic_prefix", self.topic_prefix)
        if not 0 < self.port < 65536:
            raise ValueError("port must be in 1..65535")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


def serialize_status(status: ZoneStatus) -> bytes:
    targets = [{"id": tid, "dwell_s": round(dwell, 1)}
               for tid, dwell in sorted(status.occupants)]
    doc = {"zone_id": status.zone_id,
           "ts_ms": status.ts_ns // 1_000_000,
           "count": status.count,
           "targets": targets}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def serialize_event(event: OccupancyEvent) -> bytes:
    doc = {"zone_id": event.zone_id,
           "ts_ms": event.ts_ns // 1_000_000,
           "kind": event.kind,
           "track_id": event.track_id}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def status_topic(prefix: str, zone_id: str) -> str:
    return f"{prefix}/occupancy/{zone_id}/state"


def event_topic(prefix: str, zone_id: str) -> str:
    return f"{prefix}/occupancy/{zone_id}/events"


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """``n`` bytes from ``sock``, over as many reads as they take; fewer
    only if the peer closes first."""
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            break
        data += chunk
    return data


class MiniMqttClient:
    """Just enough MQTT 3.1.1: CONNECT, PUBLISH (QoS 0/1), DISCONNECT."""

    def __init__(self, host: str, port: int, client_id: str):
        self.host = host
        self.port = port
        self.client_id = client_id
        self._sock: socket.socket | None = None
        self._packet_id = 0

    @staticmethod
    def _encode_length(n: int) -> bytes:
        out = bytearray()
        while True:
            byte = n % 128
            n //= 128
            out.append(byte | 0x80 if n else byte)
            if not n:
                return bytes(out)

    @staticmethod
    def _utf8(s: str) -> bytes:
        b = s.encode("utf-8")
        return struct.pack(">H", len(b)) + b

    def connect(self):
        payload = self._utf8(self.client_id)
        var = self._utf8("MQTT") + bytes([4, 0x02]) + struct.pack(">H", 60)
        pkt = bytes([0x10]) + self._encode_length(len(var) + len(payload)) + var + payload
        sock = socket.create_connection((self.host, self.port),
                                        SOCKET_TIMEOUT)
        try:
            sock.settimeout(SOCKET_TIMEOUT)
            sock.sendall(pkt)
            ack = _recv_exactly(sock, 4)
            if len(ack) < 4 or ack[0] != 0x20 or ack[3] != 0:
                raise ConnectionError(f"CONNACK refused: {ack.hex()}")
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def publish(self, topic: str, payload: bytes, qos: int = 0,
                retain: bool = False):
        if self._sock is None:
            raise ConnectionError("not connected")
        flags = (qos << 1) | (1 if retain else 0)
        var = self._utf8(topic)
        if qos > 0:
            self._packet_id = self._packet_id % 65535 + 1
            var += struct.pack(">H", self._packet_id)
        pkt = bytes([0x30 | flags]) + self._encode_length(len(var) + len(payload)) + var + payload
        self._sock.sendall(pkt)
        if qos > 0:
            # a PUBACK is 0x40, remaining length 2, then this packet's id
            ack = _recv_exactly(self._sock, 4)
            if ack != b"\x40\x02" + struct.pack(">H", self._packet_id):
                raise ConnectionError(f"PUBACK missing for packet "
                                      f"{self._packet_id}: {ack.hex()}")

    def disconnect(self):
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.sendall(bytes([0xE0, 0x00]))
            except OSError:
                pass
            finally:
                sock.close()


@dataclass
class Publisher:
    """Bounded-queue MQTT publisher with reconnect backoff.

    Drive it with ``offer_status``/``offer_event`` from the pipeline and
    ``pump()`` after them, on the same thread.  The clock is
    injectable so outage behavior is testable without wall time.
    """

    cfg: MqttConfig
    client_factory: object = None      # callable () -> client
    clock: object = time.monotonic
    dropped: int = field(default=0, init=False)
    published: int = field(default=0, init=False)
    _queue: deque = field(default_factory=deque, init=False)
    _client: object = field(default=None, init=False)
    _backoff: float = field(default=1.0, init=False)
    _next_connect_at: float = field(default=0.0, init=False)

    @property
    def connected(self) -> bool:
        return self._client is not None

    def _make_client(self):
        if self.client_factory is not None:
            return self.client_factory()
        return MiniMqttClient(self.cfg.host, self.cfg.port, self.cfg.client_id)

    def _enqueue(self, topic, payload, qos, retain):
        if len(self._queue) >= self.cfg.queue_limit:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append((topic, payload, qos, retain))

    def offer_status(self, status: ZoneStatus):
        self._enqueue(status_topic(self.cfg.topic_prefix, status.zone_id),
                      serialize_status(status), *STATUS_DELIVERY)

    def offer_event(self, event: OccupancyEvent):
        self._enqueue(event_topic(self.cfg.topic_prefix, event.zone_id),
                      serialize_event(event), *EVENT_DELIVERY)

    def pump(self):
        """One maintenance step: reconnect if due, then drain the queue."""
        now = self.clock()
        if self._client is None:
            if now < self._next_connect_at:
                return
            try:
                self._client = self._make_client()
                self._client.connect()
            except (OSError, ConnectionError):
                self._back_off(now)
                return
            self._backoff = 1.0
        while self._queue:
            topic, payload, qos, retain = self._queue[0]
            try:
                self._client.publish(topic, payload, qos, retain)
            except (OSError, ConnectionError):
                self._back_off(now)
                return
            self._queue.popleft()
            self.published += 1

    def _back_off(self, now: float):
        self.close()
        self._next_connect_at = now + self._backoff
        self._backoff = min(self._backoff * 2.0, BACKOFF_CAP)

    def close(self):
        if self._client is not None:
            try:
                self._client.disconnect()
            except (OSError, ConnectionError):
                pass
        self._client = None
