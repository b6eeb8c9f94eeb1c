import socket
import struct
import threading

import pytest

from radarfuse.occupancy import OccupancyEvent, Zone, ZoneStatus
from radarfuse import telemetry
from radarfuse.telemetry import (MAX_STRING_BYTES, MiniMqttClient, MqttConfig,
                                 Publisher, event_topic, serialize_event,
                                 serialize_status, status_topic)


class TestSerialization:
    def test_empty_zone_golden(self):
        st = ZoneStatus(zone_id="z1", occupants=[], count=0, ts_ns=0)
        assert serialize_status(st) == \
            b'{"zone_id":"z1","ts_ms":0,"count":0,"targets":[]}'

    def test_dwell_rounding_golden(self):
        st = ZoneStatus(zone_id="z1", occupants=[(7, 12.34)], count=1,
                        ts_ns=1_500_000_000)
        assert serialize_status(st) == (
            b'{"zone_id":"z1","ts_ms":1500,"count":1,'
            b'"targets":[{"id":7,"dwell_s":12.3}]}')

    def test_targets_sorted_by_id(self):
        st = ZoneStatus(zone_id="z", occupants=[(9, 1.0), (2, 3.0)], count=2,
                        ts_ns=0)
        out = serialize_status(st)
        assert out.index(b'"id":2') < out.index(b'"id":9')

    def test_byte_deterministic(self):
        st = ZoneStatus(zone_id="z", occupants=[(1, 2.0)], count=1, ts_ns=42)
        assert serialize_status(st) == serialize_status(st)

    def test_event_golden(self):
        ev = OccupancyEvent(kind="enter", track_id=3, zone_id="z1",
                            ts_ns=2_000_000_000)
        assert serialize_event(ev) == \
            b'{"zone_id":"z1","ts_ms":2000,"kind":"enter","track_id":3}'


class TestTopics:
    def test_status_topic(self):
        assert status_topic("lab", "room_a") == "lab/occupancy/room_a/state"

    def test_event_topic(self):
        assert event_topic("lab", "room_a") == "lab/occupancy/room_a/events"

    @pytest.mark.parametrize("bad", ["a/b", "a+b", "a#b"])
    def test_wildcards_rejected(self, bad):
        # a zone id is one topic level, so the zone refuses it at load
        with pytest.raises(ValueError, match="^zone_id "):
            Zone(zone_id=bad, len_x=1.0, len_y=1.0)


class TestMqttStrings:
    @pytest.mark.parametrize("field", ["client_id", "topic_prefix"])
    def test_longest_string_accepted(self, field):
        MqttConfig(**{field: "x" * MAX_STRING_BYTES})

    @pytest.mark.parametrize("field", ["client_id", "topic_prefix"])
    @pytest.mark.parametrize("text", ["x" * (MAX_STRING_BYTES + 1),
                                      "\u00e9" * (MAX_STRING_BYTES // 2 + 1)],
                             ids=["ascii", "two-byte"])
    def test_over_long_string_rejected(self, field, text):
        # the limit is on UTF-8 bytes, not characters
        with pytest.raises(ValueError, match=f"^{field} is 65536 UTF-8 bytes"):
            MqttConfig(**{field: text})


class FakeSocket:
    """A connected socket whose ``fail`` step raises or answers badly."""

    def __init__(self, fail):
        self.fail = fail
        self.closed = False

    def settimeout(self, timeout):
        pass

    def sendall(self, data):
        if self.fail == "sendall":
            raise OSError("broken pipe")

    def recv(self, n):
        if self.fail == "recv":
            raise socket.timeout("timed out")
        return b"\x20\x02\x00\x05" if self.fail == "refused" else b""

    def close(self):
        self.closed = True


@pytest.mark.parametrize("fail,error", [
    ("sendall", OSError), ("recv", socket.timeout),
    ("refused", ConnectionError), ("closed", ConnectionError)])
def test_connect_closes_socket_on_failure(monkeypatch, fail, error):
    sock = FakeSocket(fail)
    monkeypatch.setattr(telemetry.socket, "create_connection",
                        lambda address, timeout: sock)
    client = MiniMqttClient("broker", 1883, "radarfuse")
    with pytest.raises(error):
        client.connect()
    assert sock.closed
    with pytest.raises(ConnectionError, match="not connected"):
        client.publish("lab/occupancy/z/state", b"{}")


def test_over_long_client_id_opens_no_socket(monkeypatch):
    # the CONNECT packet is built before the socket is opened
    opened = []
    monkeypatch.setattr(telemetry.socket, "create_connection",
                        lambda *a: opened.append(a))
    client = MiniMqttClient("broker", 1883, "x" * (MAX_STRING_BYTES + 1))
    with pytest.raises(struct.error):
        client.connect()
    assert opened == []


CONNACK = bytes([0x20, 0x02, 0x00, 0x00])


def puback(packet_id):
    return bytes([0x40, 0x02]) + struct.pack(">H", packet_id)


class TrickleSocket:
    """A connected socket that answers one byte per ``recv`` from a
    script of broker bytes, then reports EOF; ``sendall`` fails once
    ``broken`` is set."""

    def __init__(self, script):
        self.script = bytearray(script)
        self.broken = False
        self.closed = False

    def settimeout(self, timeout):
        pass

    def sendall(self, data):
        if self.broken:
            raise OSError("broken pipe")

    def recv(self, n):
        byte = bytes(self.script[:1])
        del self.script[:1]
        return byte

    def close(self):
        self.closed = True


def trickle_client(monkeypatch, script):
    sock = TrickleSocket(script)
    monkeypatch.setattr(telemetry.socket, "create_connection",
                        lambda address, timeout: sock)
    return MiniMqttClient("broker", 1883, "radarfuse"), sock


def test_acks_split_across_reads(monkeypatch):
    # each acknowledgement arrives one byte per read: it is read whole,
    # and no byte of one is left for the next publish to read
    client, sock = trickle_client(monkeypatch,
                                  CONNACK + puback(1) + puback(2))
    client.connect()
    client.publish("lab/occupancy/z/events", b"{}", qos=1)
    assert len(sock.script) == 4
    client.publish("lab/occupancy/z/events", b"{}", qos=1)
    assert sock.script == b""


@pytest.mark.parametrize("script,publishes,error", [
    (CONNACK[:2], 0, "CONNACK refused: 2002"),
    (CONNACK + puback(1)[:3], 1, "PUBACK missing")],
    ids=["connack", "puback"])
def test_ack_cut_short_by_close(monkeypatch, script, publishes, error):
    # a broker that closes mid-acknowledgement is a failure, not a hang
    client, sock = trickle_client(monkeypatch, script)
    with pytest.raises(ConnectionError, match=error):
        client.connect()
        for _ in range(publishes + 1):
            client.publish("lab/occupancy/z/events", b"{}", qos=1)


@pytest.mark.parametrize("ack", [
    puback(7), puback(0), bytes([0x40, 0x03, 0x00, 0x01]),
    bytes([0x50, 0x02, 0x00, 0x01])],
    ids=["foreign-id", "id-0", "length-3", "pubrec"])
def test_puback_must_name_the_packet(monkeypatch, ack):
    # packet 1's publish is acknowledged only by 40 02 00 01
    client, sock = trickle_client(monkeypatch, CONNACK + ack)
    client.connect()
    with pytest.raises(ConnectionError,
                       match=f"PUBACK missing for packet 1: {ack.hex()}"):
        client.publish("lab/occupancy/z/events", b"{}", qos=1)


def test_packet_ids_wrap_past_65535(monkeypatch):
    client, sock = trickle_client(monkeypatch,
                                  CONNACK + puback(65535) + puback(1))
    client.connect()
    client._packet_id = 65534
    client.publish("lab/occupancy/z/events", b"{}", qos=1)
    client.publish("lab/occupancy/z/events", b"{}", qos=1)
    assert sock.script == b""


def test_disconnect_closes_socket_when_send_fails(monkeypatch):
    client, sock = trickle_client(monkeypatch, CONNACK)
    client.connect()
    sock.broken = True
    client.disconnect()
    assert sock.closed
    with pytest.raises(ConnectionError, match="not connected"):
        client.publish("lab/occupancy/z/state", b"{}")


class FakeClient:
    """Scripted MQTT client: down until a flag flips, records publishes."""

    def __init__(self, broker):
        self.broker = broker

    def connect(self):
        if not self.broker["up"]:
            raise ConnectionError("broker down")

    def publish(self, topic, payload, qos=0, retain=False):
        if not self.broker["up"]:
            raise ConnectionError("broker gone")
        self.broker["published"].append((topic, payload, qos, retain))

    def disconnect(self):
        pass


def make_publisher(broker, queue_limit=10):
    clock = {"t": 0.0}
    cfg = MqttConfig(topic_prefix="lab", queue_limit=queue_limit)
    pub = Publisher(cfg=cfg, client_factory=lambda: FakeClient(broker),
                    clock=lambda: clock["t"])
    return pub, clock


def status(ts_ns=0, zone="z"):
    return ZoneStatus(zone_id=zone, occupants=[], count=0, ts_ns=ts_ns)


class TestPublisher:
    def test_publishes_when_broker_up(self):
        broker = {"up": True, "published": []}
        pub, clock = make_publisher(broker)
        pub.offer_status(status())
        pub.pump()
        assert len(broker["published"]) == 1
        topic, payload, qos, retain = broker["published"][0]
        assert topic == "lab/occupancy/z/state"
        assert retain is True and qos == 0

    def test_event_qos(self):
        broker = {"up": True, "published": []}
        pub, clock = make_publisher(broker)
        pub.offer_event(OccupancyEvent("enter", 1, "z", 0))
        pub.pump()
        assert broker["published"][0][2:] == (1, False)

    def test_outage_bounded_queue_drop_oldest(self):
        broker = {"up": False, "published": []}
        pub, clock = make_publisher(broker, queue_limit=5)
        for k in range(12):
            clock["t"] = float(k)
            pub.offer_status(status(ts_ns=k))
            pub.pump()
        assert not pub.connected
        assert len(pub._queue) == 5
        assert pub.dropped == 7

    def test_connection_state_is_the_client(self):
        broker = {"up": True, "published": []}
        pub, clock = make_publisher(broker)
        pub.pump()
        assert pub.connected
        broker["up"] = False            # a failed publish backs off too
        pub.offer_status(status())
        pub.pump()
        assert not pub.connected and pub._next_connect_at == 1.0
        broker["up"] = True
        clock["t"] = 1.0
        pub.pump()
        assert pub.connected and len(broker["published"]) == 1
        pub.close()
        assert not pub.connected
        with pytest.raises(AttributeError):
            pub.connected = True

    def test_failed_publish_closes_client(self, monkeypatch):
        # the PUBACK never comes: the publisher closes that client's
        # socket before it backs off, and keeps the event queued
        client, sock = trickle_client(monkeypatch, CONNACK)
        pub = Publisher(cfg=MqttConfig(topic_prefix="lab"),
                        client_factory=lambda: client, clock=lambda: 0.0)
        pub.offer_event(OccupancyEvent("enter", 1, "z", 0))
        pub.pump()
        assert sock.script == b""       # connected, then the PUBACK failed
        assert not pub.connected and sock.closed
        assert len(pub._queue) == 1 and pub._next_connect_at == 1.0

    def test_foreign_puback_keeps_event_queued(self, monkeypatch):
        # a stale ack for another packet is no acknowledgement: the
        # event stays queued and is sent again after the backoff
        client, sock = trickle_client(monkeypatch, CONNACK + puback(7))
        pub = Publisher(cfg=MqttConfig(topic_prefix="lab"),
                        client_factory=lambda: client, clock=lambda: 0.0)
        pub.offer_event(OccupancyEvent("enter", 1, "z", 0))
        pub.pump()
        assert sock.script == b""
        assert not pub.connected and sock.closed
        assert pub.published == 0
        assert len(pub._queue) == 1 and pub._next_connect_at == 1.0

    def test_back_off_survives_failing_disconnect(self):
        broker = {"up": True, "published": []}
        disconnects = []

        class Client(FakeClient):
            def disconnect(self):
                disconnects.append(self)
                raise ConnectionError("already gone")

        pub = Publisher(cfg=MqttConfig(topic_prefix="lab"),
                        client_factory=lambda: Client(broker),
                        clock=lambda: 0.0)
        pub.pump()
        broker["up"] = False
        pub.offer_status(status())
        pub.pump()
        assert not pub.connected and len(disconnects) == 1

    def test_backoff_grows_and_caps(self):
        broker = {"up": False, "published": []}
        pub, clock = make_publisher(broker)
        delays = []
        for k in range(8):
            before = pub._next_connect_at
            clock["t"] = pub._next_connect_at
            pub.pump()
            delays.append(pub._next_connect_at - clock["t"])
        assert delays[0] == 1.0
        assert delays == sorted(delays)
        assert max(delays) <= 30.0
        assert 30.0 in delays

    def test_reconnect_resumes_publishing(self):
        broker = {"up": False, "published": []}
        pub, clock = make_publisher(broker, queue_limit=100)
        for k in range(60):
            clock["t"] = float(k)
            pub.offer_status(status(ts_ns=k * 1_000_000_000))
            pub.pump()
        assert broker["published"] == []
        broker["up"] = True
        clock["t"] = 100.0
        pub.pump()
        assert len(broker["published"]) == 60   # queue drained in order
        assert pub.published == 60

    def test_every_status_published_regardless_of_wall_clock(self):
        broker = {"up": True, "published": []}
        pub, clock = make_publisher(broker)
        for k in range(10):          # ten statuses inside one wall second
            clock["t"] = k * 0.1
            pub.offer_status(status(ts_ns=k))
            pub.pump()
        assert [p for _, p, _, _ in broker["published"]] == \
            [serialize_status(status(ts_ns=k)) for k in range(10)]


def _tiny_broker(sock, published):
    conn, _ = sock.accept()
    data = conn.recv(1024)
    assert data[0] == 0x10   # CONNECT
    conn.sendall(bytes([0x20, 0x02, 0x00, 0x00]))
    buf = b""
    while True:
        chunk = conn.recv(4096)
        if not chunk:
            break
        buf += chunk
        while len(buf) >= 2:
            kind = buf[0] >> 4
            length = buf[1]
            if len(buf) < 2 + length:
                break
            body, buf = buf[2:2 + length], buf[2 + length:]
            if kind == 3:   # PUBLISH
                tlen = struct.unpack(">H", body[:2])[0]
                topic = body[2:2 + tlen].decode()
                rest = body[2 + tlen:]
                qos = (buf and 0) or 0
                published.append((topic, rest))
            elif kind == 14:  # DISCONNECT
                conn.close()
                return


def test_mini_mqtt_client_against_socket_broker():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    port = sock.getsockname()[1]
    published = []
    t = threading.Thread(target=_tiny_broker, args=(sock, published),
                         daemon=True)
    t.start()
    client = MiniMqttClient("127.0.0.1", port, "test-client")
    client.connect()
    client.publish("lab/occupancy/z/state", b'{"count":1}', qos=0,
                   retain=True)
    client.disconnect()
    t.join(timeout=5)
    assert published and published[0][0] == "lab/occupancy/z/state"
    assert published[0][1].endswith(b'{"count":1}')
