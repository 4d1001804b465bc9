"""Metadata wire format and the Aeron-like media driver."""

import pytest

from repro.metadata import (
    FlowRecord,
    MediaDriver,
    MetadataMessage,
    decode_message,
    encode_message,
    encoded_size,
)
from repro.metadata.encoding import datagram_count
from repro.sim import Simulator


def sample_message(flow_count=3, links_per_flow=4, sender=0):
    flows = tuple(
        FlowRecord(source_index=i, destination_index=i + 1,
                   used_bandwidth=(i + 1) * 1e6,
                   link_ids=tuple(range(links_per_flow)))
        for i in range(flow_count))
    return MetadataMessage(sender=sender, flows=flows)


class TestEncoding:
    def test_round_trip(self):
        message = sample_message()
        decoded = decode_message(encode_message(message), sender=0)
        assert decoded == message

    def test_round_trip_wide(self):
        flows = (FlowRecord(300, 400, 5e6, (257, 1000)),)
        message = MetadataMessage(sender=1, flows=flows)
        decoded = decode_message(encode_message(message, wide=True),
                                 sender=1, wide=True)
        assert decoded == message

    def test_narrow_rejects_large_ids(self):
        flows = (FlowRecord(300, 0, 1e6, ()),)
        with pytest.raises(ValueError):
            encode_message(MetadataMessage(sender=0, flows=flows))

    def test_size_formula_matches_encoding(self):
        for flow_count in (0, 1, 5, 40):
            message = sample_message(flow_count=flow_count)
            assert encoded_size(message) == len(encode_message(message))
            assert encoded_size(message, wide=True) == \
                len(encode_message(message, wide=True))

    def test_paper_sizing_narrow(self):
        """§4.2: <=256 nodes packs links and identifiers in 1 byte each."""
        message = sample_message(flow_count=1, links_per_flow=3)
        # 2 (count) + 4 (bw) + 1+1 (src/dst) + 1 (nlinks) + 3 (links) = 12.
        assert encoded_size(message) == 12

    def test_empty_message(self):
        message = MetadataMessage(sender=0, flows=())
        assert encoded_size(message) == 2
        assert decode_message(encode_message(message), sender=0) == message

    def test_bandwidth_quantized_to_kbps(self):
        flows = (FlowRecord(0, 1, 1_234_567.0, ()),)
        decoded = decode_message(
            encode_message(MetadataMessage(0, flows)), sender=0)
        assert decoded.flows[0].used_bandwidth == pytest.approx(1_235_000.0)

    def test_trailing_garbage_rejected(self):
        payload = encode_message(sample_message()) + b"\x00"
        with pytest.raises(ValueError):
            decode_message(payload, sender=0)

    def test_fits_single_datagram_at_scale(self):
        """A 40-flow report (§5.2 scale) still fits one UDP datagram."""
        message = sample_message(flow_count=40, links_per_flow=6)
        assert datagram_count(encoded_size(message)) == 1


class TestMediaDriver:
    def build_pair(self):
        sim = Simulator()
        left = MediaDriver(sim, "m0", network_delay=1e-3)
        right = MediaDriver(sim, "m1", network_delay=1e-3)
        left.connect(right)
        return sim, left, right

    def test_local_publish_costs_no_network(self):
        sim = Simulator()
        driver = MediaDriver(sim, "m0")
        seen = []
        driver.subscribe(seen.append)
        driver.publish_local(sample_message())
        assert len(seen) == 1
        assert driver.stats.bytes_sent == 0
        assert driver.stats.shared_memory_messages == 1

    def test_remote_publish_delivers_after_delay(self):
        sim, left, right = self.build_pair()
        seen = []
        right.subscribe(lambda m: seen.append((sim.now, m)))
        left.publish_to("m1", sample_message(sender=0))
        sim.run()
        assert len(seen) == 1
        assert seen[0][0] == pytest.approx(1e-3)
        assert seen[0][1].flows == sample_message().flows

    def test_byte_accounting_symmetric(self):
        sim, left, right = self.build_pair()
        right.subscribe(lambda m: None)
        message = sample_message()
        left.publish_to("m1", message)
        sim.run()
        payload = encoded_size(message)
        assert left.stats.bytes_sent == payload
        assert right.stats.bytes_received == payload
        assert left.stats.datagrams_sent == 1
        assert left.stats.wire_bytes_sent() == payload + 28

    def test_publish_broadcasts_to_all_peers(self):
        sim = Simulator()
        drivers = [MediaDriver(sim, f"m{i}", network_delay=1e-4)
                   for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                drivers[i].connect(drivers[j])
        received = {i: [] for i in range(3)}
        for i, driver in enumerate(drivers):
            driver.subscribe(received[i].append)
        drivers[0].publish(sample_message(sender=0))
        sim.run()
        assert len(received[0]) == 1  # shared memory
        assert len(received[1]) == 1  # UDP
        assert len(received[2]) == 1

    def test_publish_remote_is_publish_to_every_peer_for_one_encode(
            self, monkeypatch):
        """One wire image per distinct publication: every peer of it, and
        every identical publication after it, is handed the same decoded
        message at the same instant and in the same order as a
        ``publish_to`` per peer would hand it, with bytes and datagrams
        still accounted per peer — and one delivery event per
        publication, whatever the number of peers."""
        from repro.metadata import channels
        encodes = []
        monkeypatch.setattr(
            channels, "encode_message",
            lambda message, **kwargs: encodes.append(message)
            or encode_message(message, **kwargs))

        def triad(publish, publications=1):
            sim = Simulator()
            drivers = [MediaDriver(sim, f"m{i}", network_delay=1e-4)
                       for i in range(3)]
            # Connected out of name order: delivery follows the names.
            drivers[0].connect(drivers[2])
            drivers[0].connect(drivers[1])
            seen = []
            for driver in drivers[1:]:
                driver.subscribe(lambda m, name=driver.machine:
                                 seen.append((name, sim.now, m)))
            for _ in range(publications):
                # Equal messages, not one object: what a converged
                # manager builds afresh every period.
                publish(drivers[0], sample_message(sender=0))
            sim.run()
            return (seen, [driver.stats for driver in drivers],
                    sim.events_dispatched)

        one_by_one = triad(lambda driver, message: [
            driver.publish_to(peer, message) for peer in driver.peers()])
        assert len(encodes) == 1
        at_once = triad(lambda driver, message:
                        driver.publish_remote(message))
        assert len(encodes) == 2
        assert at_once[:2] == one_by_one[:2]
        assert [name for name, _, _ in at_once[0]] == ["m1", "m2"]
        # One event per publish_to, one per publish_remote.
        assert (one_by_one[2], at_once[2]) == (2, 1)

        seen, stats, events = triad(
            lambda driver, message: driver.publish_remote(message),
            publications=2)
        assert len(encodes) == 3            # the repeat encoded nothing
        assert [name for name, _, _ in seen] == ["m1", "m2"] * 2
        assert all(message is seen[0][2] for _, _, message in seen)
        assert events == 2
        once = at_once[1]
        for field in ("bytes_sent", "datagrams_sent", "bytes_received",
                      "datagrams_received"):
            assert [getattr(s, field) for s in stats] == \
                [2 * getattr(s, field) for s in once], field

    def test_a_driver_without_peers_schedules_nothing(self):
        sim = Simulator()
        driver = MediaDriver(sim, "m0")
        driver.publish_remote(sample_message())
        assert sim.pending() == 0
        assert driver.stats == MediaDriver(sim, "m1").stats

    def test_a_peer_connected_in_flight_misses_the_publication(self):
        sim, left, right = self.build_pair()
        late = MediaDriver(sim, "m2", network_delay=1e-3)
        seen = []
        for driver in (right, late):
            driver.subscribe(lambda m, name=driver.machine: seen.append(name))
        left.publish_remote(sample_message())
        left.connect(late)                  # before the delivery fires
        sim.run()
        assert seen == ["m1"]
        assert late.stats.bytes_received == 0
        left.publish_remote(sample_message())
        sim.run()
        assert seen == ["m1", "m1", "m2"]

    def test_unknown_peer_raises(self):
        sim, left, _right = self.build_pair()
        with pytest.raises(KeyError):
            left.publish_to("m9", sample_message())

    def test_self_connect_rejected(self):
        sim = Simulator()
        driver = MediaDriver(sim, "m0")
        with pytest.raises(ValueError):
            driver.connect(MediaDriver(sim, "m0"))
