"""Site membership at boot: a peer that has not started listening yet.

Sites boot in any order.  A site whose failure detector latches a
not-yet-started peer DOWN must not fail every request to that peer fast
once it is up: only a peer that has answered at least once is
quarantined on the transport.
"""

import socket
import threading

from repro.exceptions import CommunicationError
from repro.orb.site import SiteConfig, SiteRuntime

HEARTBEAT = {"probe_interval": 30.0}


def wait_for(predicate, timeout=10.0):
    waiter = threading.Event()
    for _ in range(int(timeout / 0.02)):
        if predicate():
            return True
        waiter.wait(0.02)
    return predicate()


def answers_ping(runtime, peer_id):
    try:
        runtime.transport.control(peer_id, {"op": "ping"}, attempts=1, probe=True)
    except CommunicationError:
        return False
    return True


def test_peer_started_after_being_marked_down_is_reachable():
    # Site-a's port is held from the start by a socket that is bound but
    # not listening: site-b's probes are refused, so it marks site-a
    # down, and no other socket can take the port before site-a's
    # transport takes this one over and listens on it.
    held = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    held.bind(("127.0.0.1", 0))
    port_a = held.getsockname()[1]
    site_b = SiteRuntime(
        SiteConfig(
            site_id="site-b",
            port=0,
            poll_interval=0.05,
            peers={"site-a": ("127.0.0.1", port_a)},
            heartbeat=HEARTBEAT,
        )
    )
    site_a = None
    site_b.serve_in_background()
    try:
        assert wait_for(
            lambda: site_b.membership()["peers"]["site-a"]["state"] == "down"
        )
        assert wait_for(lambda: site_b.transport.address is not None)
        site_a = SiteRuntime(
            SiteConfig(
                site_id="site-a",
                port=port_a,
                poll_interval=0.05,
                peers={"site-b": tuple(site_b.transport.address)},
                heartbeat=HEARTBEAT,
            )
        )
        site_a.transport.bind = held
        site_a.serve_in_background()
        assert wait_for(lambda: answers_ping(site_b, "site-a"))
        # The half-open probe is 30 s away; an ordinary request must not
        # wait for it.
        reply = site_b.transport.control("site-a", {"op": "ping"})
        assert reply["site"] == "site-a"
    finally:
        if site_a is not None:
            site_a.stop()
        site_b.stop()
        held.close()
