"""Tests for the executing multi-node runtime (wire-format delegation)."""

from __future__ import annotations

import pytest

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.thunks import make_application, make_identification, strict
from repro.fixpoint.net import FixpointNode, NetworkError, NodeDirectory

#: A padded codelet whose shipping cost is visible on the wire.
FAT_INC_SOURCE = (
    '"""'
    + "p" * 600
    + '"""\n'
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
    "    return fix.create_blob((n + 1).to_bytes(8, 'little'))\n"
)


@pytest.fixture
def pair():
    a = FixpointNode("alpha")
    b = FixpointNode("beta")
    a.connect(b)
    return a, b


def add_encode(node, x, y):
    repo = node.repo
    fn = node.runtime.stdlib["add_u8"]
    return node.runtime.invoke(
        fn, [repo.put_blob(int_blob(x, 1)), repo.put_blob(int_blob(y, 1))]
    ).wrap_strict()


class TestDelegation:
    def test_delegate_computes_remotely(self, pair):
        a, b = pair
        encode = add_encode(a, 20, 22)
        result = a.delegate("beta", encode)
        assert blob_int(a.repo.get_blob(result).data) == 42
        assert b.delegations_served == 1
        assert a.delegations_sent == 1

    def test_bytes_actually_cross_the_wire(self, pair):
        a, b = pair
        encode = add_encode(a, 1, 2)
        a.delegate("beta", encode)
        channel = a.peers["beta"]
        assert channel.bytes_ab > 32  # request: encode + codelet bundle
        assert channel.bytes_ba > 32  # response: result + data

    def test_view_makes_repeat_delegation_cheaper(self, pair):
        a, b = pair
        # A codelet only alpha has (compiled after the inventory
        # exchange), padded so its shipping cost is visible.
        fn = a.runtime.compile(FAT_INC_SOURCE, "fat-inc")

        def encode_for(n):
            return a.runtime.invoke(
                fn, [a.repo.put_blob(int_blob(n))]
            ).wrap_strict()

        a.delegate("beta", encode_for(1))
        sent_after_first = a.peers["beta"].bytes_ab
        a.delegate("beta", encode_for(2))  # same codelet, new argument
        sent_after_second = a.peers["beta"].bytes_ab
        # The fat codelet blob is not re-shipped: the view knows beta has it.
        first_cost = sent_after_first
        second_cost = sent_after_second - sent_after_first
        assert second_cost < first_cost / 2

    def test_result_memoized_locally(self, pair):
        a, b = pair
        encode = add_encode(a, 5, 6)
        result = a.delegate("beta", encode)
        # A local evaluation now hits the memo - zero invocations here.
        local = a.runtime.eval(encode)
        assert local == result
        assert a.runtime.trace.invocation_count() == 0

    def test_delegate_data_dependency(self, pair):
        """Ship a 1 KiB blob dependency with the job."""
        a, b = pair
        payload = bytes(range(256)) * 4
        blob = a.repo.put_blob(payload)
        encode = strict(make_identification(blob))
        result = a.delegate("beta", encode)
        assert b.repo.get_blob(result).data == payload

    def test_unknown_peer(self, pair):
        a, _ = pair
        with pytest.raises(NetworkError):
            a.delegate("gamma", add_encode(a, 1, 1))


class TestEvalAnywhere:
    """Work runs where its data is: ``delegate_best`` sends it to the
    peer the cost model prices cheapest."""

    def test_follows_the_data(self):
        """The function's code lives on beta: alpha sends the job there."""
        a = FixpointNode("alpha")
        b = FixpointNode("beta")
        # A codelet that exists only on beta (not part of the stdlib both
        # nodes share); connect *afterwards* so the inventory exchange
        # tells alpha that beta holds it.
        fn = b.runtime.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    a = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
            "    b = int.from_bytes(fix.read_blob(entries[3]), 'little')\n"
            "    return fix.create_blob((a * b).to_bytes(8, 'little'))\n",
            "mul",
        )
        a.connect(b)
        x = a.repo.put_blob(int_blob(7))
        y = a.repo.put_blob(int_blob(8))
        # Alpha builds the invocation against beta's code handle.
        thunk = make_application(a.repo, fn, [x, y])
        # Alpha cannot run it: the codelet blob is not local.
        result = a.delegate_best(thunk.wrap_strict())
        assert blob_int(a.repo.get_blob(result).data) == 56
        assert a.delegations_sent == 1

    def test_three_node_chain(self):
        a, b, c = FixpointNode("a"), FixpointNode("b"), FixpointNode("c")
        a.connect(b)
        b.connect(c)
        encode = add_encode(b, 10, 20)
        # b holds the whole footprint: its own runtime evaluates it.
        assert blob_int(b.repo.get_blob(b.runtime.eval(encode)).data) == 30

    def test_cold_peer_never_beats_warm_peer(self):
        """Regression: the old greedy scorer started at -1, so a peer
        holding *zero* footprint bytes could win on dict order."""
        alpha = FixpointNode("alpha")
        cold = FixpointNode("cold")
        warm = FixpointNode("warm")
        fn = warm.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        alpha.connect(cold)  # cold connects first: dict-order bait
        alpha.connect(warm)
        arg = alpha.repo.put_blob(int_blob(41))
        encode = make_application(alpha.repo, fn, [arg]).wrap_strict()
        result = alpha.delegate_best(encode)
        assert blob_int(alpha.repo.get_blob(result).data) == 42
        assert warm.delegations_served == 1
        assert cold.delegations_served == 0

    def test_bytes_beat_handle_counts(self):
        """A peer holding many tiny footprint objects loses to the peer
        holding the big one - bytes moved decide, not object counts."""
        alpha = FixpointNode("alpha")
        many = FixpointNode("many")  # will hold 10 x 40 B of the footprint
        big = FixpointNode("big")  # will hold 1 x ~2 KiB of it
        smalls = [bytes([i]) * 40 for i in range(10)]
        big_payload = bytes(range(256)) * 8  # 2 KiB
        for payload in smalls:
            alpha.repo.put_blob(payload)  # alpha can ship these
            many.repo.put_blob(payload)
        hbig = big.repo.put_blob(big_payload)
        fn = alpha.runtime.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    total = sum(len(fix.read_blob(e)) for e in entries[2:])\n"
            "    return fix.create_blob(total.to_bytes(8, 'little'))\n",
            "sizes",
        )
        alpha.connect(many)
        alpha.connect(big)
        args = [alpha.repo.put_blob(p) for p in smalls] + [hbig]
        encode = make_application(alpha.repo, fn, args).wrap_strict()
        # The bait: "many" overlaps the footprint on more *objects*...
        quote = alpha.quote_best(encode)
        assert quote.candidate == "big"  # ...but fewer *bytes*
        result = alpha.delegate_best(encode)
        assert big.delegations_served == 1
        assert many.delegations_served == 0
        total = int.from_bytes(alpha.repo.get_blob(result).data, "little")
        assert total == 10 * 40 + 2048

    def test_ties_break_by_inflight_load_then_name(self):
        alpha = FixpointNode("alpha")
        left = FixpointNode("left")
        right = FixpointNode("right")
        fn_left = left.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        fn_right = right.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        assert fn_left == fn_right
        alpha.connect(left)
        alpha.connect(right)
        arg = alpha.repo.put_blob(int_blob(1))
        encode = make_application(alpha.repo, fn_left, [arg]).wrap_strict()
        # Equal bytes missing on both: the name breaks the tie...
        assert alpha.quote_best(encode).candidate == "left"
        # ...unless one peer already has delegations in flight.
        alpha.outstanding["left"] = 2
        assert alpha.quote_best(encode).candidate == "right"

    def test_delegate_best_without_peers(self):
        lonely = FixpointNode("lonely")
        with pytest.raises(NetworkError):
            lonely.delegate_best(add_encode(lonely, 1, 1))

    def test_cheap_but_unserviceable_peer_loses_to_feasible_peer(self):
        """A peer may price cheapest yet be a dead end: the caller cannot
        ship a key the peer is not believed to hold.  The feasible peer
        must win even at a higher bytes price."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        key_payload = b"k" * 40  # small: only gamma has it
        big_payload = bytes(range(256)) * 8  # 2 KiB: alpha and beta have it
        hkey = gamma.repo.put_blob(key_payload)
        hbig = beta.repo.put_blob(big_payload)
        alpha.repo.put_blob(big_payload)
        fn = alpha.runtime.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    total = sum(len(fix.read_blob(e)) for e in entries[2:])\n"
            "    return fix.create_blob(total.to_bytes(8, 'little'))\n",
            "sizes",
        )
        alpha.connect(beta)
        alpha.connect(gamma)
        encode = make_application(alpha.repo, fn, [hkey, hbig]).wrap_strict()
        # Bytes alone say beta (missing only the 40 B key vs gamma's
        # 2 KiB blob) - but alpha cannot ship the key to beta, so the
        # delegation would strand there.
        quote = alpha.quote_best(encode)
        assert quote.candidate == "gamma"
        result = alpha.delegate_best(encode)
        assert gamma.delegations_served == 1
        assert beta.delegations_served == 0
        total = int.from_bytes(alpha.repo.get_blob(result).data, "little")
        assert total == 40 + 2048

    def test_size_unreported_key_cannot_hide_an_unserviceable_peer(self):
        """Regression: strandedness used to be priced in *bytes*, so an
        unshippable key whose size nobody ever reported (believed size
        0) priced every peer at zero and the dead-end peer slipped
        through the serviceability filter on its cheaper footprint.
        Missing *keys* are what strand a delegation, so they are counted
        per key."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        big_payload = bytes(range(256)) * 8  # 2 KiB: alpha and beta have it
        hbig = alpha.repo.put_blob(big_payload)
        beta.repo.put_blob(big_payload)
        alpha.connect(beta)
        alpha.connect(gamma)
        # Gamma acquires the key *after* the inventory exchange; alpha
        # hears about the location through a path that carried no size.
        hkey = gamma.repo.put_blob(b"k" * 40)
        alpha.view.learn(hkey.content_key(), "gamma")  # location, no size
        assert alpha.view.believed_size(hkey.content_key()) == 0  # the trap
        fn = alpha.runtime.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    total = sum(len(fix.read_blob(e)) for e in entries[2:])\n"
            "    return fix.create_blob(total.to_bytes(8, 'little'))\n",
            "sizes",
        )
        encode = make_application(alpha.repo, fn, [hkey, hbig]).wrap_strict()
        # Bytes say beta (it already holds the 2 KiB blob, and the key
        # prices at 0) - but alpha cannot ship the key there, so beta is
        # a dead end and must be filtered out.
        quote = alpha.quote_best(encode)
        assert quote.candidate == "gamma"
        result = alpha.delegate_best(encode)
        assert gamma.delegations_served == 1
        assert beta.delegations_served == 0
        total = int.from_bytes(alpha.repo.get_blob(result).data, "little")
        assert total == 40 + 2048


class TestAQuoteReadsBeliefsForUnheldKeysOnly:
    def test_believed_size_is_read_once_per_unheld_key(self, monkeypatch):
        """A held key is priced at its stored size, so the view's lock
        is taken only for the footprint keys this node does not hold."""
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        held = [alpha.repo.put_blob(bytes([i]) * 40) for i in range(3)]
        unheld = [beta.repo.put_blob(bytes([i]) * 50) for i in range(2)]
        alpha.connect(beta)
        fn = alpha.runtime.stdlib["add_u8"]
        encode = make_application(alpha.repo, fn, held + unheld).wrap_strict()
        asked = []
        real = alpha.view.believed_size

        def counted(key):
            asked.append(key)
            return real(key)

        monkeypatch.setattr(alpha.view, "believed_size", counted)
        assert alpha.quote_best(encode).candidate == "beta"
        assert sorted(asked) == sorted(h.content_key() for h in unheld)


class TestGossipLearnedPeer:
    """Inventory knowledge is no longer connect-time-only: anti-entropy
    carries third-party holdings, and placement acts on them."""

    def test_places_work_on_a_peer_known_only_via_gossip(self):
        """Acceptance: alpha delegates to gamma, which it learned about
        purely through gossip with beta - no alpha-gamma channel existed
        when the placement was priced."""
        directory = NodeDirectory()
        alpha = FixpointNode("alpha", directory=directory)
        beta = FixpointNode("beta", directory=directory)
        gamma = FixpointNode("gamma", directory=directory)
        alpha.connect(beta)
        beta.connect(gamma)
        # The fat codelet appears on gamma *after* every connect, so no
        # connect-time exchange could have told alpha about it.
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert "gamma" not in alpha.peers
        arg = alpha.repo.put_blob(int_blob(6))
        encode = make_application(alpha.repo, fn, [arg]).wrap_strict()
        assert alpha.quote_best(encode).candidate == "gamma"
        result = alpha.delegate_best(encode)
        assert blob_int(alpha.repo.get_blob(result).data) == 7
        assert gamma.delegations_served == 1
        assert beta.delegations_served == 0
        assert "gamma" in alpha.peers  # the delegation dialed it


class TestReplyFiltering:
    def test_reply_does_not_echo_caller_shipped_data(self, pair):
        """The server filters the reply through its view of the caller:
        data the caller just shipped never rides the wire back."""
        a, b = pair
        channel = a.peers["beta"]
        # Connect's inventory gossip already rode this channel; measure
        # the delegation's own traffic relative to that baseline.
        sent_before, received_before = channel.bytes_ab, channel.bytes_ba
        payload = bytes(range(256)) * 8  # 2 KiB
        blob = a.repo.put_blob(payload)
        encode = strict(make_identification(blob))
        result = a.delegate("beta", encode)
        # Request carries the blob; the reply is just the result handle
        # plus an (empty) bundle - the old code echoed all 2 KiB back.
        assert channel.bytes_ab - sent_before > len(payload)
        assert channel.bytes_ba - received_before < 100
        assert a.repo.get_blob(result).data == payload
        assert b.repo.get_blob(result).data == payload

    def test_round_trip_bytes_drop_on_repeated_delegation(self, pair):
        """Second identity round trip: the view knows both directions,
        so neither request nor reply re-ships the payload."""
        a, b = pair
        payload = bytes(range(256)) * 8
        blob = a.repo.put_blob(payload)
        first = a.delegate("beta", strict(make_identification(blob)))
        channel = a.peers["beta"]
        first_round = channel.total_bytes
        # A fresh encode over the same datum (identification of a tree
        # holding the blob): only the new tiny tree ships.
        tree = a.repo.put_tree([blob, blob])
        a.delegate("beta", strict(make_identification(tree)))
        second_round = channel.total_bytes - first_round
        assert second_round < len(payload) / 2
        assert second_round < first_round / 2

    def test_server_view_learns_from_requests(self, pair):
        """The sender identity in the frame advances the server's view:
        a reverse delegation needing the same datum ships nothing."""
        a, b = pair
        payload = bytes(range(256)) * 8
        blob = a.repo.put_blob(payload)
        a.delegate("beta", strict(make_identification(blob)))
        assert b.view.knows(blob.content_key(), "alpha")
        channel = a.peers["beta"]
        before = channel.total_bytes
        # Beta now delegates work over that datum back to alpha.
        back = b.delegate("alpha", strict(make_identification(blob)))
        assert b.repo.get_blob(back).data == payload
        assert channel.total_bytes - before < 150  # handles, no payloads


class TestChannelClose:
    def test_send_after_close_raises_with_endpoints_named(self, pair):
        a, b = pair
        channel = a.peers["beta"]
        channel.close()
        assert channel.closed
        with pytest.raises(NetworkError, match=r"alpha<->beta is closed"):
            channel.send(a, b"frame")
        # delegation over the closed link surfaces the same failure
        with pytest.raises(NetworkError, match="closed"):
            a.delegate("beta", add_encode(a, 1, 2))

    def test_close_is_idempotent(self, pair):
        a, _ = pair
        channel = a.peers["beta"]
        channel.close()
        channel.close()
        assert channel.closed

    def test_close_wakes_parked_delivery_window(self, pair):
        """A frame waiting on an undelivered predecessor must fail loudly
        on close, not sleep forever (the PR-4 wedge shape)."""
        import threading

        a, _ = pair
        channel = a.peers["beta"]
        # Take a sequence number but never deliver it, so the successor
        # frame parks in its delivery window.
        channel.send(a, b"frame-k")
        errors, seqs = [], []

        def deliver_out_of_order():
            _, seq = channel.send(a, b"frame-k+1")
            seqs.append(seq)
            try:
                with channel.arrival(a, seq):
                    pass
            except NetworkError as exc:
                errors.append(exc)

        waiter = threading.Thread(target=deliver_out_of_order)
        waiter.start()
        waiter.join(timeout=0.2)
        assert waiter.is_alive()  # parked on frame 0's turn
        channel.close()
        waiter.join(timeout=2.0)
        assert not waiter.is_alive()
        assert len(errors) == 1
        assert f"closed while frame {seqs[0]} awaited delivery" in str(errors[0])

    def test_serve_parked_on_its_turn_holds_no_node_lock(self, pair):
        """A request served ahead of its predecessor waits for its turn
        holding none of the server's locks: the predecessor's serve
        needs the node lock to land, so holding it would deadlock."""
        import time

        a, b = pair
        _, skipped = a.peers["beta"].send(a, b"frame-k")  # never served
        future = a.delegate_async("beta", add_encode(a, 1, 2))
        time.sleep(0.2)  # the serve thread parks on frame k's turn
        try:
            assert b._lock.acquire(timeout=1.0), "parked serve holds the lock"
            b._lock.release()
        finally:
            a.peers["beta"].arrival(a, skipped).release()
        assert blob_int(a.repo.get_blob(future.result(5)).data) == 3
