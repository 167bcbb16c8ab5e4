"""End-to-end integration tests across subsystems."""

from __future__ import annotations

from repro.codelets.stdlib import blob_int
from repro.core.attestation import Auditor, Provider
from repro.core.eval import Evaluator
from repro.core.gc import RecoveringRepository, collect, index_from_repository
from repro.fixpoint.net import FixpointNode
from repro.fixpoint.runtime import Fixpoint
from repro.workloads.corpus import make_corpus, reference_count
from repro.workloads.wordcount import COUNT_STRING_SOURCE, COUNT_TASK_MEMORY, count_tree


class TestDistributedWordcount:
    """The fig. 8b dataflow executed for real across two nodes."""

    def test_counts_delegated_to_data_holder(self):
        client = FixpointNode("client")
        server = FixpointNode("server")
        # The corpus lives on the server; the client knows only handles.
        shards = make_corpus(5, 2500, seed=31)
        shard_handles = [server.repo.put_blob(s) for s in shards]
        client.connect(server)

        needle = client.repo.put_blob(b"the")
        tree = count_tree(client.runtime, shard_handles, needle, COUNT_TASK_MEMORY)
        # The client cannot evaluate locally (it holds no shard) -
        # delegate_best follows the data to the server.
        result = client.delegate_best(tree[-1])
        got = blob_int(client.repo.get_blob(result).data)
        assert got == reference_count(shards, b"the")
        assert client.delegations_sent == 1
        assert server.delegations_served == 1
        # The shards themselves never crossed the wire (they were already
        # at the server); only the job and the tiny result did.
        channel = client.peers["server"]
        assert channel.total_bytes < sum(len(s) for s in shards)


class TestGCOverRealWorkload:
    def test_derived_blobs_are_collectable(self):
        """A transform pipeline's big outputs can be evicted and flow
        back on demand ("delayed-availability" storage)."""
        repo = RecoveringRepository()
        fp = Fixpoint(repo=repo)
        upper = fp.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    return fix.create_blob(fix.read_blob(entries[2]).upper())\n",
            "upper",
        )
        shards = make_corpus(4, 1500, seed=8)
        outputs = [
            fp.eval(fp.invoke(upper, [repo.put_blob(s)]).wrap_strict())
            for s in shards
        ]
        for shard, out in zip(shards, outputs):
            assert repo.get_blob(out).data == shard.upper()

        repo.set_recompute(
            lambda recipe: Evaluator(
                repo, apply_fn=fp._apply, memoize=False
            ).eval_encode(recipe)
        )
        index = index_from_repository(repo)
        # Inputs keep themselves: they have no recipes.
        report = collect(repo, index, target_bytes=3000)
        assert report.bytes_freed >= 3000
        # Whatever was evicted flows back on demand; the answers stand.
        for shard, out in zip(shards, outputs):
            assert repo.get_blob(out).data == shard.upper()
        assert repo.recoveries >= 1


class TestAttestedComputation:
    def test_two_providers_agree_on_wordcount(self, fixpoint):
        shards = make_corpus(3, 1200, seed=5)
        needle = b"of"
        # Two independent runtimes (separate repositories).
        fp_a, fp_b = Fixpoint(), Fixpoint()
        for fp in (fp_a, fp_b):
            for shard in shards:
                fp.repo.put_blob(shard)
        provider_a = Provider("A", b"key-a", lambda e: fp_a.eval(e))
        provider_b = Provider("B", b"key-b", lambda e: fp_b.eval(e))
        # Both providers hold the code and inputs; content addressing
        # makes the two independently-built Encodes the *same handle*.
        count_a = fp_a.compile(COUNT_STRING_SOURCE, "count-string")
        count_b = fp_b.compile(COUNT_STRING_SOURCE, "count-string")
        assert count_a == count_b
        encode = fp_a.invoke(
            count_a, [fp_a.repo.put_blob(shards[0]), fp_a.repo.put_blob(needle)]
        ).wrap_strict()
        encode_b = fp_b.invoke(
            count_b, [fp_b.repo.put_blob(shards[0]), fp_b.repo.put_blob(needle)]
        ).wrap_strict()
        assert encode == encode_b
        attestation = provider_a.run(encode)
        auditor = Auditor(provider_b)
        # Content addressing makes the statement portable: provider B
        # evaluates the same Encode handle and must land on the same result.
        assert auditor.observe(attestation, b"key-a") is None
        assert not auditor.findings
