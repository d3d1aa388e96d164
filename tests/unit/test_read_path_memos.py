"""The wire read path's memos must be invisible in every result.

The reporting server judges each distinct (probed host, body) once and
the measurement tool parses each distinct certificate once; these
tests replay the same traffic with and without the memos and demand
identical databases, ledgers, metrics and probe results.
"""

import sys
import threading
import time

import pytest

from repro.geoip.database import GeoIpDatabase
from repro.httpmin.codec import HttpRequest
from repro.measure import server as server_module
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.measure.store import ReportStore, scan_store
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.util import BoundedMemo
from repro.x509 import CertificateAuthority, Name, RootStore, SelfSignedParams
from repro.x509 import parse as parse_module
from repro.x509.model import Certificate, SubjectPublicKeyInfo
from repro.x509.parse import ParseMemo, X509Error
from repro.x509.pem import pem_encode

HOST = "collector.test"
OTHER = "other.test"


def _body(chain) -> bytes:
    return "".join(pem_encode(c.encode()) for c in chain).encode("ascii")


def _leaf(ca, keystore, hostname, label):
    key = keystore.key(label, 512)
    return ca.issue(
        Name.build(common_name=hostname, organization="Memo"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=[hostname],
    )


@pytest.fixture(scope="module")
def proxy_ca(keystore):
    return CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(common_name="Memo Proxy CA", organization="Proxy"),
            key=keystore.key("memo-proxy-ca", 512),
        )
    )


@pytest.fixture(scope="module")
def chains(intermediate_ca, proxy_ca, keystore):
    return {
        "origin": [_leaf(intermediate_ca, keystore, HOST, "memo-origin"),
                   intermediate_ca.certificate],
        "other": [_leaf(intermediate_ca, keystore, OTHER, "memo-other"),
                  intermediate_ca.certificate],
        "forged": [_leaf(proxy_ca, keystore, HOST, "memo-forged"),
                   proxy_ca.certificate],
    }


@pytest.fixture(scope="module")
def bodies(chains):
    return {
        "origin": _body(chains["origin"]),
        "other": _body(chains["other"]),
        "forged": _body(chains["forged"]),
        "bad-pem": b"-----BEGIN CERTIFICATE-----\n!!!!\n-----END CERTIFICATE-----\n",
        "malformed": pem_encode(b"\x30\x03\x02\x01\x01").encode("ascii"),
        "empty": b"",
    }


def recorded_steps(chains):
    """Repeated chains, every rejection kind, a 429 and an expect() swap."""
    forged_fp = chains["forged"][0].fingerprint()
    return [
        ("post", HOST, "origin", "10.0.0.1"),
        ("post", HOST, "origin", "10.0.0.2"),
        ("post", HOST, "forged", "10.0.1.3"),
        ("post", HOST, "bad-pem", "10.0.0.4"),
        ("post", HOST, "forged", "10.0.1.5"),  # store overloaded: 429
        ("flush",),
        ("post", HOST, "malformed", "10.0.0.6"),
        ("post", HOST, "malformed", "10.0.1.7"),
        ("post", HOST, "empty", "10.0.0.8"),
        ("post", "unknown.test", "origin", "10.0.0.9"),
        ("flush",),
        ("post", OTHER, "other", "10.0.1.10"),
        ("post", OTHER, "origin", "10.0.1.11"),  # right chain, wrong host
        ("post", HOST, "forged", "10.0.0.12"),
        ("flush",),
        ("expect", HOST, forged_fp),  # the forged leaf is now authoritative
        ("post", HOST, "forged", "10.0.0.13"),
        ("post", HOST, "origin", "10.0.1.14"),
        ("post", HOST, "malformed", "10.0.0.15"),
        ("flush",),
        ("post", OTHER, "other", "10.0.0.16"),
        ("post", HOST, "origin", "10.0.1.17"),
    ]


def _geoip():
    geoip = GeoIpDatabase()
    geoip.add_range("10.0.0.0", "10.0.0.255", "US")
    geoip.add_range("10.0.1.0", "10.0.1.255", "DE")
    geoip.freeze()
    return geoip


def replay(steps, bodies, chains, root_ca, tmp_path, fresh_per_request):
    """Drive ``steps`` through one server, or a new server per request."""
    registry = MetricsRegistry()
    database = ReportDatabase()
    store = ReportStore(
        tmp_path / ("fresh" if fresh_per_request else "shared"),
        registry,
        max_pending=4,
        auto_flush=False,
    )
    geoip = _geoip()
    roots = RootStore([root_ca.certificate])
    expected = {
        HOST: (chains["origin"][0].fingerprint(), "Authors'"),
        OTHER: (chains["other"][0].fingerprint(), "Popular"),
    }

    def build():
        server = ReportingServer(
            database, geoip, study=2, campaign="memo", public_roots=roots,
            registry=registry, store=store,
        )
        for hostname, (fingerprint, host_type) in expected.items():
            server.expect(hostname, fingerprint, host_type)
        return server

    network = Network()
    shared = build()
    responses = []
    verdict_sizes = []
    for step in steps:
        if step[0] == "flush":
            store.flush()
            continue
        if step[0] == "expect":
            _, hostname, fingerprint = step
            expected[hostname] = (fingerprint, expected[hostname][1])
            shared.expect(hostname, fingerprint, expected[hostname][1])
            continue
        _, hostname, body_key, ip = step
        server = build() if fresh_per_request else shared
        request = HttpRequest(
            "POST",
            "/report",
            headers={"x-probed-host": hostname, "x-sim-product": "memo-product"},
            body=bodies[body_key],
        )
        remote = network.add_host(f"client-{ip}.test", ip=ip)
        response = server._ingest_report(request, remote)
        responses.append((response.status, response.headers, response.body))
        verdict_sizes.append(len(server._verdicts))
    store.close()
    snapshot = registry.snapshot()
    return {
        "responses": responses,
        "records": list(database.records),
        "matched_counts": dict(database.matched_counts),
        "matched_samples": list(database.matched_samples),
        "failures": vars(database.failures),
        "signature": database.aggregate_signature(),
        "store_signature": scan_store(store.path).aggregate_signature(),
        "deterministic": snapshot["deterministic"],
        "process": snapshot["process"]["counters"],
        "verdict_sizes": verdict_sizes,
    }


OBSERVABLES = (
    "responses",
    "records",
    "matched_counts",
    "matched_samples",
    "failures",
    "signature",
    "store_signature",
    "deterministic",
)


class TestChainVerdictMemo:
    def test_one_server_matches_a_fresh_server_per_request(
        self, bodies, chains, root_ca, tmp_path
    ):
        steps = recorded_steps(chains)
        shared = replay(steps, bodies, chains, root_ca, tmp_path, False)
        fresh = replay(steps, bodies, chains, root_ca, tmp_path, True)
        for key in OBSERVABLES:
            assert shared[key] == fresh[key], key
        # The sequence exercises every path it claims to.
        statuses = [status for status, _, _ in shared["responses"]]
        assert statuses.count(429) == 1
        rejected = {
            key.split("reason=")[1].rstrip("}")
            for key in shared["deterministic"]["counters"]
            if key.startswith("reports.rejected{")
        }
        assert rejected == {"pem", "x509", "empty", "unknown-host"}
        verdicts = {record.mismatch for record in shared["records"]}
        assert verdicts == {True}
        assert shared["matched_counts"]
        # After the expect() swap the origin chain is the mismatch.
        late = [r for r in shared["records"] if r.client_ip == "10.0.1.14"]
        assert late and late[0].leaf.fingerprint == chains["origin"][0].fingerprint()
        # ...and the memo really was hit.
        assert shared["process"]["cache.hits{cache=chain_verdict}"] > 0

    def test_hits_plus_misses_equal_judged_requests(
        self, bodies, chains, root_ca, tmp_path
    ):
        steps = recorded_steps(chains)
        result = replay(steps, bodies, chains, root_ca, tmp_path, False)
        counters = result["deterministic"]["counters"]
        judged = sum(
            value
            for key, value in counters.items()
            if key.startswith(("reports.ingested{", "reports.rejected{"))
            and "unknown-host" not in key
        )
        process = result["process"]
        assert (
            process["cache.hits{cache=chain_verdict}"]
            + process["cache.misses{cache=chain_verdict}"]
            == judged
        )
        distinct = {
            (step[1], step[2])
            for step in steps
            if step[0] == "post" and step[1] != "unknown.test"
        }
        assert process["cache.misses{cache=chain_verdict}"] == len(distinct)
        for section in ("counters", "gauges", "histograms"):
            assert not any(
                key.startswith("cache.") for key in result["deterministic"][section]
            )

    def test_more_distinct_bodies_than_the_bound(
        self, bodies, chains, root_ca, tmp_path, monkeypatch
    ):
        steps = recorded_steps(chains)
        fresh = replay(steps, bodies, chains, root_ca, tmp_path / "a", True)
        monkeypatch.setattr(server_module, "CHAIN_VERDICT_ENTRIES", 2)
        bounded = replay(steps, bodies, chains, root_ca, tmp_path / "b", False)
        for key in OBSERVABLES:
            assert bounded[key] == fresh[key], key
        assert max(bounded["verdict_sizes"]) == 2

    def test_replaced_or_changed_root_store_is_rejudged(self, chains, root_ca):
        server = ReportingServer(
            ReportDatabase(), None, study=2,
            public_roots=RootStore([root_ca.certificate]),
        )
        body = _body(chains["origin"])
        assert server.judge(HOST, body).chain_valid
        server.public_roots = RootStore()
        assert not server.judge(HOST, body).chain_valid
        server.public_roots.add(root_ca.certificate)
        assert server.judge(HOST, body).chain_valid
        server.public_roots.remove(root_ca.certificate)
        assert not server.judge(HOST, body).chain_valid
        server.public_roots = None
        assert not server.judge(HOST, body).chain_valid


# -- the probe-side parse memo ----------------------------------------------


def probe_world(chains):
    network = Network()
    client = network.add_host("client.test")
    broken = Certificate(
        tbs=chains["origin"][0].tbs,
        signature_oid=chains["origin"][0].signature_oid,
        signature=chains["origin"][0].signature,
        raw=b"\x30\x03\x02\x01\x01",
    )
    for hostname, chain in (
        (HOST, chains["origin"]),
        (OTHER, chains["other"]),
        ("proxied.test", chains["forged"]),
        ("broken.test", [broken, chains["origin"][1]]),
    ):
        network.add_host(hostname).listen(443, TlsCertServer(chain).factory)
    return client


PROBES = [HOST, "broken.test", HOST, OTHER, "broken.test", "proxied.test", HOST,
          OTHER, "proxied.test", "broken.test"]


def probe_all(chains, parse_memo):
    client = probe_world(chains)
    registry = MetricsRegistry()
    results = [
        ProbeClient(client, registry=registry, parse_memo=parse_memo).probe(host)
        for host in PROBES
    ]
    return results, registry


class TestParseMemo:
    def test_probe_results_identical_with_and_without(self, chains):
        plain, plain_metrics = probe_all(chains, None)
        registry = MetricsRegistry()
        memo = ParseMemo(registry)
        memoised, memo_metrics = probe_all(chains, memo)
        assert memoised == plain
        assert [r.error for r in memoised if not r.ok] == [
            "x509: Certificate must have 3 elements, has 1"
        ] * 3
        for mine, theirs in zip(memoised, plain):
            assert [c.raw for c in mine.chain] == [c.raw for c in theirs.chain]
        assert memo_metrics.deterministic_snapshot() == (
            plain_metrics.deterministic_snapshot()
        )
        process = registry.snapshot()["process"]["counters"]
        parsed = sum(len(r.chain) for r in memoised) + 3  # + each failed leaf
        assert (
            process["cache.hits{cache=x509_parse}"]
            + process["cache.misses{cache=x509_parse}"]
            == parsed
        )
        # Distinct DER: three leaves, two CA certificates, one broken blob.
        assert process["cache.misses{cache=x509_parse}"] == 6

    def test_repeated_malformed_der_raises_a_fresh_error(self):
        memo = ParseMemo(MetricsRegistry())
        errors = []
        for _ in range(2):
            with pytest.raises(X509Error) as info:
                memo.parse(b"\x30\x03\x02\x01\x01")
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_more_distinct_certificates_than_the_bound(self, chains, monkeypatch):
        plain, _ = probe_all(chains, None)
        monkeypatch.setattr(parse_module, "PARSE_MEMO_ENTRIES", 2)
        memo = ParseMemo(MetricsRegistry())
        client = probe_world(chains)
        for host, expected in zip(PROBES, plain):
            assert ProbeClient(client, parse_memo=memo).probe(host) == expected
            assert len(memo) <= 2
        assert len(memo) == 2


class TestBoundedMemo:
    def test_hits_plus_misses_equal_lookups(self):
        registry = MetricsRegistry()
        memo = BoundedMemo("demo", 3, registry)
        keys = [1, 2, 1, 3, 4, 1, 2, 2, 5]
        computed = []

        def compute(key):
            computed.append(key)
            return key * 10

        for key in keys:
            assert memo.recall(key, lambda: compute(key)) == key * 10
            assert len(memo) <= 3
        counters = registry.snapshot()["process"]["counters"]
        assert counters["cache.hits{cache=demo}"] + counters[
            "cache.misses{cache=demo}"
        ] == len(keys)
        assert counters["cache.misses{cache=demo}"] == len(computed)
        # Oldest first: 4 evicted 1, then the second 1 evicted 2.
        assert computed == [1, 2, 3, 4, 1, 2, 5]
        assert registry.deterministic_snapshot()["counters"] == {}

    def test_concurrent_misses_keep_the_bound_and_the_counts(self):
        """Pool threads share one harness memo: racing misses must not
        evict the same oldest key twice or insert mid-eviction."""
        registry = MetricsRegistry()
        memo = BoundedMemo("threaded", 2, registry)
        memo._entries = _YieldingDict()
        threads, lookups = 8, 200
        errors: list[BaseException] = []
        sizes: list[int] = []
        computed: list[int] = []
        start = threading.Barrier(threads)

        def compute(key):
            computed.append(key)
            return ("value", key)

        def worker(offset):
            try:
                start.wait(timeout=30)
                for index in range(lookups):
                    key = (index * 7 + offset) % 23
                    assert memo.recall(key, lambda: compute(key)) == ("value", key)
                    sizes.append(len(memo))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        assert max(sizes) <= 2
        assert len(memo) <= 2
        counters = registry.snapshot()["process"]["counters"]
        hits = counters.get("cache.hits{cache=threaded}", 0)
        misses = counters["cache.misses{cache=threaded}"]
        assert hits + misses == threads * lookups
        assert misses == len(computed)


class _YieldingDict(dict):
    """Gives up the GIL between choosing an eviction victim and deleting
    it, so racing evictions interleave on every run, not by chance."""

    def __delitem__(self, key):
        time.sleep(0.0001)
        super().__delitem__(key)
