"""Hostile report traffic: malformed extensions and oversized bodies.

Certificate extensions decode lazily, so a correctly signed chain whose
subjectAltName value does not decode parses fine and only fails when a
name is read — during validation, summarising or forging.  The
reporting server must then reject the report like any other bad chain
(400, ``reports.rejected{reason=x509}``, never a retried 500), and a
proxy engine must count an upstream failure instead of raising into
the probing client.  Report bodies are capped before they are buffered.
"""

import pytest

from repro.asn1 import oids
from repro.crypto.keystore import KeyStore
from repro.httpmin import HttpClient
from repro.measure.database import ReportDatabase
from repro.measure.server import REPORT_BODY_LIMIT, ReportingServer
from repro.measure.tool import MeasurementTool, SessionOutcome
from repro.netsim import Network
from repro.netsim.network import ConnectionReset
from repro.netsim.events import drive
from repro.obs.metrics import MetricsRegistry
from repro.proxy import (
    ForgedUpstreamPolicy,
    ProxyCategory,
    ProxyProfile,
    SubstituteCertForger,
    TlsProxyEngine,
)
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore
from repro.x509.model import Extension, SubjectPublicKeyInfo
from repro.x509.parse import parse_certificate
from repro.x509.pem import pem_encode

COLLECTOR = "collector.test"
SITE = "bad-san.example"
# A SEQUENCE announcing 5 content bytes, then one stray tag: truncated.
BAD_SAN = bytes.fromhex("300502")


@pytest.fixture(scope="module")
def bad_san_chain(intermediate_ca, keystore):
    key = keystore.key("bad-san-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name=SITE, organization="Bad SAN"),
        SubjectPublicKeyInfo(key.n, key.e),
        extra_extensions=(
            Extension(oids.OID_EXT_SUBJECT_ALT_NAME, critical=False, value=BAD_SAN),
        ),
    )
    return [leaf, intermediate_ca.certificate]


@pytest.fixture(scope="module")
def good_chain(intermediate_ca, keystore):
    key = keystore.key("good-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name=SITE, organization="Good"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=[SITE],
    )
    return [leaf, intermediate_ca.certificate]


def _body(chain) -> bytes:
    return "".join(pem_encode(c.encode()) for c in chain).encode("ascii")


def _collector(root_ca, expected_leaf):
    registry = MetricsRegistry()
    database = ReportDatabase()
    server = ReportingServer(
        database,
        None,
        study=1,
        public_roots=RootStore([root_ca.certificate]),
        registry=registry,
    )
    server.expect(SITE, expected_leaf.fingerprint(), "Authors'")
    network = Network()
    network.add_host(COLLECTOR).listen(80, server.http.factory)
    client = network.add_host("client.test", ip="10.0.0.7")
    return server, registry, database, client


def _counters(registry):
    return registry.deterministic_snapshot()["counters"]


class TestMalformedExtensionReports:
    def test_the_bad_leaf_parses_and_fails_only_when_read(self, bad_san_chain):
        leaf = parse_certificate(bad_san_chain[0].encode())
        with pytest.raises(ValueError):
            leaf.dns_names

    def test_server_rejects_with_400_and_counts_x509(
        self, root_ca, bad_san_chain, good_chain
    ):
        server, registry, database, client = _collector(root_ca, good_chain[0])
        response = HttpClient(client).request(
            "POST", COLLECTOR, "/report", body=_body(bad_san_chain),
            headers={"X-Probed-Host": SITE},
        )
        assert response.status == 400
        counters = _counters(registry)
        assert counters["reports.rejected{reason=x509}"] == 1
        assert database.failures.report_failed == 1
        assert not database.mismatches()

    def test_client_gives_up_without_retrying(
        self, root_ca, bad_san_chain, good_chain
    ):
        server, registry, database, client = _collector(root_ca, good_chain[0])
        tool = MeasurementTool(reporting_host=COLLECTOR, registry=registry)
        outcome = SessionOutcome()
        drive(
            tool._submit_report(
                HttpClient(client), SITE, _body(bad_san_chain),
                {"X-Probed-Host": SITE}, outcome,
            )
        )
        assert outcome.report_failed == 1
        assert outcome.report_retries == 0
        assert "(400)" in outcome.errors[0]


def _profile(**overrides):
    base = dict(
        key="bad-san-product",
        issuer=Name.build(common_name="Bad SAN CA", organization="Product"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    base.update(overrides)
    return ProxyProfile(**base)


def _proxied(profile, chain, root_ca):
    network = Network()
    client = network.add_host("victim.example")
    origin = network.add_host(SITE, ip="203.0.113.42")
    origin.listen(443, TlsCertServer(chain).factory)
    engine = TlsProxyEngine(
        profile,
        SubstituteCertForger(KeyStore(seed=71), seed=71),
        upstream_host=client,
        upstream_trust=RootStore([root_ca.certificate]),
    )
    client.add_interceptor(engine)
    return client, engine


class TestMalformedExtensionUpstream:
    @pytest.mark.parametrize(
        "policy", [ForgedUpstreamPolicy.MASK, ForgedUpstreamPolicy.BLOCK]
    )
    def test_engine_counts_an_upstream_failure(self, root_ca, bad_san_chain, policy):
        client, engine = _proxied(
            _profile(forged_upstream=policy), bad_san_chain, root_ca
        )
        result = ProbeClient(client).probe(SITE, 443)
        assert not result.ok
        assert engine.upstream_failures == 1
        assert engine.intercepted == 0
        kinds = [event["event"] for event in engine.events.to_dicts()]
        assert kinds[-2:] == ["upstream-failure", "alert"]

    def test_cached_verdict_then_bad_leaf_fails_in_the_forger(
        self, root_ca, bad_san_chain, good_chain
    ):
        """A validation-caching product reuses a clean verdict; the
        forger then reads the bad leaf's names and must not raise."""
        client, engine = _proxied(
            _profile(caches_validation=True), good_chain, root_ca
        )
        assert ProbeClient(client).probe(SITE, 443).ok
        origin = client.network.host_or_none(SITE)
        origin.listen(443, TlsCertServer(bad_san_chain).factory)
        engine.forger._forge_cache.clear()
        result = ProbeClient(client).probe(SITE, 443)
        assert not result.ok
        assert engine.upstream_failures == 1


class TestReportBodyLimit:
    def _post(self, client, body):
        return HttpClient(client).request(
            "POST", COLLECTOR, "/report", body=body,
            headers={"X-Probed-Host": SITE},
        )

    def test_body_at_the_limit_is_ingested(self, root_ca, good_chain):
        server, registry, database, client = _collector(root_ca, good_chain[0])
        body = _body(good_chain)
        body += b"\n" * (REPORT_BODY_LIMIT - len(body))
        assert len(body) == REPORT_BODY_LIMIT
        response = self._post(client, body)
        assert response.status == 200
        assert _counters(registry)["reports.ingested{verdict=matched}"] == 1

    def test_body_over_the_limit_is_refused_unread(self, root_ca, good_chain):
        server, registry, database, client = _collector(root_ca, good_chain[0])
        body = _body(good_chain)
        body += b"\n" * (REPORT_BODY_LIMIT + 1 - len(body))
        response = self._post(client, body)
        assert response.status == 413
        counters = _counters(registry)
        assert counters["http.requests_too_large"] == 1
        assert counters["reports.rejected{reason=too-large}"] == 1
        assert "reports.ingested{verdict=matched}" not in counters
        assert database.failures.report_failed == 1
        assert len(server._verdicts) == 0  # never judged, never memoised

    def test_refused_as_soon_as_the_head_is_framed(self, root_ca, good_chain):
        """Only the head is sent: the server answers without waiting
        for (or buffering) a body it will not take."""
        server, registry, database, client = _collector(root_ca, good_chain[0])
        sock = client.connect(COLLECTOR, 80)
        sock.send(
            b"POST /report HTTP/1.1\r\nHost: collector.test\r\n"
            b"X-Probed-Host: bad-san.example\r\n"
            + f"Content-Length: {REPORT_BODY_LIMIT + 1}\r\n\r\n".encode()
        )
        assert sock.recv().startswith(b"HTTP/1.1 413 ")
        # Closed on the head alone: the body has nowhere to go.
        assert sock.closed
        with pytest.raises(ConnectionReset):
            sock.send(b"-" * 1024)
        counters = _counters(registry)
        assert counters["reports.rejected{reason=too-large}"] == 1
        assert "http.requests_abandoned" not in counters
