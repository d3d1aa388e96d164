"""Deeply nested DER fails as malformed input on every path that parses it.

A few hundred nested SEQUENCE headers (about a kilobyte) used to exhaust
the interpreter stack inside ``asn1.types.decode``.  The resulting
``RecursionError`` escaped ``parse_certificate``, turned an uploaded
report into a 500 that the client retried, and slipped past the
engine's ``TlsError``/``X509Error`` handling.  The decoder now stops at
``MAX_DEPTH`` with a typed error.
"""

import pytest

from repro.asn1 import der
from repro.asn1.der import Asn1Error
from repro.asn1.types import (
    MAX_DEPTH,
    ContextExplicit,
    Integer,
    Raw,
    Sequence,
    decode,
)
from repro.crypto.keystore import KeyStore
from repro.geoip.database import GeoIpDatabase
from repro.httpmin.codec import HttpRequest
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.proxy import (
    ProxyCategory,
    ProxyProfile,
    SubstituteCertForger,
    TlsProxyEngine,
)
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore
from repro.x509.parse import ParseMemo, X509Error, parse_certificate
from repro.x509.pem import pem_encode

HOSTILE_HOST = "deep.example"


def nested(levels: int, tag: int = der.TAG_SEQUENCE) -> bytes:
    """``levels`` constructed values wrapped around one INTEGER."""
    blob = Integer(1).encode()
    for _ in range(levels):
        blob = der.encode_tlv(tag, blob)
    return blob


# The size that used to raise RecursionError.
DEEP = nested(340)


class _RawDer:
    """A chain entry a hostile origin serves verbatim."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def encode(self) -> bytes:
        return self.data


class TestDecoderDepth:
    def test_nesting_up_to_the_bound_decodes(self):
        value, rest = decode(nested(MAX_DEPTH))
        assert rest == b""
        for _ in range(MAX_DEPTH):
            assert isinstance(value, Sequence)
            value = value[0]
        assert value == Integer(1)

    def test_one_level_past_the_bound_is_an_asn1_error(self):
        with pytest.raises(Asn1Error, match="nested deeper"):
            decode(nested(MAX_DEPTH + 1))

    def test_sets_count_towards_the_depth(self):
        with pytest.raises(Asn1Error, match="nested deeper"):
            decode(nested(MAX_DEPTH + 1, der.TAG_SET))

    def test_explicit_tags_stop_descending_at_the_bound(self):
        explicit = der.CLASS_CONTEXT | der.CONSTRUCTED
        value, rest = decode(nested(MAX_DEPTH + 5, explicit))
        assert rest == b""
        depth = 0
        while isinstance(value, ContextExplicit):
            value = value.inner
            depth += 1
        # The explicit tag whose content lies past the bound stays opaque.
        assert depth == MAX_DEPTH
        assert isinstance(value, Raw)

    def test_deep_blob_is_an_asn1_error_not_a_recursion_error(self):
        assert len(DEEP) < 1300
        with pytest.raises(Asn1Error):
            decode(DEEP)

    def test_parse_certificate_raises_x509_error(self):
        with pytest.raises(X509Error, match="nested deeper"):
            parse_certificate(DEEP)

    def test_the_memo_remembers_the_rejection(self):
        registry = MetricsRegistry()
        memo = ParseMemo(registry)
        errors = []
        for _ in range(2):
            with pytest.raises(X509Error) as info:
                memo.parse(DEEP)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        counters = registry.snapshot()["process"]["counters"]
        assert counters["cache.misses{cache=x509_parse}"] == 1
        assert counters["cache.hits{cache=x509_parse}"] == 1


class TestReportingServer:
    def test_deep_upload_is_a_counted_400(self):
        registry = MetricsRegistry()
        database = ReportDatabase()
        geoip = GeoIpDatabase()
        geoip.add_range("10.0.0.0", "10.0.0.255", "US")
        geoip.freeze()
        server = ReportingServer(
            database, geoip, study=2, campaign="deep", registry=registry
        )
        server.expect(HOSTILE_HOST, "00" * 32, "Popular")
        network = Network()
        client = network.add_host("client.deep.example", ip="10.0.0.1")
        server_host = network.add_host("collector.example")
        server_host.listen(80, server.http.factory)
        sock = client.connect("collector.example", 80)
        request = HttpRequest(
            "POST",
            "/report",
            headers={"X-Probed-Host": HOSTILE_HOST},
            body=pem_encode(DEEP).encode("ascii"),
        )
        sock.send(request.encode())
        reply = sock.recv()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"nested deeper" in reply
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=x509}"] == 1
        # Rejected, so on the failure ledger exactly once (a 500 was
        # neither rejected nor failed, and the client retried it).
        assert database.failures.report_failed == 1
        assert not database.records


class TestEngineFacingAHostileOrigin:
    @pytest.mark.parametrize("parse_memo", [False, True])
    def test_deep_upstream_chain_is_an_upstream_failure(self, root_ca, parse_memo):
        profile = ProxyProfile(
            key="deep-product",
            issuer=Name.build(common_name="Deep CA", organization="Deep"),
            category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            leaf_key_bits=512,
        )
        registry = MetricsRegistry()
        network = Network()
        victim = network.add_host("victim.deep.example")
        origin = network.add_host(HOSTILE_HOST, ip="203.0.113.9")
        origin.listen(443, TlsCertServer([_RawDer(DEEP)]).factory)
        engine = TlsProxyEngine(
            profile,
            SubstituteCertForger(KeyStore(seed=5), seed=5),
            upstream_host=victim,
            upstream_trust=RootStore([root_ca.certificate]),
            registry=registry,
            parse_memo=ParseMemo(registry) if parse_memo else None,
        )
        victim.add_interceptor(engine)
        for _ in range(2):
            result = ProbeClient(victim).probe(HOSTILE_HOST)
            assert not result.ok
            assert result.error.startswith("alert:")
        assert engine.upstream_failures == 2
        assert engine.intercepted == 0
