"""The study's server side: report ingestion plus policy-on-port-80.

The paper served the Flash socket policy file on the web server's own
port 80 to dodge captive portals (§3.1).  That means one listener must
speak two protocols; :class:`CombinedPolicyHttpServer` sniffs the first
bytes exactly the way the authors' published policy server did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geoip.database import GeoIpDatabase
from repro.httpmin.codec import HttpRequest, HttpResponse
from repro.httpmin.server import HttpServer
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.netsim.network import Host, Protocol, StreamSocket
from repro.obs.metrics import MetricsRegistry
from repro.policy.model import PolicyFile
from repro.policy.server import POLICY_REQUEST, PolicyServer
from repro.util import BoundedMemo
from repro.x509.parse import X509Error, parse_certificate
from repro.x509.pem import PemError, pem_decode_all
from repro.x509.verify import validate_chain

# The measurement tool, served as the "ad" payload.
_TOOL_PAYLOAD = b"<html><body><!-- repro measurement tool (flash) --></body></html>"

# Distinct (probed host, report body) verdicts one server keeps.
CHAIN_VERDICT_ENTRIES = 1024
# Largest report body taken.  A real chain is a few kB; the cap also
# bounds what the verdict memo keeps per entry.
REPORT_BODY_LIMIT = 64 * 1024


@dataclass(frozen=True)
class ChainVerdict:
    """What an uploaded chain says, independent of who uploaded it."""

    leaf: CertSummary
    chain: tuple[CertSummary, ...]
    chain_valid: bool


@dataclass(frozen=True)
class ChainRejection:
    """Why an uploaded body is not a chain: a ``reports.rejected`` reason."""

    reason: str
    message: bytes


class ReportingServer:
    """Receives certificate reports and judges mismatches.

    ``expected_leaves`` maps hostname → authoritative leaf fingerprint,
    established the way the authors did it: by probing each target from
    a clean vantage point at study setup.

    Reports land in an in-memory :class:`ReportDatabase`, an on-disk
    :class:`~repro.measure.store.ReportStore`, or both.  With a store
    attached, an overloaded pending buffer turns submissions away with
    429 + ``Retry-After`` until someone flushes — the back-pressure
    contract the ingest loop leans on.

    Judging a chain — PEM, DER, validation to ``public_roots`` — is a
    pure function of the probed host and the body, and clients behind
    one product upload the same chain over and over, so each distinct
    pair is judged once (:meth:`judge`).  Everything about the request
    itself — fault hook, back-pressure, GeoIP, the mismatch against
    ``expected_leaves``, the writes and counters — happens every time.
    """

    def __init__(
        self,
        database: ReportDatabase | None,
        geoip: GeoIpDatabase | None,
        study: int,
        campaign: str = "default",
        public_roots=None,
        registry: MetricsRegistry | None = None,
        store=None,  # ReportStore | None
        fault_hook=None,  # Callable[[HttpRequest, Host | None], HttpResponse | None]
    ) -> None:
        if database is None and store is None:
            raise ValueError("ReportingServer needs a database, a store, or both")
        self.database = database
        self.store = store
        # Chaos hook, consulted before the report handler: returning a
        # response injects it (500/503/429 drills) without the report
        # ever touching the database or store.
        self.fault_hook = fault_hook
        self.geoip = geoip
        self.study = study
        self.campaign = campaign
        self.public_roots = public_roots  # RootStore | None
        self.expected_leaves: dict[str, str] = {}
        self.host_types: dict[str, str] = {}
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._verdicts = BoundedMemo(
            "chain_verdict", CHAIN_VERDICT_ENTRIES, self.metrics
        )
        self._verdicts_judged_by = None
        self.http = HttpServer(registry=self.metrics, max_body=REPORT_BODY_LIMIT)
        self.http.route("GET", "/ad", self._serve_tool)
        self.http.route("POST", "/report", self._ingest_report)
        # A report whose connection dies mid-parse never reaches the
        # handler; without this hook it would vanish from the failure
        # accounting entirely.  The same holds for one turned away
        # over its size.
        self.http.on_abandoned = self._report_abandoned
        self.http.on_too_large = self._report_too_large

    def expect(self, hostname: str, leaf_fingerprint: str, host_type: str) -> None:
        """Register the authoritative leaf for a probe target."""
        self.expected_leaves[hostname] = leaf_fingerprint
        self.host_types[hostname] = host_type

    def _count_failure(self, name: str) -> None:
        if self.database is not None:
            setattr(
                self.database.failures,
                name,
                getattr(self.database.failures, name) + 1,
            )
        if self.store is not None:
            self.store.add_failure(name)

    # -- handlers ------------------------------------------------------------

    def _serve_tool(self, request: HttpRequest, remote: Host | None) -> HttpResponse:
        self.metrics.inc("reports.tool_served")
        return HttpResponse(200, body=_TOOL_PAYLOAD)

    def _report_abandoned(self, partial: bytes) -> None:
        """A connection closed with an undecodable request still buffered.

        Only report submissions count against the study's failure
        ledger — a half-received ``GET /ad`` wasted an impression, not
        a report.
        """
        request_line = partial.split(b"\r\n", 1)[0]
        if request_line.startswith(b"POST /report"):
            self._count_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="truncated")

    def _report_too_large(self, request: HttpRequest) -> None:
        if (request.method.upper(), request.path) == ("POST", "/report"):
            self._count_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="too-large")

    def _ingest_report(self, request: HttpRequest, remote: Host | None) -> HttpResponse:
        if self.fault_hook is not None:
            injected = self.fault_hook(request, remote)
            if injected is not None:
                return injected
        if self.store is not None and self.store.overloaded:
            # Deferred accept: the pending write buffer is full, so the
            # client must come back after the next flush drains it.
            self.store.defer()
            return HttpResponse(
                429, headers={"Retry-After": "1"}, body=b"ingest backlog"
            )
        hostname = request.headers.get("x-probed-host", "")
        if not hostname or hostname not in self.expected_leaves:
            self._count_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="unknown-host")
            return HttpResponse(400, body=b"unknown probed host")
        verdict = self.judge(hostname, request.body)
        if isinstance(verdict, ChainRejection):
            self._count_failure("report_failed")
            self.metrics.inc("reports.rejected", reason=verdict.reason)
            return HttpResponse(400, body=verdict.message)

        client_ip = remote.ip if remote is not None else "0.0.0.0"
        country = self.geoip.lookup(client_ip) if self.geoip is not None else None
        mismatch = verdict.leaf.fingerprint != self.expected_leaves[hostname]
        record = MeasurementRecord(
            study=self.study,
            campaign=self.campaign,
            client_ip=client_ip,
            country=country,
            hostname=hostname,
            host_type=self.host_types.get(hostname, "?"),
            mismatch=mismatch,
            leaf=verdict.leaf,
            chain=verdict.chain,
            chain_valid=verdict.chain_valid,
            via="wire",
            product_key=request.headers.get("x-sim-product") or None,
        )
        if mismatch:
            if self.database is not None:
                self.database.add_mismatch(record)
            if self.store is not None:
                self.store.add_mismatch(record)
            self.metrics.inc("reports.ingested", verdict="mismatch")
        else:
            if self.database is not None:
                self.database.add_matched(record)
            if self.store is not None:
                self.store.add_matched(record)
            self.metrics.inc("reports.ingested", verdict="matched")
        return HttpResponse(200, body=b"ok")

    def judge(self, hostname: str, body: bytes) -> ChainVerdict | ChainRejection:
        """The verdict on one uploaded ``body``, memoised per root store.

        A verdict is judged against the current ``public_roots``, so
        replacing the store — or changing it in place — starts afresh.
        """
        roots = self.public_roots
        judged_by = None if roots is None else (roots, roots.revision)
        if judged_by != self._verdicts_judged_by:
            self._verdicts.clear()
            self._verdicts_judged_by = judged_by
        return self._verdicts.recall(
            (hostname, body), lambda: self._judge(hostname, body, roots)
        )

    @staticmethod
    def _judge(hostname: str, body: bytes, roots) -> ChainVerdict | ChainRejection:
        try:
            der_chain = pem_decode_all(body.decode("ascii", errors="replace"))
        except PemError as exc:
            return ChainRejection("pem", str(exc).encode())
        if not der_chain:
            return ChainRejection("empty", b"empty report")
        # Extensions decode lazily, so a malformed subjectAltName or
        # basicConstraints surfaces in validation or summarising, not
        # in the parse: all three are the same rejection.
        try:
            chain = [parse_certificate(der) for der in der_chain]
            chain_valid = roots is not None and bool(
                validate_chain(chain, roots, hostname=hostname)
            )
            return ChainVerdict(
                leaf=CertSummary.from_certificate(chain[0]),
                chain=tuple(CertSummary.from_certificate(c) for c in chain[1:]),
                chain_valid=chain_valid,
            )
        except X509Error as exc:
            return ChainRejection("x509", str(exc).encode())


class CombinedPolicyHttpServer(Protocol):
    """One port, two protocols: Flash policy requests and HTTP.

    Sniffs the first client bytes: a literal ``<policy-file-request/>``
    is answered by the policy server, anything else is handed to the
    HTTP server.  This is exactly the §3.1 arrangement.
    """

    def __init__(self, policy: PolicyFile, http: HttpServer) -> None:
        self._policy_template = policy
        self._http_template = http
        self._delegate: Protocol | None = None
        self._buffer = b""

    def factory(self) -> "CombinedPolicyHttpServer":
        return CombinedPolicyHttpServer(self._policy_template, self._http_template)

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if self._delegate is not None:
            self._delegate.data_received(sock, data)
            return
        self._buffer += data
        probe_len = len(POLICY_REQUEST)
        if self._buffer.startswith(POLICY_REQUEST[: min(len(self._buffer), probe_len)]):
            if len(self._buffer) < probe_len:
                return  # could still be either; wait for more bytes
            delegate: Protocol = PolicyServer(self._policy_template).factory()
        else:
            delegate = self._http_template.factory()
        self._delegate = delegate
        buffered, self._buffer = self._buffer, b""
        delegate.data_received(sock, buffered)

    def connection_lost(self, sock: StreamSocket) -> None:
        if self._delegate is not None:
            self._delegate.connection_lost(sock)
