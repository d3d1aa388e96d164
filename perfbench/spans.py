"""Outside-in layer tracing for the benchmark.

The program carries no instrumentation of its own at layer boundaries,
so the traced run wraps each layer's public entry point from here:

* :class:`Tracer` keeps every span in memory — name, binding tag,
  start, end, parent span and the session id current when it opened —
  and derives per-layer call counts and self time (a span's duration
  minus the time its child spans cover) once the run ends.
* :class:`Installer` swaps wrappers in.  Modules import functions by
  name (``from repro.x509.parse import parse_certificate``), so
  patching the defining module alone would miss most callers: the
  installer replaces *every* attribute of a loaded ``repro.*`` module
  or class that *is* the original object, and puts every original back
  on exit.

:data:`LAYERS` names the boundaries; :func:`install_layers` wires them
to a tracer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Span kinds.  A "call" span nests on the stack; a "latency" span covers
# a generator task from first resume to completion and overlaps other
# work, so it never counts as a child of anything.
CALL = 0
LATENCY = 1

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with a call stack and a current session."""

    def __init__(self) -> None:
        # [name, tag, start, end, parent index, session id, kind]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.session: int | None = None
        self.counters: Counter = Counter()
        self.chains_seen: set[bytes] = set()
        self._sessions = 0

    def call(self, name: str, tag: str, fn, args, kwargs):
        record = [name, tag, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.session, CALL]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[2] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = clock()
            self._stack.pop()

    def task(self, name: str, tag: str, gen):
        """Drive generator ``gen`` as a session: one latency span over
        its life, one call span per resume (each resume sets the
        current session id)."""
        self._sessions += 1
        session = self._sessions
        latency = [name, tag, 0.0, 0.0, -1, session, LATENCY]
        self.spans.append(latency)
        send, value = gen.send, None
        latency[2] = clock()
        while True:
            outer = self.session
            self.session = session
            try:
                item = self.call(name, "resume", send, (value,), {})
            except StopIteration as stop:
                latency[3] = clock()
                return stop.value
            except BaseException:
                latency[3] = clock()
                raise
            finally:
                self.session = outer
            try:
                value = yield item
                send = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # re-raised inside the task
                send, value = gen.throw, exc

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        A task counts one call (its latency span) and the time of its
        resumes; the latency span itself covers other work and adds no
        time.
        """
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent, session, kind in self.spans:
            if kind == CALL and parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, tag, start, end, parent, session, kind) in enumerate(
            self.spans
        ):
            row = out[name]
            if kind == LATENCY:
                row["calls"] += 1
                continue
            row["calls"] += tag != "resume"
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return dict(out)

    def calls_by(self, name: str, key) -> Counter:
        """Call spans named ``name`` counted by ``key(span, spans)``."""
        return Counter(
            key(span, self.spans)
            for span in self.spans
            if span[0] == name and span[6] == CALL and span[1] != "resume"
        )

    def sessions(self) -> list[tuple[float, float]]:
        """(latency s, busy s) per completed session task."""
        busy: dict[int, float] = defaultdict(float)
        latency: dict[int, float] = {}
        for name, tag, start, end, parent, session, kind in self.spans:
            if kind == LATENCY:
                latency[session] = end - start
            elif tag == "resume":
                busy[session] += end - start
        return [(latency[s], busy[s]) for s in sorted(latency)]

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\ttag\tstart\tend\tparent\tsession\tkind\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


class Installer:
    """Replaces every binding of a function; restores all on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace(self, module: str, path: str, make_wrapper, everywhere=True):
        """Wrap ``module``'s ``path`` (``"func"`` or ``"Class.method"``).

        ``make_wrapper(original, binding_module)`` builds one wrapper per
        binding.  With ``everywhere`` every loaded ``repro.*`` module
        attribute, and every method slot of a class defined in one,
        that *is* the original gets its own wrapper; otherwise only
        the named binding is replaced.  Returns the binding count.
        """
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if not everywhere:
            self._set(owner, attr, make_wrapper(original, module))
            return 1
        count = 0
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, make_wrapper(original, name))
                    count += 1
                elif inspect.isclass(value) and value.__module__ == name:
                    for slot, member in list(vars(value).items()):
                        if member is original:
                            self._set(value, slot, make_wrapper(original, name))
                            count += 1
        if count == 0:
            raise LookupError(f"no binding of {module}.{path} is loaded")
        return count

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def call_wrapper(tracer: Tracer, name: str, tag: str, original, after=None):
    """Wrapper that opens a ``name`` span around ``original``."""
    call = tracer.call

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if after is None:
            return call(name, tag, original, args, kwargs)
        result = call(name, tag, original, args, kwargs)
        after(tracer, args, result)
        return result

    return wrapper


def task_wrapper(tracer: Tracer, name: str, tag: str, original):
    """Wrapper that traces a generator-returning function as a task."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.task(name, tag, original(*args, **kwargs))

    return wrapper


# -- per-boundary hooks -------------------------------------------------------


def _count_drain_events(tracer: Tracer, args, processed: int) -> None:
    tracer.counters["netsim.drain.events"] += processed


def _count_ingest(tracer: Tracer, args, response) -> None:
    request = args[1]
    digest = hashlib.blake2b(request.body, digest_size=16).digest()
    if digest in tracer.chains_seen:
        tracer.counters["measure.ingest.repeat_chain"] += 1
    tracer.chains_seen.add(digest)
    if response.status == 200:
        tracer.counters["measure.ingest.accepted"] += 1


# (span name, module, attribute path, every binding?, after-hook or "task")
LAYERS: tuple[tuple, ...] = (
    ("crypto.keygen", "repro.crypto.rsa", "generate_rsa_key", True, None),
    ("crypto.vault_load", "repro.crypto.vault", "KeyVault.load", True, None),
    ("crypto.sign", "repro.crypto.rsa", "pkcs1_sign", True, None),
    ("crypto.verify", "repro.crypto.rsa", "pkcs1_verify", True, None),
    # Only the parser's own binding: every call through it is a
    # top-level decode, the recursion inside asn1 stays unwrapped.
    ("asn1.decode", "repro.x509.parse", "decode", False, None),
    ("x509.parse", "repro.x509.parse", "parse_certificate", True, None),
    ("x509.tbs_encode", "repro.x509.model", "TbsCertificate.encode", True, None),
    ("x509.validate", "repro.x509.verify", "validate_chain", True, None),
    ("x509.validate", "repro.x509.verify", "collect_chain_defects", True, None),
    ("x509.issue", "repro.x509.ca", "CertificateAuthority.issue", True, None),
    ("proxy.forge", "repro.proxy.forger", "SubstituteCertForger.forge", True, None),
    # The engine's per-connection protocol is where its bytes arrive.
    ("proxy.engine", "repro.proxy.engine", "_MitmConnection.data_received", True, None),
    ("tls.records", "repro.tls.codec", "decode_records", True, None),
    ("tls.server", "repro.tls.server", "TlsCertServer.data_received", True, None),
    ("netsim.drain", "repro.netsim.events", "DeliveryQueue.drain", True,
     _count_drain_events),
    ("httpmin.server", "repro.httpmin.server", "HttpServer.data_received", True, None),
    # The POST /report handler: routes bind it when the server is built.
    ("measure.ingest", "repro.measure.server", "ReportingServer._ingest_report",
     True, _count_ingest),
    ("measure.session", "repro.measure.tool", "MeasurementTool.session_task", True,
     "task"),
    ("measure.db", "repro.measure.database", "ReportDatabase.add_matched", True, None),
    ("measure.db", "repro.measure.database", "ReportDatabase.add_matched_bulk", True,
     None),
    ("measure.db", "repro.measure.database", "ReportDatabase.add_mismatch", True, None),
    ("measure.db", "repro.measure.database", "ReportDatabase.merge", True, None),
    ("study.run", "repro.study.runner", "StudyRunner.run", True, None),
    ("audit.scenario", "repro.audit.harness", "AuditHarness.run_scenario", True, None),
    ("audit.product", "repro.audit.harness", "AuditHarness.audit_product", True, None),
    ("analysis.tables", "repro.analysis.tables", "country_breakdown", True, None),
    ("analysis.tables", "repro.analysis.tables", "issuer_organization_table", True,
     None),
    ("analysis.tables", "repro.analysis.tables", "classification_table", True, None),
    ("analysis.tables", "repro.analysis.tables", "host_type_table", True, None),
    ("analysis.tables", "repro.analysis.tables", "heatmap_series", True, None),
    ("analysis.tables", "repro.analysis.negligence", "analyze_negligence", True, None),
    ("analysis.tables", "repro.analysis.malware", "malware_census", True, None),
)

# Which caller a parse binding serves, by the module it was imported into.
PARSE_SITES = {
    "repro.measure.server": "server",
    "repro.proxy.engine": "engine",
    "repro.tls.probe": "probe",
}


def install_layers(installer: Installer, tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` boundary; spans go to ``tracer``."""
    for name, module, path, everywhere, hook in LAYERS:
        importlib.import_module(module)

        def make(original, binding, name=name, hook=hook):
            tag = PARSE_SITES.get(binding, binding) if name == "x509.parse" else ""
            if hook == "task":
                return task_wrapper(tracer, name, tag, original)
            return call_wrapper(tracer, name, tag, original, after=hook)

        installer.replace(module, path, make, everywhere=everywhere)


def parent_name(span, spans) -> str:
    """Name of the span's parent, or ``"-"`` at top level."""
    return spans[span[4]][0] if span[4] >= 0 else "-"


def binding_tag(span, spans) -> str:
    return span[1]
