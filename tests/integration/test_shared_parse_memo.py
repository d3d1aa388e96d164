"""One certificate-parse memo per audit harness and per wire run is invisible.

Every parse site of a run — the audit's engines and its warm-up,
attack, mimicry and resume probes; the wire study's vantage probe,
client probes and engines — goes through one :class:`ParseMemo`.  These
tests rerun each workload with the memo bypassed (``ParseMemo.parse``
parses directly) and demand byte-identical scorecards, handshake event
logs, deterministic metrics, mimicry surveys and wire signatures, and
that the memo parses each distinct DER certificate at most once.
"""

import json
from collections import defaultdict
from dataclasses import dataclass

import pytest

from repro.audit import audit_catalog, mimicry_catalog
from repro.audit import harness as harness_module
from repro.obs.metrics import MetricsRegistry
from repro.study import StudyConfig, StudyRunner
from repro.x509.parse import ParseMemo, parse_certificate

SEED = 23
# Every upstream posture: block, mask, pass-through, cached verdicts,
# a mimicking TLS 1.3 stack that resumes sessions, an MD5 signer.
PRODUCTS = [
    "bitdefender",
    "fortinet",
    "kurupira",
    "posco",
    "contentwatch",
    "superfish",
    "md5-legacy",
    "other-business-fw",
]
BROWSERS = ["chrome", "chrome-2020"]
# (workers, executor): serial, a shared-harness thread pool, and a
# process pool whose forked workers inherit the bypass.
LAYOUTS = [(1, "thread"), (2, "thread"), (2, "process")]

MISSES = "cache.misses{cache=x509_parse}"
HITS = "cache.hits{cache=x509_parse}"

_memo_parse = ParseMemo.parse


@dataclass
class Run:
    result: object
    deterministic: dict
    harness_deterministic: dict | None
    events: list | None
    process: dict
    distinct_der: int


def _patched(mp, memo: bool) -> set:
    """Route every memo lookup through a spy; bypass the memo unless ``memo``."""
    seen: set = set()

    def parse(self, der, parse=None):
        seen.add(bytes(der))
        if memo:
            return _memo_parse(self, der, parse)
        return (parse or parse_certificate)(der)

    mp.setattr(ParseMemo, "parse", parse)
    return seen


def _catalog_run(fan_out, browser, workers, executor, memo) -> Run:
    built = []

    class Recording(harness_module.AuditHarness):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        seen = _patched(mp, memo)
        mp.setattr(harness_module, "AuditHarness", Recording)
        registry = MetricsRegistry()
        result = fan_out(
            seed=SEED,
            workers=workers,
            executor=executor,
            products=PRODUCTS,
            pki_key_bits=512,
            browser=browser,
            registry=registry,
        )
    # The process pool's harnesses live and die in its workers.
    harness = built[0] if built else None
    return Run(
        result=result,
        deterministic=registry.deterministic_snapshot(),
        harness_deterministic=(
            harness.obs.deterministic_snapshot() if harness else None
        ),
        events=harness.events.to_dicts() if harness else None,
        process=harness.obs.snapshot()["process"]["counters"] if harness else {},
        distinct_der=len(seen),
    )


def _by_connection(events: list) -> list:
    """Connection histories, independent of how threads interleaved them."""
    histories = defaultdict(list)
    for event in events:
        histories[event["connection"]].append(
            json.dumps([event["event"], event["detail"]], sort_keys=True)
        )
    return sorted(histories.values())


@pytest.fixture(scope="module")
def audits():
    return {
        (browser, layout, memo): _catalog_run(audit_catalog, browser, *layout, memo)
        for browser in BROWSERS
        for layout in LAYOUTS
        for memo in (True, False)
    }


@pytest.mark.parametrize("browser", BROWSERS)
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda layout: "-".join(map(str, layout)))
class TestAuditBattery:
    def test_scorecard_json_identical(self, audits, browser, layout):
        memo = audits[browser, layout, True].result.to_dict()
        plain = audits[browser, layout, False].result.to_dict()
        assert json.dumps(memo, sort_keys=True) == json.dumps(plain, sort_keys=True)

    def test_deterministic_metrics_identical(self, audits, browser, layout):
        memo, plain = audits[browser, layout, True], audits[browser, layout, False]
        assert memo.deterministic == plain.deterministic
        assert memo.harness_deterministic == plain.harness_deterministic


# The in-process layouts: a process pool's harnesses (their event logs
# and telemetry) stay in its workers.
@pytest.mark.parametrize("browser", BROWSERS)
@pytest.mark.parametrize("layout", LAYOUTS[:2], ids=lambda layout: "-".join(map(str, layout)))
class TestAuditHarness:
    def test_event_logs_identical(self, audits, browser, layout):
        memo, plain = audits[browser, layout, True], audits[browser, layout, False]
        assert memo.events
        if layout[0] == 1:
            assert memo.events == plain.events
        else:
            # Thread pools interleave connections by scheduling, with or
            # without the memo; each connection's history must not move.
            assert _by_connection(memo.events) == _by_connection(plain.events)

    def test_memo_parses_each_distinct_certificate_once(self, audits, browser, layout):
        memo = audits[browser, layout, True]
        assert 0 < memo.process[MISSES] <= memo.distinct_der
        assert memo.process[HITS] > 10 * memo.process[MISSES]
        plain = audits[browser, layout, False]
        assert plain.process.get(MISSES, 0) == plain.process.get(HITS, 0) == 0


class TestMimicrySurvey:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda layout: "-".join(map(str, layout)))
    def test_survey_identical(self, layout):
        memo = _catalog_run(mimicry_catalog, "chrome-2020", *layout, True)
        plain = _catalog_run(mimicry_catalog, "chrome-2020", *layout, False)
        assert memo.result == plain.result
        assert memo.deterministic == plain.deterministic
        if layout == (1, "thread"):
            assert memo.events == plain.events
            assert 0 < memo.process[MISSES] <= memo.distinct_der


def _wire_run(cap: int, memo: bool):
    # Seed 5 at this scale puts two clients behind intercepting products.
    with pytest.MonkeyPatch.context() as mp:
        seen = _patched(mp, memo)
        result = StudyRunner(
            StudyConfig(study=2, seed=5, scale=0.0001, mode="wire", wire_concurrency=cap)
        ).run()
    engine_logs = {}
    engine_memos = set()
    for key, host in result.notes["wire_client_hosts"].items():
        for interceptor in host.interceptors:
            events = getattr(interceptor, "events", None)
            if events is not None:
                engine_logs[key] = events.to_dicts()
                engine_memos.add(id(interceptor.parse_memo))
    return result, engine_logs, len(seen), engine_memos


@pytest.fixture(scope="module")
def wire_runs():
    return {
        (cap, memo): _wire_run(cap, memo) for cap in (1, 64) for memo in (True, False)
    }


@pytest.mark.parametrize("cap", [1, 64])
class TestWireStudy:
    def test_signature_identical(self, wire_runs, cap):
        memo = wire_runs[cap, True][0]
        plain = wire_runs[cap, False][0]
        assert (
            memo.database.aggregate_signature() == plain.database.aggregate_signature()
        )
        assert memo.metrics["deterministic"] == plain.metrics["deterministic"]

    def test_engine_event_logs_identical(self, wire_runs, cap):
        memo_logs = wire_runs[cap, True][1]
        plain_logs = wire_runs[cap, False][1]
        assert memo_logs and memo_logs == plain_logs

    def test_one_memo_serves_the_whole_run(self, wire_runs, cap):
        result, logs, distinct, engine_memos = wire_runs[cap, True]
        # Every client's engine holds the same memo object.
        assert len(logs) > 1 and len(engine_memos) == 1
        assert id(None) not in engine_memos
        counters = result.metrics["process"]["counters"]
        assert 0 < counters[MISSES] <= distinct
        assert counters[HITS] > counters[MISSES]
