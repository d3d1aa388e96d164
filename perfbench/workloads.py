"""The benchmark's workloads: what one repetition runs and checks.

Each workload builds its program state in :meth:`setup` (timed as
``setup_s``) and runs one repetition in :meth:`run`, returning a
:class:`Rep`.  Every repetition starts from fresh objects — a new
runner or new harnesses, new forgers, new key stores — so no
in-process memo survives from one repetition to the next.  The only
state shared across repetitions is a workload's declared warm key
vault, a directory inside the run's scratch directory.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import analysis, reporting
from repro.audit import OUTCOME_ERROR, AuditHarness, AuditReport
from repro.crypto import keystore as keystore_module
from repro.crypto.keystore import KeyStore
from repro.data.products import catalog
from repro.study import StudyConfig, StudyRunner

from spans import Installer

clock = time.perf_counter

AUDIT_KEY_SEED = 42


@dataclass
class Rep:
    """One repetition's outputs and the program counters it touched."""

    units: int
    attempted: int
    failed: int
    run_s: float
    latencies_s: list[float]
    digest: str
    keys_generated: int
    # Forger counters, summed over the repetition's forgers.
    cache_hits: int = 0
    certificates_forged: int = 0
    snapshots: list[dict] = field(default_factory=list)
    # Check failures found while running (empty = all passed).
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _timed_call(original, latencies: list[float], outcomes: list | None = None):
    def wrapper(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        latencies.append(clock() - start)
        if outcomes is not None:
            outcomes.append(result.outcome)
        return result

    return wrapper


def _timed_task(original, latencies: list[float]):
    def wrapper(*args, **kwargs):
        return _time_generator(original(*args, **kwargs), latencies)

    return wrapper


def _time_generator(gen, latencies: list[float]):
    start = clock()
    result = yield from gen
    latencies.append(clock() - start)
    return result


class StudyWorkload:
    """Study 2 in fast or wire mode, on a warm run-scoped key vault."""

    unit = "sessions"
    warm = True

    def __init__(self, mode: str, scale: float, concurrency: int = 1) -> None:
        self.mode = mode
        self.scale = scale
        self.concurrency = concurrency
        # Fast mode also renders the CLI tables; only the scheduled wire
        # path drains netsim's delivery queue.
        self.tables = mode == "fast"
        self.queued = mode == "wire"

    def config(self, seed: int, workdir: Path) -> StudyConfig:
        return StudyConfig(
            study=2,
            seed=seed,
            scale=self.scale,
            mode=self.mode,
            workers=1,
            wire_concurrency=self.concurrency,
            vault=str(workdir / "vault"),
        )

    def setup(self, seed: int, workdir: Path) -> StudyRunner:
        keystore_module._SHARED.clear()
        return StudyRunner(self.config(seed, workdir))

    def run(self, runner: StudyRunner) -> Rep:
        latencies: list[float] = []
        with Installer() as installer:
            if self.mode == "wire":
                installer.replace(
                    "repro.measure.tool", "MeasurementTool.session_task",
                    lambda original, _: _timed_task(original, latencies),
                    everywhere=False,
                )
            else:
                # Fast mode vectorises sessions; its per-unit call is one
                # forged substitute chain (the forger is only asked on a
                # cell's first use, so every call forges).
                runner.forger.forge = _timed_call(runner.forger.forge, latencies)
            start = clock()
            result = runner.run()
            text = render_tables(result.database) if self.tables else ""
            run_s = clock() - start
        database = result.database
        failures = database.failures
        failed = (
            failures.policy_denied
            + failures.connect_failed
            + failures.probe_failed
            + failures.report_failed
        )
        rep = Rep(
            units=result.sessions_run,
            attempted=failures.sessions_started,
            failed=failed,
            run_s=run_s,
            latencies_s=latencies,
            digest=database.aggregate_signature(),
            keys_generated=runner.keystore.keys_generated,
            cache_hits=runner.forger.cache_hits,
            certificates_forged=runner.forger.certificates_forged,
            snapshots=[result.metrics],
        )
        if self.tables:
            rep.problems += self._shape_problems(database)
            rep.notes["tables"] = hashlib.sha256(text.encode()).hexdigest()
        rep.notes["rate_percent"] = 100 * database.proxied_rate
        return rep

    @staticmethod
    def _shape_problems(database) -> list[str]:
        """The Table 7 shape gate of ``benchmarks/bench_table7``."""
        breakdown = analysis.country_breakdown(database, top_n=20, order_by="total")
        by_code = {row.country: row for row in breakdown.rows}
        top6 = {row.country for row in breakdown.rows[:6]}
        problems = []
        if breakdown.rows[0].country != "CN":
            problems.append("table 7: CN does not lead volume")
        if by_code["CN"].percent >= 0.10:
            problems.append(f"table 7: CN rate {by_code['CN'].percent:.3f}% >= 0.10%")
        if not {"CN", "UA", "RU", "EG", "PK"} <= top6:
            problems.append(f"table 7: targeted countries not all in {sorted(top6)}")
        if not 0.30 < breakdown.total.percent < 0.55:
            problems.append(
                f"table 7: total rate {breakdown.total.percent:.3f}% outside 0.30-0.55%"
            )
        return problems


def render_tables(db) -> str:
    """The tables ``repro study2`` prints, read through the analysis
    package's own bindings (which the traced run wraps)."""
    rows, other = analysis.issuer_organization_table(db, top_n=20)
    negligence = analysis.analyze_negligence(db)
    census = analysis.malware_census(db)
    return "\n".join(
        [
            reporting.render_country_table(
                analysis.country_breakdown(db, top_n=20, order_by="total")
            ),
            reporting.render_issuer_table(rows, other),
            reporting.render_classification_table(analysis.classification_table(db)),
            reporting.render_host_type_table(analysis.host_type_table(db)),
            reporting.render_heatmap(analysis.heatmap_series(db), columns=5),
            f"negligence: {negligence.downgraded_1024} x 1024-bit, "
            f"{negligence.md5_signed} MD5, {negligence.false_ca_claims} false CA",
            f"malware: {census.family_count} families, "
            f"{census.total_connections} connections",
        ]
    )


class _KeyStore(KeyStore):
    """A key store that stays truthy while empty: ``AuditHarness``
    takes ``keystore or KeyStore(...)``, and ``KeyStore`` defines
    ``__len__``, so a fresh store passed in would be ignored."""

    def __bool__(self) -> bool:
        return True


class AuditWorkload:
    """A catalog-wide battery under several browser profiles, cold."""

    unit = "scenarios"
    warm = False
    queued = False

    def __init__(self, browsers: tuple[str, ...], every: int) -> None:
        self.browsers = browsers
        # Every ``every``-th product: a spread over the catalog's
        # categories and key sizes at a fraction of its cost.
        self.specs = catalog()[::every]
        self._setups = 0

    def setup(self, seed: int, workdir: Path) -> list[AuditHarness]:
        """One harness per browser over one empty run-scoped vault.

        Key material comes from a fixed key seed — the vendors'
        long-lived keys — so every run pays the same prime search; the
        workload seed drives everything else.  Keyed by the workload
        seed, keygen work varies so much between seeds that per-scenario
        p99 spreads by ~40% of its median across seeds.
        """
        keystore_module._SHARED.clear()
        self._setups += 1
        vault = str(workdir / f"vault-{self._setups}")
        shutil.rmtree(vault, ignore_errors=True)
        return [
            AuditHarness(
                seed=seed,
                keystore=_KeyStore(seed=AUDIT_KEY_SEED, vault=vault),
                browser=browser,
            )
            for browser in self.browsers
        ]

    def run(self, harnesses: list[AuditHarness]) -> Rep:
        latencies: list[float] = []
        outcomes: list[str] = []
        with Installer() as installer:
            installer.replace(
                "repro.audit.harness", "AuditHarness.run_scenario",
                lambda original, _: _timed_call(original, latencies, outcomes),
                everywhere=False,
            )
            start = clock()
            reports = [
                AuditReport(
                    seed=harness.seed,
                    scorecards=tuple(
                        harness.audit_product(spec.profile) for spec in self.specs
                    ),
                )
                for harness in harnesses
            ]
            run_s = clock() - start
        canonical = json.dumps(
            {
                browser: report.to_dict()
                for browser, report in zip(self.browsers, reports)
            },
            sort_keys=True,
        )
        return Rep(
            units=len(latencies),
            attempted=len(outcomes),
            failed=outcomes.count(OUTCOME_ERROR),
            run_s=run_s,
            latencies_s=latencies,
            digest=hashlib.sha256(canonical.encode()).hexdigest(),
            keys_generated=sum(h.keystore.keys_generated for h in harnesses),
            cache_hits=sum(h.forger.cache_hits for h in harnesses),
            certificates_forged=sum(h.forger.certificates_forged for h in harnesses),
            snapshots=[h.obs.snapshot() for h in harnesses],
        )


# A 2014 and a 2020 profile.
AUDIT_BROWSERS = ("chrome", "chrome-2020")


def workloads(smoke: bool = False) -> dict:
    """Workload name → workload; ``smoke`` shrinks each to seconds."""
    if smoke:
        return {
            "fast_warm": StudyWorkload("fast", 0.002),
            "wire_cap64": StudyWorkload("wire", 0.0001, 64),
            "audit_cold": AuditWorkload(AUDIT_BROWSERS, every=24),
        }
    # Repetitions of a few seconds each, so a run's medians are taken
    # over several of them.
    return {
        "fast_warm": StudyWorkload("fast", 0.025),
        "wire_cap64": StudyWorkload("wire", 0.00015, 64),
        "audit_cold": AuditWorkload(AUDIT_BROWSERS, every=3),
    }

