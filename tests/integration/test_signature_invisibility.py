"""Stored certificate signatures change nothing but the work done.

Every output the reproduction guarantees byte-identical across worker
counts and concurrency caps must also be byte-identical with no vault,
a cold vault (every signature computed and stored) and a warm vault
(every signature loaded and verified): the fast study's aggregate
signature and deterministic metrics, the wire study's aggregate
signature and per-engine event logs at caps 1 and 64, and audit
scorecards under a 2014 and a 2020 browser.  Damaged entries are
misses that recompute and heal, and a warm run signs nothing — in
the parent process or in its workers.
"""

import json
from pathlib import Path

import pytest

from repro.audit.harness import audit_catalog
from repro.crypto.hashes import hash_by_name
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import pkcs1_sign
from repro.study import StudyConfig, StudyRunner

SEED = 13
AUDIT_PRODUCTS = ["bitdefender", "kurupira", "fortinet"]
VAULT_STATES = ("none", "cold", "warm")


def _fast(vault, workers=1):
    runner = StudyRunner(
        StudyConfig(
            study=2, seed=SEED, scale=0.002, mode="fast", workers=workers,
            vault=vault,
        )
    )
    result = runner.run()
    return runner, result


def _outputs(result) -> tuple[str, dict]:
    return result.database.aggregate_signature(), result.metrics["deterministic"]


@pytest.fixture(scope="module")
def fast_runs(tmp_path_factory):
    vault = str(tmp_path_factory.mktemp("fast") / "vault")
    runs = {"none": _fast(None), "cold": _fast(vault), "warm": _fast(vault)}
    return vault, runs


class TestFastStudy:
    def test_outputs_identical_across_vault_states(self, fast_runs):
        _vault, runs = fast_runs
        outputs = {state: _outputs(result) for state, (_r, result) in runs.items()}
        assert outputs["cold"] == outputs["none"]
        assert outputs["warm"] == outputs["none"]

    def test_cold_signs_and_warm_signs_nothing(self, fast_runs):
        _vault, runs = fast_runs
        assert runs["none"][0].keystore.signatures is None
        assert runs["cold"][1].notes["signatures_computed"] > 0
        assert runs["warm"][1].notes["signatures_computed"] == 0
        hits = runs["warm"][1].metrics["process"]["counters"]
        assert hits["cache.hits{cache=signature}"] == (
            runs["cold"][1].notes["signatures_computed"]
        )

    def test_damaged_entries_recompute_and_heal(self, fast_runs):
        vault, runs = fast_runs
        paths = sorted(Path(vault).glob(f"sig/{SEED}/*/*.sig"))
        flipped, truncated, foreign = paths[:3]
        good = {path: path.read_bytes() for path in (flipped, truncated, foreign)}
        data = bytearray(good[flipped])
        data[-1] ^= 0xFF
        flipped.write_bytes(bytes(data))
        truncated.write_bytes(good[truncated][:-1])
        other = KeyStore(seed=SEED + 1).key("foreign-signer", 1024)
        foreign.write_bytes(pkcs1_sign(other, hash_by_name("sha256"), b"elsewhere"))
        runner, result = _fast(vault)
        assert _outputs(result) == _outputs(runs["none"][1])
        assert result.notes["signatures_computed"] == 3
        assert {path: path.read_bytes() for path in good} == good

    def test_two_process_workers_on_a_warm_vault_sign_nothing(self, fast_runs):
        vault, runs = fast_runs
        # The first sharded run also signs the CAs the serial runs never
        # reached: a sharded parent warms every product's signing CAs.
        _fast(vault, workers=2)
        _runner, result = _fast(vault, workers=2)
        assert _outputs(result)[0] == _outputs(runs["none"][1])[0]
        assert result.notes["signatures_computed"] == 0
        assert result.notes["worker_signatures_computed"] == 0
        assert result.notes["worker_keys_generated"] == 0


def _wire(vault, cap):
    runner = StudyRunner(
        StudyConfig(
            # The smallest scale at which this seed meets a proxy engine.
            study=2, seed=SEED, scale=0.0002, mode="wire", wire_concurrency=cap,
            vault=vault,
        )
    )
    result = runner.run()
    logs = {
        key: interceptor.events.to_dicts()
        for key, host in result.notes["wire_client_hosts"].items()
        for interceptor in host.interceptors
        if getattr(interceptor, "events", None) is not None
    }
    return runner, (result.database.aggregate_signature(), logs)


@pytest.mark.parametrize("cap", [1, 64])
def test_wire_outputs_identical_across_vault_states(tmp_path, cap):
    vault = str(tmp_path / "vault")
    runs = {"none": _wire(None, cap), "cold": _wire(vault, cap), "warm": _wire(vault, cap)}
    signature, logs = runs["none"][1]
    assert logs  # the engines recorded their handshakes
    for state in ("cold", "warm"):
        assert runs[state][1] == (signature, logs), state
    assert runs["cold"][0].keystore.signatures_computed > 0
    assert runs["warm"][0].keystore.signatures_computed == 0


@pytest.mark.parametrize("browser", ["chrome", "chrome-2020"])
def test_audit_scorecards_identical_across_vault_states(tmp_path, browser):
    vault = str(tmp_path / "vault")
    reports = {
        state: json.dumps(
            audit_catalog(
                seed=SEED,
                products=AUDIT_PRODUCTS,
                pki_key_bits=512,
                vault=None if state == "none" else vault,
                browser=browser,
            ).to_dict(),
            sort_keys=True,
        )
        for state in VAULT_STATES
    }
    assert reports["cold"] == reports["none"]
    assert reports["warm"] == reports["none"]
