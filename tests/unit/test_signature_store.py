"""Certificate signatures kept in the key vault.

A stored signature is admissible only if it is invisible: a verified
hit must be byte-identical to signing afresh, and anything wrong on
disk — missing, truncated, flipped or made by another key — must be a
miss that recomputes and heals the entry.
"""

import json

import pytest

from repro.crypto.hashes import hash_by_name
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import pkcs1_sign
from repro.crypto.vault import KeyVault
from repro.obs.metrics import MetricsRegistry
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Name

SHA256 = hash_by_name("sha256")
TBS = b"\x30\x03\x02\x01\x07 stand-in for a TBS certificate"


@pytest.fixture
def vault(tmp_path):
    return KeyVault(tmp_path / "vault")


def _counters(store: KeyStore) -> dict:
    return store.metrics.snapshot()["process"]["counters"]


def _root(store: KeyStore) -> CertificateAuthority:
    return CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(common_name="Sig Root", organization="Sig"),
            key=store.key("sig-root", 512),
        ),
        signatures=store.signatures,
    )


class TestSignatureStore:
    def test_vaultless_store_has_no_signature_store(self):
        store = KeyStore(seed=3)
        assert store.signatures is None
        assert store.signatures_computed == 0

    def test_cold_signs_then_warm_loads_identical_bytes(self, vault):
        cold = KeyStore(seed=3, vault=vault)
        key = cold.key("signer", 512)
        first = cold.signatures.sign(key, SHA256, TBS)
        assert first == pkcs1_sign(key, SHA256, TBS)
        assert cold.signatures_computed == 1
        warm = KeyStore(seed=3, vault=vault)
        again = warm.signatures.sign(warm.key("signer", 512), SHA256, TBS)
        assert again == first
        assert warm.signatures_computed == 0
        assert _counters(warm)["cache.hits{cache=signature}"] == 1

    def test_counters_live_in_the_process_section(self, vault):
        store = KeyStore(seed=3, vault=vault, registry=MetricsRegistry())
        key = store.key("signer", 512)
        store.signatures.sign(key, SHA256, TBS)
        store.signatures.sign(key, SHA256, TBS)
        snapshot = store.metrics.snapshot()
        assert snapshot["process"]["counters"]["cache.misses{cache=signature}"] == 1
        assert snapshot["process"]["counters"]["cache.hits{cache=signature}"] == 1
        assert not any(
            "signature" in name for name in snapshot["deterministic"]["counters"]
        )

    def test_issued_certificates_identical_with_and_without_vault(self, vault):
        plain = _root(KeyStore(seed=5))
        cold = _root(KeyStore(seed=5, vault=vault))
        warm_store = KeyStore(seed=5, vault=vault)
        warm = _root(warm_store)
        assert plain.certificate.encode() == cold.certificate.encode()
        assert warm.certificate.encode() == plain.certificate.encode()
        # The store travels to intermediates and their leaves.
        intermediate = warm.issue_intermediate(
            Name.build(common_name="Sig Intermediate"), warm_store.key("sig-int", 512)
        )
        assert warm_store.signatures_computed == 1  # only the new intermediate
        intermediate.issue(
            Name.build(common_name="leaf.example"),
            warm.certificate.tbs.public_key,
            dns_names=["leaf.example"],
        )
        assert warm_store.signatures_computed == 2

    def test_entries_stay_out_of_the_key_count(self, vault):
        store = KeyStore(seed=3, vault=vault)
        _root(store)
        assert len(vault) == 1  # the key; the signature has its own tree
        assert list(vault.path.glob("sig/3/*/*.sig"))
        assert not list(vault.path.glob("**/*.tmp"))


class TestBadEntriesHeal:
    def _entry(self, vault, seed=3):
        store = KeyStore(seed=seed, vault=vault)
        key = store.key("signer", 512)
        signature = store.signatures.sign(key, SHA256, TBS)
        return key, signature, vault.signature_path(seed, key.public, SHA256, TBS)

    def _resign(self, vault, key, seed=3):
        store = KeyStore(seed=seed, vault=vault)
        signature = store.signatures.sign(key, SHA256, TBS)
        return store, signature

    def test_flipped_byte_is_a_miss_and_heals(self, vault):
        key, expected, path = self._entry(vault)
        tampered = bytearray(path.read_bytes())
        tampered[len(tampered) // 2] ^= 0x01
        path.write_bytes(bytes(tampered))
        store, signature = self._resign(vault, key)
        assert signature == expected
        assert store.signatures_computed == 1
        assert path.read_bytes() == expected

    def test_truncated_entry_is_a_miss_and_heals(self, vault):
        key, expected, path = self._entry(vault)
        path.write_bytes(expected[:-3])
        store, signature = self._resign(vault, key)
        assert signature == expected and store.signatures_computed == 1
        assert path.read_bytes() == expected

    def test_entry_made_by_another_key_is_a_miss(self, vault):
        key, expected, path = self._entry(vault)
        other = KeyStore(seed=3).key("another-signer", 512)
        path.write_bytes(pkcs1_sign(other, SHA256, TBS))
        store, signature = self._resign(vault, key)
        assert signature == expected and store.signatures_computed == 1
        assert path.read_bytes() == expected

    def test_unreadable_entry_is_a_miss(self, vault):
        key, expected, path = self._entry(vault)
        path.unlink()
        path.mkdir()  # reading a directory fails with OSError
        assert vault.load_signature(3, key.public, SHA256, TBS) is None


class TestAddressing:
    def test_every_signing_input_has_its_own_address(self):
        store = KeyStore(seed=3)
        keys = [store.key(label, 512).public for label in ("a", "b")]
        addresses = {
            KeyVault.signature_address(seed, key, hash_by_name(name), data)
            for seed in (3, 4)
            for key in keys
            for name in ("sha1", "sha256")
            for data in (TBS, TBS + b"\x00")
        }
        assert len(addresses) == 16


class TestMaintenance:
    def _populate(self, vault):
        for seed in (7, 8):
            _root(KeyStore(seed=seed, vault=vault))

    def test_gc_prunes_signature_trees_of_dropped_seeds(self, vault):
        self._populate(vault)
        orphan = next(vault.path.glob("sig/7/*")) / ".crashed.sig.1.2.tmp"
        orphan.write_bytes(b"partial")
        assert vault.gc(keep_seeds=[7]) == (2, 3)  # kept key+sig; dropped key+sig+tmp
        assert not (vault.path / "sig" / "8").exists()
        assert not orphan.exists()
        assert len(list(vault.path.glob("sig/7/*/*.sig"))) == 1
        # The kept seed still loads everything: no keygen, no signing.
        survivor = KeyStore(seed=7, vault=vault)
        _root(survivor)
        assert survivor.keys_generated == 0 and survivor.signatures_computed == 0

    def test_gc_dropping_every_seed_leaves_no_signature_tree(self, vault):
        self._populate(vault)
        assert vault.gc(keep_seeds=[99]) == (0, 4)
        assert not (vault.path / "sig").exists()

    def test_stats_report_signatures_per_seed(self, vault):
        self._populate(vault)
        registry = MetricsRegistry()
        per_seed = vault.collect_stats(registry)
        sig_bytes = vault.path.glob("sig/7/*/*.sig")
        size = sum(path.stat().st_size for path in sig_bytes)
        keys, key_bytes, signatures, signature_bytes = per_seed[7]
        assert (keys, signatures, signature_bytes) == (1, 1, size)
        assert key_bytes > 0
        gauges = registry.snapshot()["deterministic"]["gauges"]
        assert gauges["vault.entries"] == 2
        assert gauges["vault.signatures"] == 2
        assert gauges["vault.signatures{seed=8}"] == 1

    def test_stats_cli_prints_signature_columns(self, vault, capsys, tmp_path):
        from repro.cli import main

        self._populate(vault)
        out_path = tmp_path / "stats.json"
        assert main(
            ["keys", "stats", "--vault", str(vault.path), "--metrics-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "2 signatures" in out
        assert "Signatures" in out
        assert "vault.signature_bytes" in json.dumps(json.loads(out_path.read_text()))
