"""The legitimate web PKI behind the probe sites.

Builds the CA hierarchy of Figure 2(a): a handful of trusted roots,
intermediates under them, and a certificate chain for every probe
site.  The authors' site gets its real-world issuer, DigiCert High
Assurance CA-3, and a 2048-bit key — the §5.2 baseline against which
substitute-certificate downgrades are judged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import synthetic_public_key
from repro.data.sites import AUTHORS_SITE, ProbeSite
from repro.util import stable_hash
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Certificate, Name, SubjectPublicKeyInfo
from repro.x509.store import RootStore

# Root and intermediate names mirror the paper's examples (§2, §5.2).
_ROOTS = (
    ("digicert-root", "DigiCert Inc", "DigiCert High Assurance EV Root CA"),
    ("geotrust-root", "GeoTrust Inc.", "GeoTrust Global CA"),
    ("cybertrust-root", "Baltimore", "Baltimore CyberTrust Root"),
)
_INTERMEDIATES = (
    ("digicert-ha-ca3", "digicert-root", "DigiCert Inc", "DigiCert High Assurance CA-3"),
    ("geotrust-ssl", "geotrust-root", "GeoTrust Inc.", "GeoTrust SSL CA"),
    ("cybertrust-public", "cybertrust-root", "Cybertrust Inc", "Cybertrust Public SureServer SV CA"),
)
# The authors' site really chained to DigiCert High Assurance CA-3.
_AUTHORS_INTERMEDIATE = "digicert-ha-ca3"
ORIGINAL_KEY_BITS = 2048


@dataclass
class WebPki:
    """The origin PKI: roots, intermediates and per-site chains."""

    roots: dict[str, CertificateAuthority] = field(default_factory=dict)
    intermediates: dict[str, CertificateAuthority] = field(default_factory=dict)
    site_chains: dict[str, list[Certificate]] = field(default_factory=dict)

    def root_store(self) -> RootStore:
        """A factory root store trusting exactly these roots."""
        return RootStore([ca.certificate for ca in self.roots.values()])

    def chain_for(self, hostname: str) -> list[Certificate]:
        return self.site_chains[hostname]

    def leaf_for(self, hostname: str) -> Certificate:
        return self.site_chains[hostname][0]


def build_web_pki(
    keystore: KeyStore, sites: list[ProbeSite], seed: int = 0
) -> WebPki:
    """Issue the full hierarchy for ``sites``."""
    pki = WebPki()
    for key, org, cn in _ROOTS:
        ca_key = keystore.key(f"webpki:{key}", 1024)
        pki.roots[key] = CertificateAuthority.self_signed(
            SelfSignedParams(subject=Name.build(common_name=cn, organization=org), key=ca_key),
            signatures=keystore.signatures,
        )
    for key, root_key, org, cn in _INTERMEDIATES:
        int_key = keystore.key(f"webpki:{key}", 1024)
        pki.intermediates[key] = pki.roots[root_key].issue_intermediate(
            Name.build(common_name=cn, organization=org), int_key
        )
    intermediate_keys = [key for key, _, _, _ in _INTERMEDIATES]
    for site in sites:
        if site.hostname == AUTHORS_SITE:
            issuer_key = _AUTHORS_INTERMEDIATE
        else:
            index = stable_hash(seed, "site-issuer", site.hostname) % len(
                intermediate_keys
            )
            issuer_key = intermediate_keys[index]
        issuer = pki.intermediates[issuer_key]
        rng = random.Random(stable_hash(seed, "site-key", site.hostname))
        n, e = synthetic_public_key(ORIGINAL_KEY_BITS, rng)
        leaf = issuer.issue(
            Name.build(
                common_name=site.hostname,
                organization=_site_org(site),
            ),
            SubjectPublicKeyInfo(n, e),
            hash_name="sha1",  # the 2014 default
            dns_names=[site.hostname, f"www.{site.hostname}"],
            serial_number=stable_hash(seed, "site-serial", site.hostname, bits=63) | 1,
        )
        pki.site_chains[site.hostname] = [leaf, issuer.certificate]
    return pki


def _site_org(site: ProbeSite) -> str:
    if site.hostname == AUTHORS_SITE:
        return "Brigham Young University"
    return site.hostname.split(".")[0].title()
