"""Root certificate stores.

The root store is the battleground of the paper: benevolent products
and malware alike *inject* a new trusted root so their substitute
certificates validate (Figure 2(c)).  The store records which roots
are factory-installed versus injected so experiments can distinguish
the two.
"""

from __future__ import annotations

from repro.x509.model import Certificate


class RootStore:
    """A set of trusted root certificates, keyed by fingerprint."""

    def __init__(self, roots: list[Certificate] | None = None) -> None:
        self._roots: dict[str, Certificate] = {}
        self._injected: set[str] = set()
        # Bumped by every change, so a cached trust verdict can tell
        # whether the store it was judged against still holds.
        self.revision = 0
        for root in roots or []:
            self.add(root)

    def add(self, root: Certificate) -> None:
        """Add a factory (pre-installed) root."""
        self._roots[root.fingerprint()] = root
        self.revision += 1

    def inject(self, root: Certificate) -> None:
        """Add a root the way a proxy product or malware does at install."""
        fingerprint = root.fingerprint()
        self._roots[fingerprint] = root
        self._injected.add(fingerprint)
        self.revision += 1

    def remove(self, root: Certificate) -> None:
        fingerprint = root.fingerprint()
        self._roots.pop(fingerprint, None)
        self._injected.discard(fingerprint)
        self.revision += 1

    def contains(self, certificate: Certificate) -> bool:
        return certificate.fingerprint() in self._roots

    def is_injected(self, certificate: Certificate) -> bool:
        """True if this root was added post-factory (the Figure 2(c) case)."""
        return certificate.fingerprint() in self._injected

    def find_issuer_roots(self, certificate: Certificate) -> list[Certificate]:
        """Roots whose subject matches ``certificate``'s issuer."""
        return [
            root
            for root in self._roots.values()
            if root.subject == certificate.issuer
        ]

    def copy(self) -> "RootStore":
        """Independent copy (for per-client stores cloned from a base image)."""
        clone = RootStore()
        clone._roots = dict(self._roots)
        clone._injected = set(self._injected)
        return clone

    def __len__(self) -> int:
        return len(self._roots)

    def __iter__(self):
        return iter(self._roots.values())

    @property
    def injected_count(self) -> int:
        return len(self._injected)
