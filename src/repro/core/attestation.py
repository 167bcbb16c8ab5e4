"""Signed results and cross-provider double-checking (paper section 6).

*"Because computations will have a single, unambiguous result, providers
could sign statements with their answers - 'f(x) -> y, according to
Provider Z' - and customers could bid out jobs to any provider that
carries acceptable 'wrong answer' insurance and double-check answers if
and when they choose."*

Implemented here with HMAC-SHA256 over the canonical (encode, result)
handle pair:

* a :class:`Provider` evaluates Encodes and returns :class:`Attestation`s;
* :func:`verify` checks a statement against a provider's key;
* :class:`Auditor` re-runs each attested computation it observes on a
  second provider and flags disagreements - which, thanks to
  determinism, are proof of a wrong (or forged) answer.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable, List, Optional

from .errors import FixError
from .handle import Handle


class AttestationError(FixError):
    """Forged, malformed, or disproven statements."""


@dataclass(frozen=True)
class Attestation:
    """'Evaluating ``encode`` yields ``result``, according to ``provider``.'"""

    provider: str
    encode: Handle
    result: Handle
    signature: bytes

    def statement(self) -> bytes:
        return _statement(self.provider, self.encode, self.result)


def _statement(provider: str, encode: Handle, result: Handle) -> bytes:
    return b"fix-attest\x00" + provider.encode() + b"\x00" + encode.pack() + result.pack()


def sign(provider: str, key: bytes, encode: Handle, result: Handle) -> Attestation:
    signature = hmac.new(
        key, _statement(provider, encode, result), hashlib.sha256
    ).digest()
    return Attestation(provider, encode, result, signature)


def verify(attestation: Attestation, key: bytes) -> bool:
    expected = hmac.new(key, attestation.statement(), hashlib.sha256).digest()
    return hmac.compare_digest(expected, attestation.signature)


class Provider:
    """A named evaluation service that signs what it computes."""

    def __init__(self, name: str, key: bytes, evaluate: Callable[[Handle], Handle]):
        if not key:
            raise AttestationError("provider key must be non-empty")
        self.name = name
        self._key = key
        self._evaluate = evaluate

    def run(self, encode: Handle) -> Attestation:
        result = self._evaluate(encode)
        return sign(self.name, self._key, encode, result)


@dataclass
class AuditFinding:
    attestation: Attestation
    recomputed: Handle

    def __str__(self) -> str:
        return (
            f"provider {self.attestation.provider!r} claimed "
            f"{self.attestation.result!r}, recomputation says "
            f"{self.recomputed!r}"
        )


class Auditor:
    """Double-checks attested answers on an independent provider.

    Determinism makes disagreement decisive: one of the two is wrong, and
    the signed statement is the loser's liability ("wrong answer"
    insurance claims attach to it).
    """

    def __init__(self, reference: Provider):
        self.reference = reference
        self.findings: List[AuditFinding] = []
        self.checked = 0

    def observe(self, attestation: Attestation, key: bytes) -> Optional[AuditFinding]:
        """Verify the signature and recompute; returns a finding if bad."""
        if not verify(attestation, key):
            raise AttestationError(
                f"signature check failed for provider {attestation.provider!r}"
            )
        self.checked += 1
        reference_answer = self.reference.run(attestation.encode)
        if reference_answer.result != attestation.result:
            finding = AuditFinding(attestation, reference_answer.result)
            self.findings.append(finding)
            return finding
        return None
