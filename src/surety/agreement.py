"""Parties, structured agreements, canonical hashing, and binding tokens.

Every financially relevant action in the settlement machine is anchored to
the content hash of a structured agreement. Hashing goes through a canonical
binary encoding so that independent implementations produce identical
digests. The encoding is deliberately boring:

    magic          4 bytes  b"SJA1" (structured job agreement, layout 1)
    job_id         str
    task_spec      str
    assurance_mode str (enum value)
    fee.amount     u64
    fee.custody    str
    has_principal  u8 (0 or 1)
      principal.amount          u64   (present only if has_principal)
      principal.destination.id  str
      principal.destination.role str
    acceptance_criteria str
    deadlines.delivery  u64
    deadlines.claim     u64
    deadlines.dispute   u64
    premium_refund_policy str
    coverage_limit  u64
    collateral_policy str
    override_allowed u8

where `str` is a 4-byte big-endian length followed by UTF-8 bytes and `u64`
is an 8-byte big-endian unsigned integer. All money amounts are integer
minor units (cents); the simulator converts real values at this boundary by
rounding half up.

Signature tokens are keyed HMAC-SHA256 authenticators over the tuple
(job_id, agreement_hash). They stand in for real signatures: the machine
needs attributability and binding, not a particular cryptosystem.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .enums import SuretyEnum, decoder
from .errors import InvalidAgreement

__all__ = [
    "Role",
    "decode_role",
    "PartyRef",
    "AssuranceMode",
    "PremiumRefundPolicy",
    "CollateralPolicy",
    "FeeTerms",
    "PrincipalTerms",
    "terms_from_dict",
    "Deadlines",
    "StructuredAgreement",
    "canonical_bytes",
    "canonical_hash",
    "sign_binding",
    "verify_binding",
    "Keyring",
]


class Role(SuretyEnum):
    HUMAN_REQUESTOR = "human_requestor"
    ASSISTANT_REQUESTOR = "assistant_requestor"
    BUSINESS_AGENT = "business_agent"
    UNDERWRITER = "underwriter"
    EVALUATOR = "evaluator"
    SETTLEMENT = "settlement"


decode_role = decoder(Role)


@dataclass(frozen=True)
class PartyRef:
    """An attributable identity: opaque id plus declared role."""

    id: str
    role: Role

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidAgreement("party id must be a non-empty string")
        if not isinstance(self.role, Role):
            raise InvalidAgreement("party role must be a Role")


class AssuranceMode(SuretyEnum):
    FEE_ONLY = "fee_only"
    FUND_INVOLVING = "fund_involving"


class PremiumRefundPolicy(SuretyEnum):
    REFUNDABLE = "refundable"
    NON_REFUNDABLE = "non_refundable"


class CollateralPolicy(SuretyEnum):
    SLASH_UP_TO_LOSS = "slash_up_to_loss"
    NO_SLASH = "no_slash"


_decode_mode = decoder(AssuranceMode)
_decode_refund_policy = decoder(PremiumRefundPolicy)
_decode_collateral_policy = decoder(CollateralPolicy)


def _money(value: object, name: str, minimum: int = 0) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidAgreement(f"{name} must be an integer amount of minor units")
    if value < minimum:
        raise InvalidAgreement(f"{name} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class FeeTerms:
    """Service compensation held in escrow until evaluation settles it."""

    amount: int
    custody: str = "escrow"

    def __post_init__(self) -> None:
        _money(self.amount, "fee amount")
        if self.custody != "escrow":
            raise InvalidAgreement("fee custody must be 'escrow'")


@dataclass(frozen=True)
class PrincipalTerms:
    """Execution capital released before the outcome can be verified."""

    amount: int
    destination: PartyRef

    def __post_init__(self) -> None:
        _money(self.amount, "principal amount", minimum=1)
        if not isinstance(self.destination, PartyRef):
            raise InvalidAgreement("principal destination must be a PartyRef")


def _object(data: object, name: str, keys) -> dict:
    """``data``, if it is a JSON object holding no key outside ``keys``."""
    if not isinstance(data, dict):
        raise InvalidAgreement(f"{name} must be an object")
    unknown = data.keys() - keys
    if unknown:
        raise InvalidAgreement(f"unknown {name} fields: {sorted(unknown)}")
    return data


def terms_from_dict(fee: object, principal: object) -> tuple[FeeTerms, Optional[PrincipalTerms]]:
    """The fee and principal terms of a request or a draft, from their JSON objects.

    ``principal`` is None for a fee-only job. Unknown keys are rejected;
    anything that does not make valid terms raises InvalidAgreement.
    """
    try:
        fee_terms = FeeTerms(**_object(fee, "fee_terms", ("amount", "custody")))
        if principal is None:
            return fee_terms, None
        p = _object(principal, "principal_terms", ("amount", "destination"))
        dest = p["destination"]
        return fee_terms, PrincipalTerms(p["amount"], PartyRef(dest["id"], decode_role(dest["role"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAgreement(f"malformed terms: {exc}") from exc


@dataclass(frozen=True)
class Deadlines:
    """Integer timestamps; the machine never reads a wall clock."""

    delivery: int
    claim: int
    dispute: int

    def __post_init__(self) -> None:
        for name in ("delivery", "claim", "dispute"):
            _money(getattr(self, name), f"{name} deadline")
        if not (self.delivery <= self.claim <= self.dispute):
            raise InvalidAgreement("deadlines must satisfy delivery <= claim <= dispute")


@dataclass(frozen=True)
class StructuredAgreement:
    """The signed contract binding task, terms, policies, and windows.

    Invariants enforced at construction:

    * ``assurance_mode`` is FUND_INVOLVING exactly when ``principal_terms``
      is present.
    * ``coverage_limit`` never exceeds the principal amount, and is zero for
      fee-only jobs.
    * ``override_allowed`` records whether the requestor side may proceed
      past an underwriter rejection or a collateral refusal by explicit
      human acknowledgement.
    """

    job_id: str
    task_spec: str
    assurance_mode: AssuranceMode
    fee_terms: FeeTerms
    principal_terms: Optional[PrincipalTerms]
    acceptance_criteria: str
    deadlines: Deadlines
    premium_refund_policy: PremiumRefundPolicy = PremiumRefundPolicy.REFUNDABLE
    coverage_limit: int = 0
    collateral_policy: CollateralPolicy = CollateralPolicy.SLASH_UP_TO_LOSS
    override_allowed: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id:
            raise InvalidAgreement("job_id must be a non-empty string")
        if not isinstance(self.task_spec, str):
            raise InvalidAgreement("task_spec must be a string")
        if not isinstance(self.assurance_mode, AssuranceMode):
            raise InvalidAgreement("assurance_mode must be an AssuranceMode")
        if not isinstance(self.fee_terms, FeeTerms):
            raise InvalidAgreement("fee_terms must be FeeTerms")
        if not isinstance(self.acceptance_criteria, str):
            raise InvalidAgreement("acceptance_criteria must be a string descriptor")
        if not isinstance(self.deadlines, Deadlines):
            raise InvalidAgreement("deadlines must be Deadlines")
        if not isinstance(self.premium_refund_policy, PremiumRefundPolicy):
            raise InvalidAgreement("premium_refund_policy must be a PremiumRefundPolicy")
        if not isinstance(self.collateral_policy, CollateralPolicy):
            raise InvalidAgreement("collateral_policy must be a CollateralPolicy")
        if not isinstance(self.override_allowed, bool):
            raise InvalidAgreement("override_allowed must be a bool")
        _money(self.coverage_limit, "coverage_limit")
        fund = self.assurance_mode is AssuranceMode.FUND_INVOLVING
        if fund and self.principal_terms is None:
            raise InvalidAgreement("fund-involving agreement requires principal_terms")
        if not fund and self.principal_terms is not None:
            raise InvalidAgreement("fee-only agreement must not carry principal_terms")
        if fund:
            if not isinstance(self.principal_terms, PrincipalTerms):
                raise InvalidAgreement("principal_terms must be PrincipalTerms")
            if self.coverage_limit > self.principal_terms.amount:
                raise InvalidAgreement("coverage_limit must not exceed the principal")
        elif self.coverage_limit != 0:
            raise InvalidAgreement("fee-only agreement must have coverage_limit 0")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form used by config files and the scripted CLI."""
        out = {
            "job_id": self.job_id,
            "task_spec": self.task_spec,
            "assurance_mode": self.assurance_mode.value,
            "fee_terms": {"amount": self.fee_terms.amount, "custody": self.fee_terms.custody},
            "principal_terms": None,
            "acceptance_criteria": self.acceptance_criteria,
            "deadlines": {
                "delivery": self.deadlines.delivery,
                "claim": self.deadlines.claim,
                "dispute": self.deadlines.dispute,
            },
            "premium_refund_policy": self.premium_refund_policy.value,
            "coverage_limit": self.coverage_limit,
            "collateral_policy": self.collateral_policy.value,
            "override_allowed": self.override_allowed,
        }
        if self.principal_terms is not None:
            out["principal_terms"] = {
                "amount": self.principal_terms.amount,
                "destination": {
                    "id": self.principal_terms.destination.id,
                    "role": self.principal_terms.destination.role.value,
                },
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StructuredAgreement":
        """Inverse of :meth:`to_dict`. Key order in ``data`` is irrelevant."""
        _object(data, "agreement", _AGREEMENT_FIELDS)
        missing = _REQUIRED_AGREEMENT_FIELDS - data.keys()
        if missing:
            raise InvalidAgreement(f"missing agreement fields: {sorted(missing)}")
        fee_terms, principal = terms_from_dict(data["fee_terms"], data.get("principal_terms"))
        try:
            dl = data["deadlines"]
            deadlines = Deadlines(delivery=dl["delivery"], claim=dl["claim"], dispute=dl["dispute"])
            return cls(
                job_id=data["job_id"],
                task_spec=data["task_spec"],
                assurance_mode=_decode_mode(data["assurance_mode"]),
                fee_terms=fee_terms,
                principal_terms=principal,
                acceptance_criteria=data["acceptance_criteria"],
                deadlines=deadlines,
                premium_refund_policy=_decode_refund_policy(data["premium_refund_policy"]),
                coverage_limit=data["coverage_limit"],
                collateral_policy=_decode_collateral_policy(data["collateral_policy"]),
                override_allowed=data.get("override_allowed", True),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidAgreement(f"malformed agreement data: {exc}") from exc


# the keys of StructuredAgreement.to_dict, and those from_dict needs present
_AGREEMENT_FIELDS = frozenset(f.name for f in fields(StructuredAgreement))
_REQUIRED_AGREEMENT_FIELDS = _AGREEMENT_FIELDS - {"override_allowed", "principal_terms"}


# -- canonical encoding and hashing ---------------------------------------

_MAGIC = b"SJA1"
_U32 = struct.Struct(">I").pack
_U64 = struct.Struct(">Q").pack


def _str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32(len(raw)) + raw


def _u64(value: int) -> bytes:
    if value < 0 or value > 0xFFFFFFFFFFFFFFFF:
        raise InvalidAgreement("u64 field out of range")
    return _U64(value)


# every enum member's encoded `str` field, length prefix included
_ENUM_FIELDS = {
    member: _str(member._value_)
    for enum in (Role, AssuranceMode, PremiumRefundPolicy, CollateralPolicy)
    for member in enum
}


def canonical_bytes(agreement: StructuredAgreement) -> bytes:
    """Fixed-order, length-prefixed binary encoding (layout in module docs).

    One join over the fields, each encoded in layout order, so the first
    field that cannot be encoded is the one that raises: an amount or
    deadline outside u64 raises InvalidAgreement. An enum field is its
    member's encoding, made once at import.
    """
    if not isinstance(agreement, StructuredAgreement):
        raise InvalidAgreement("canonical_bytes expects a StructuredAgreement")
    principal, deadlines = agreement.principal_terms, agreement.deadlines
    return b"".join(
        (
            _MAGIC,
            _str(agreement.job_id),
            _str(agreement.task_spec),
            _ENUM_FIELDS[agreement.assurance_mode],
            _u64(agreement.fee_terms.amount),
            _str(agreement.fee_terms.custody),
            b"\x00"
            if principal is None
            else b"\x01" + _u64(principal.amount) + _str(principal.destination.id) + _ENUM_FIELDS[principal.destination.role],
            _str(agreement.acceptance_criteria),
            _u64(deadlines.delivery),
            _u64(deadlines.claim),
            _u64(deadlines.dispute),
            _ENUM_FIELDS[agreement.premium_refund_policy],
            _u64(agreement.coverage_limit),
            _ENUM_FIELDS[agreement.collateral_policy],
            b"\x01" if agreement.override_allowed else b"\x00",
        )
    )


def canonical_hash(agreement: StructuredAgreement) -> str:
    """SHA-256 of the canonical encoding, as lowercase hex."""
    return hashlib.sha256(canonical_bytes(agreement)).hexdigest()


# -- binding tokens --------------------------------------------------------


def _token(keyed: hmac.HMAC, job_id: str, agreement_hash: str) -> str:
    # The empty-hash subject covers pre-agreement actions such as an early
    # CancelJob, where no draft exists yet.
    job = job_id.encode("utf-8")
    mac = keyed.copy()
    mac.update(b"bind" + len(job).to_bytes(4, "big") + job + (bytes.fromhex(agreement_hash) if agreement_hash else b""))
    return mac.hexdigest()


def _token_matches(token: object, expected: Callable[..., str], *subject) -> bool:
    """Whether ``token`` equals ``expected(*subject)``, which runs only for a
    well-formed token: a token is hex, and compare_digest raises on a non-ASCII str."""
    return isinstance(token, str) and token.isascii() and hmac.compare_digest(expected(*subject), token)


def sign_binding(secret: bytes, job_id: str, agreement_hash: str) -> str:
    """HMAC-SHA256 token over (job_id, agreement_hash), as hex."""
    return _token(hmac.new(secret, digestmod=hashlib.sha256), job_id, agreement_hash)


def verify_binding(secret: bytes, job_id: str, agreement_hash: str, token: str) -> bool:
    return _token_matches(token, sign_binding, secret, job_id, agreement_hash)


class Keyring:
    """Per-party secret keys held by the harness that runs the machine.

    Each party's keyed HMAC-SHA256 object is built on first use and kept;
    a token is computed by feeding the subject to a copy of it, and equals
    ``sign_binding`` over the same secret. The keyring also remembers the
    last (job_id, agreement_hash, token) it computed for each party, so a
    harness that signs a subject and has the machine verify it again and
    again pays for one HMAC: a repeated ``verify`` is one ``compare_digest``.
    The memo holds one entry per party and is never consulted for any
    other subject.
    """

    def __init__(self, secrets: dict[str, bytes]):
        self._secrets = dict(secrets)
        self._keyed: dict[str, hmac.HMAC] = {}
        self._last: dict[str, tuple[str, str, str]] = {}  # party -> (job_id, agreement_hash, token)

    @classmethod
    def demo(cls, party_ids: list[str] | tuple[str, ...]) -> "Keyring":
        """Deterministic keys for tests and simulations. Not for real use."""
        return cls({pid: hashlib.sha256(b"demo-key:" + pid.encode("utf-8")).digest() for pid in party_ids})

    def has(self, party_id: str) -> bool:
        return party_id in self._secrets

    def secret(self, party_id: str) -> bytes:
        try:
            return self._secrets[party_id]
        except KeyError:
            raise KeyError(f"no key registered for party {party_id!r}") from None

    def _token_for(self, party_id: str, job_id: str, agreement_hash: str) -> str:
        # sign and verify both come here; verify must not call sign, which
        # a tracer may wrap as a span of its own
        last = self._last.get(party_id)
        if last is not None and last[0] == job_id and last[1] == agreement_hash:
            return last[2]
        keyed = self._keyed.get(party_id)
        if keyed is None:
            keyed = self._keyed[party_id] = hmac.new(self.secret(party_id), digestmod=hashlib.sha256)
        token = _token(keyed, job_id, agreement_hash)
        self._last[party_id] = (job_id, agreement_hash, token)
        return token

    def sign(self, party_id: str, job_id: str, agreement_hash: str) -> str:
        return self._token_for(party_id, job_id, agreement_hash)

    def verify(self, party_id: str, job_id: str, agreement_hash: str, token: str) -> bool:
        return party_id in self._secrets and _token_matches(token, self._token_for, party_id, job_id, agreement_hash)
