"""Agreement structure, canonical hashing, and binding tokens."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from surety import (
    AssuranceMode,
    CollateralPolicy,
    Deadlines,
    FeeTerms,
    InvalidAgreement,
    Keyring,
    PartyRef,
    PremiumRefundPolicy,
    PrincipalTerms,
    Role,
    StructuredAgreement,
    canonical_bytes,
    canonical_hash,
    sign_binding,
    verify_binding,
)

from surety import agreement as agreement_module

from conftest import MERCHANT, build_agreement


def test_canonical_hash_is_deterministic():
    a = build_agreement()
    b = build_agreement()
    assert a == b
    assert canonical_hash(a) == canonical_hash(b)
    assert len(canonical_hash(a)) == 64


def test_hash_survives_dict_round_trip_in_any_key_order():
    a = build_agreement()
    data = a.to_dict()
    shuffled = dict(reversed(list(data.items())))
    b = StructuredAgreement.from_dict(shuffled)
    assert canonical_hash(a) == canonical_hash(b)


@pytest.mark.parametrize(
    "change",
    [
        {"job_id": "job-8"},
        {"task_spec": "procure two dataset licenses"},
        {"acceptance_criteria": "different criteria"},
        {"coverage_limit": 999},
        {"override_allowed": False},
        {"premium_refund_policy": PremiumRefundPolicy.NON_REFUNDABLE},
        {"collateral_policy": CollateralPolicy.NO_SLASH},
        {"deadlines": Deadlines(delivery=101, claim=200, dispute=300)},
        {"fee_terms": FeeTerms(201)},
    ],
)
def test_any_field_change_changes_the_hash(change):
    a = build_agreement()
    b = dataclasses.replace(a, **change)
    assert canonical_hash(a) != canonical_hash(b)


def test_canonical_hash_is_pinned():
    # the encoding is a wire format: these digests must never move
    fund = build_agreement()
    fee_only = dataclasses.replace(
        build_agreement(
            job_id="job-ü",
            principal=None,
            override_allowed=False,
            refund_policy=PremiumRefundPolicy.NON_REFUNDABLE,
            collateral_policy=CollateralPolicy.NO_SLASH,
            deadlines=Deadlines(0, 2**63, 2**64 - 1),
        ),
        task_spec="procure one dataset licence — ünïcode",
    )
    assert canonical_hash(fund) == "78b6445b3810b1acb73a908f1e9ba197b893619cf156f33338ceb730754b8ac6"
    assert canonical_hash(fee_only) == "8340d6c3c0fe30f046a534d799c7000723967a18f048a6aa27afeb171ab9034b"
    assert len(canonical_bytes(fee_only)) == 188


def test_a_u64_field_out_of_range_is_an_invalid_agreement():
    too_late = dataclasses.replace(build_agreement(), deadlines=Deadlines(1, 2, 2**64))
    with pytest.raises(InvalidAgreement, match="^u64 field out of range$"):
        canonical_bytes(too_late)
    # the fields are checked in layout order: the fee amount comes before
    # the acceptance criteria, whose lone surrogate UTF-8 cannot encode
    doubly_malformed = dataclasses.replace(build_agreement(), fee_terms=FeeTerms(2**64), acceptance_criteria="\ud800")
    with pytest.raises(InvalidAgreement, match="^u64 field out of range$"):
        canonical_bytes(doubly_malformed)
    surrogate_first = dataclasses.replace(doubly_malformed, job_id="\ud800")
    with pytest.raises(UnicodeEncodeError):
        canonical_bytes(surrogate_first)


def test_encoding_is_prefix_free_against_string_shuffles():
    # moving a character across adjacent string fields must not collide,
    # which is the point of length-prefixed encoding
    a = dataclasses.replace(build_agreement(), job_id="jobx", task_spec="ab")
    b = dataclasses.replace(build_agreement(), job_id="job", task_spec="xab")
    assert canonical_bytes(a) != canonical_bytes(b)
    assert canonical_hash(a) != canonical_hash(b)


def test_fee_only_agreement_rejects_principal_and_limit():
    with pytest.raises(InvalidAgreement):
        StructuredAgreement(
            job_id="j",
            task_spec="t",
            assurance_mode=AssuranceMode.FEE_ONLY,
            fee_terms=FeeTerms(0),
            principal_terms=None,
            acceptance_criteria="c",
            deadlines=Deadlines(1, 2, 3),
            coverage_limit=5,
        )
    with pytest.raises(InvalidAgreement):
        StructuredAgreement(
            job_id="j",
            task_spec="t",
            assurance_mode=AssuranceMode.FEE_ONLY,
            fee_terms=FeeTerms(0),
            principal_terms=PrincipalTerms(10, PartyRef(MERCHANT, Role.BUSINESS_AGENT)),
            acceptance_criteria="c",
            deadlines=Deadlines(1, 2, 3),
        )


def test_fund_agreement_requires_principal_and_caps_limit():
    with pytest.raises(InvalidAgreement):
        StructuredAgreement(
            job_id="j",
            task_spec="t",
            assurance_mode=AssuranceMode.FUND_INVOLVING,
            fee_terms=FeeTerms(0),
            principal_terms=None,
            acceptance_criteria="c",
            deadlines=Deadlines(1, 2, 3),
        )
    with pytest.raises(InvalidAgreement):
        build_agreement(principal=1000, coverage_limit=1001)


def test_money_fields_reject_floats_bools_and_negatives():
    with pytest.raises(InvalidAgreement):
        FeeTerms(2.0)
    with pytest.raises(InvalidAgreement):
        FeeTerms(True)
    with pytest.raises(InvalidAgreement):
        FeeTerms(-1)
    with pytest.raises(InvalidAgreement):
        PrincipalTerms(0, PartyRef(MERCHANT, Role.BUSINESS_AGENT))


def test_deadlines_must_be_ordered():
    with pytest.raises(InvalidAgreement):
        Deadlines(delivery=10, claim=5, dispute=20)
    with pytest.raises(InvalidAgreement):
        Deadlines(delivery=10, claim=20, dispute=15)


def test_from_dict_rejects_unknown_and_missing_fields():
    data = build_agreement().to_dict()
    with pytest.raises(InvalidAgreement):
        StructuredAgreement.from_dict({**data, "extra": 1})
    data.pop("task_spec")
    with pytest.raises(InvalidAgreement):
        StructuredAgreement.from_dict(data)


# -- binding tokens ---------------------------------------------------------


def test_token_round_trip_and_forgery_rejection():
    ring = Keyring.demo(["alice", "bob"])
    h = canonical_hash(build_agreement())
    token = ring.sign("alice", "job-7", h)
    assert ring.verify("alice", "job-7", h, token)
    # wrong party, wrong job, wrong hash, wrong key, tampered token
    assert not ring.verify("bob", "job-7", h, token)
    assert not ring.verify("alice", "job-8", h, token)
    assert not ring.verify("alice", "job-7", canonical_hash(build_agreement(job_id="job-8")), token)
    assert not ring.verify("mallory", "job-7", h, token)
    tampered = ("0" if token[0] != "0" else "1") + token[1:]
    assert not ring.verify("alice", "job-7", h, tampered)
    assert not ring.verify("alice", "job-7", h, None)
    # a non-ASCII token is a forgery too, not an error
    assert not ring.verify("alice", "job-7", h, "é" + token[1:])
    assert not verify_binding(ring.secret("alice"), "job-7", h, "é" + token[1:])


def test_empty_hash_subject_is_distinct():
    secret = b"k" * 32
    t_empty = sign_binding(secret, "job-7", "")
    t_hash = sign_binding(secret, "job-7", canonical_hash(build_agreement()))
    assert t_empty != t_hash
    assert verify_binding(secret, "job-7", "", t_empty)
    assert not verify_binding(secret, "job-7", "", t_hash)


@given(
    job_a=st.text(min_size=1, max_size=20),
    job_b=st.text(min_size=1, max_size=20),
)
def test_tokens_never_transfer_across_jobs(job_a, job_b):
    secret = b"s" * 16
    token = sign_binding(secret, job_a, "")
    assert verify_binding(secret, job_b, "", token) == (job_a == job_b)


@given(
    party=st.text(min_size=1, max_size=12),
    job_id=st.text(max_size=20),
    agreement_hash=st.binary(max_size=32).map(bytes.hex),
)
def test_keyring_tokens_equal_sign_binding(party, job_id, agreement_hash):
    other = party + "-other"
    ring = Keyring.demo([party, other])
    token = ring.sign(party, job_id, agreement_hash)
    assert token == sign_binding(ring.secret(party), job_id, agreement_hash)
    # the kept keyed object is copied, never fed: the next token is the same
    assert ring.sign(other, job_id, agreement_hash) == sign_binding(ring.secret(other), job_id, agreement_hash)
    assert ring.sign(party, job_id, agreement_hash) == token
    assert ring.verify(party, job_id, agreement_hash, token)
    tampered = token[:-1] + ("0" if token[-1] != "0" else "1")
    assert not ring.verify(party, job_id, agreement_hash, tampered)
    assert not ring.verify(party, job_id, agreement_hash, ring.sign(other, job_id, agreement_hash))
    assert not ring.verify(party, job_id, agreement_hash, token.encode())


def test_keyring_memo_answers_as_verify_binding_in_any_interleaving(monkeypatch):
    parties = ["alice", "bob", "carol"]
    ring = Keyring.demo(parties)
    h = canonical_hash(build_agreement())
    subjects = [(job, agreement_hash) for job in ("job-1", "job-2") for agreement_hash in ("", h)]
    tokens = {(p, job, ah): sign_binding(ring.secret(p), job, ah) for p in parties for job, ah in subjects}
    assert len(set(tokens.values())) == len(tokens)
    rng = random.Random(18)
    for _ in range(600):
        party = rng.choice(parties)
        job, ah = rng.choice(subjects)
        if rng.random() < 0.3:
            assert ring.sign(party, job, ah) == tokens[party, job, ah]
        else:
            presented = rng.choice(list(tokens.values()))
            assert ring.verify(party, job, ah, presented) == verify_binding(ring.secret(party), job, ah, presented)

    # a repeated verify of the subject just signed computes no HMAC ...
    calls = []
    token = agreement_module._token

    def counting_token(*args):
        calls.append(args[1:])
        return token(*args)

    monkeypatch.setattr(agreement_module, "_token", counting_token)
    genuine = ring.sign("alice", "job-1", h)
    signed = len(calls)
    assert ring.verify("alice", "job-1", h, genuine) and ring.verify("alice", "job-1", h, genuine)
    assert len(calls) == signed
    # ... and after that hit, a token for any other job, hash or party is refused
    for key, other in tokens.items():
        if key != ("alice", "job-1", h):
            assert not ring.verify("alice", "job-1", h, other)
    assert ring.verify("bob", "job-1", h, tokens["bob", "job-1", h])
    assert not ring.verify("alice", "job-1", "", genuine)
    assert not ring.verify("alice", "job-2", h, genuine)
    assert not ring.verify("bob", "job-1", h, genuine)
    # the memo changes none of the malformed answers
    assert not ring.verify("mallory", "job-1", h, genuine)
    assert not ring.verify("alice", "job-1", h, "é" + genuine[1:])
    assert not ring.verify("alice", "job-1", h, genuine.encode())
    with pytest.raises(KeyError, match="mallory"):
        ring.sign("mallory", "job-1", h)
