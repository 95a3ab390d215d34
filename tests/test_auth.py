"""Authentication tests: negotiation, tokens, and the PSK protocol."""

import base64
import binascii
import hashlib
import hmac
import itertools
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from usp.auth import (
    AuthHandle,
    AuthMethod,
    AuthProtocolError,
    AuthStatus,
    ApplicationMismatch,
    BadSignature,
    Credentials,
    IdentityToken,
    NonceCache,
    TokenError,
    TokenExpired,
    TokenMalformed,
    decode_token,
    issue_token,
    load_psk_store,
    make_registry,
    negotiate,
    peek_token_identity,
    psk_protocol,
    validate_token,
)

SECRET = b"0123456789abcdef0123456789abcdef"
T0 = 1_700_000_000.0


def clock_at(t):
    return lambda: t


def make_token(identity="alice", application="echo", ttl=3600, at=T0, secret=SECRET, seed=0):
    return issue_token(identity, application, ttl, clock_at(at), secret, random.Random(seed))


# --- negotiation ---


def test_negotiate_server_preference_wins():
    assert negotiate(["x509", "psk"], ["psk", "x509"]) == "psk"


def test_negotiate_empty_offer():
    assert negotiate([], ["psk"]) is None


def test_negotiate_singleton():
    assert negotiate(["psk"], ["psk"]) == "psk"


def _ordered_subsets(alphabet, max_size):
    for size in range(max_size + 1):
        yield from itertools.permutations(alphabet, size)


def test_negotiate_matches_brute_force_oracle():
    """Against every ordered pair of subsets of a 3-name alphabet."""
    alphabet = ("a", "b", "c")
    for offered in _ordered_subsets(alphabet, 3):
        for supported in _ordered_subsets(alphabet, 3):
            # The oracle: walk server preferences, take the first offered one.
            expected = None
            for name in supported:
                if name in offered:
                    expected = name
                    break
            assert negotiate(offered, supported) == expected


def test_negotiate_invariant_under_client_permutation():
    supported = ("a", "c", "d")
    offered = ("d", "b", "c")
    results = {negotiate(p, supported) for p in itertools.permutations(offered)}
    assert results == {"c"}


# --- identity tokens ---


def test_issue_sets_expiry_from_ttl():
    token = make_token(ttl=3600, at=T0)
    assert token.expires_at == token.issued_at + 3600
    assert token.issued_at == int(T0)


def test_issue_validate_round_trip():
    encoded = make_token().encode()
    ctx = validate_token(encoded, "echo", clock_at(T0 + 1), SECRET)
    assert ctx.identity == "alice"
    assert ctx.application == "echo"
    assert ctx.method is AuthMethod.TOKEN


def test_validate_past_ttl_is_expired():
    encoded = make_token(ttl=3600).encode()
    with pytest.raises(TokenExpired):
        validate_token(encoded, "echo", clock_at(T0 + 3601), SECRET)


def test_validate_exactly_at_expiry_is_expired():
    encoded = make_token(ttl=3600).encode()
    with pytest.raises(TokenExpired):
        validate_token(encoded, "echo", clock_at(int(T0) + 3600), SECRET)


def test_validate_just_inside_ttl_is_valid():
    encoded = make_token(ttl=3600).encode()
    assert validate_token(encoded, "echo", clock_at(int(T0) + 3599), SECRET).identity == "alice"


def test_application_mismatch():
    encoded = make_token(application="echo").encode()
    with pytest.raises(ApplicationMismatch):
        validate_token(encoded, "http", clock_at(T0 + 1), SECRET)


def test_flipped_signature_byte_is_rejected():
    raw = bytearray(base64.urlsafe_b64decode(make_token().encode()))
    raw[-1] ^= 0x01
    tampered = base64.urlsafe_b64encode(bytes(raw)).decode()
    with pytest.raises(BadSignature):
        validate_token(tampered, "echo", clock_at(T0 + 1), SECRET)


def test_tampered_record_is_rejected():
    # Rewrite the embedded application from echo to http; the signature
    # covers the record, so this must fail even though the shape is fine.
    token = make_token(application="echo")
    forged = base64.urlsafe_b64encode(
        struct.pack(">H", len(b"alice"))
        + b"alice"
        + struct.pack(">H", len(b"http"))
        + b"http"
        + struct.pack(">QQ", token.issued_at, token.expires_at)
        + token.nonce
        + token.signature
    ).decode()
    with pytest.raises(BadSignature):
        validate_token(forged, "http", clock_at(T0 + 1), SECRET)


def test_wrong_secret_is_rejected():
    encoded = make_token().encode()
    with pytest.raises(BadSignature):
        validate_token(encoded, "echo", clock_at(T0 + 1), b"a different secret")


def test_empty_string_is_malformed():
    with pytest.raises(TokenMalformed):
        validate_token("", "echo", clock_at(T0), SECRET)


def test_signature_matches_independent_hmac():
    """Rebuild the documented record layout by hand and recompute the HMAC."""
    token = make_token(identity="carol", application="files", ttl=60)
    record = (
        struct.pack(">H", 5)
        + b"carol"
        + struct.pack(">H", 5)
        + b"files"
        + struct.pack(">QQ", int(T0), int(T0) + 60)
        + token.nonce
    )
    assert token.signature == hmac.new(SECRET, record, hashlib.sha256).digest()
    # And the encoded form is exactly base64url(record + signature).
    assert token.encode() == base64.urlsafe_b64encode(record + token.signature).decode()


def test_decode_token_round_trip():
    token = make_token()
    assert decode_token(token.encode()) == token


def test_peek_token_identity():
    assert peek_token_identity(make_token(identity="dave").encode()) == "dave"
    assert peek_token_identity("garbage") is None


def test_issue_rejects_bad_inputs():
    with pytest.raises(ValueError):
        issue_token("", "echo", 10, clock_at(T0), SECRET, random.Random(0))
    with pytest.raises(ValueError):
        issue_token("a", "echo", 0, clock_at(T0), SECRET, random.Random(0))
    # Inputs the record's u64 times and u16 name lengths cannot hold.
    too_long = "é" * 32768  # 65 536 UTF-8 bytes
    for identity, application, ttl, now in [
        ("a", "echo", 2**64, T0),
        ("a", "echo", 10, -5.0),
        ("a", "echo", 10, 2.0**64),
        (too_long, "echo", 10, T0),
        ("a", too_long, 10, T0),
    ]:
        with pytest.raises(ValueError):
            issue_token(identity, application, ttl, clock_at(now), SECRET, random.Random(0))


def _reference_decode_token(token):
    """decode_token as first written, with a cursor closure: the oracle."""
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
    except (binascii.Error, UnicodeEncodeError, ValueError):
        raise TokenMalformed("not base64") from None
    cursor = 0

    def take(n):
        nonlocal cursor
        if cursor + n > len(raw):
            raise TokenMalformed("record too short")
        piece = raw[cursor : cursor + n]
        cursor += n
        return piece

    (ident_len,) = struct.unpack(">H", take(2))
    try:
        identity = take(ident_len).decode("utf-8")
    except UnicodeDecodeError:
        raise TokenMalformed("identity is not UTF-8") from None
    (app_len,) = struct.unpack(">H", take(2))
    try:
        application = take(app_len).decode("utf-8")
    except UnicodeDecodeError:
        raise TokenMalformed("application is not UTF-8") from None
    issued_at, expires_at = struct.unpack(">QQ", take(16))
    nonce = take(16)
    signature = take(32)
    if cursor != len(raw):
        raise TokenMalformed("trailing bytes in record")
    if not identity:
        raise TokenMalformed("identity is empty")
    if expires_at <= issued_at:
        raise TokenMalformed("expiry not after issuance")
    return IdentityToken(identity, application, issued_at, expires_at, nonce, signature)


def _decode_outcome(decode, token):
    try:
        return decode(token)
    except TokenError as exc:
        return type(exc), str(exc)


_field = st.one_of(st.text(max_size=6).map(lambda t: t.encode("utf-8")), st.binary(max_size=6))
_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_record = st.builds(
    lambda ident, app, times, tail: (
        struct.pack(">H", len(ident)) + ident + struct.pack(">H", len(app)) + app
        + struct.pack(">QQ", *times) + tail
    ),
    _field,
    _field,
    st.tuples(_u64, _u64),
    st.binary(min_size=40, max_size=56),
)


@given(_record, st.data())
def test_decode_token_matches_reference_on_records(record, data):
    # Cut anywhere, then maybe append garbage: truncated, exact and
    # overlong records all occur.
    cut = data.draw(st.integers(min_value=0, max_value=len(record)))
    raw = record[:cut] + data.draw(st.binary(max_size=8))
    token = base64.urlsafe_b64encode(raw).decode("ascii")
    assert _decode_outcome(decode_token, token) == _decode_outcome(_reference_decode_token, token)


@given(st.one_of(st.text(max_size=40), st.binary(max_size=80).map(
    lambda raw: base64.urlsafe_b64encode(raw).decode("ascii"))))
def test_decode_token_matches_reference_on_any_text(token):
    assert _decode_outcome(decode_token, token) == _decode_outcome(_reference_decode_token, token)


def test_decode_token_matches_reference_on_every_prefix():
    raw = base64.urlsafe_b64decode(make_token(identity="aü", application="app").encode())
    for cut in range(len(raw) + 1):
        for tail in (b"", b"\x00"):
            token = base64.urlsafe_b64encode(raw[:cut] + tail).decode("ascii")
            assert _decode_outcome(decode_token, token) == _decode_outcome(
                _reference_decode_token, token
            )


@given(st.text(max_size=80))
def test_validate_is_total_on_arbitrary_text(text):
    try:
        validate_token(text, "echo", clock_at(T0), SECRET)
    except TokenError:
        pass


_name_st = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=16
)


@given(
    identity=_name_st,
    application=_name_st,
    ttl=st.integers(min_value=1, max_value=10_000_000),
    offset=st.integers(min_value=0, max_value=20_000_000),
)
def test_ttl_window_is_strict_for_any_token(identity, application, ttl, offset):
    """Valid strictly inside [issued_at, expires_at), dead at and beyond."""
    encoded = issue_token(
        identity, application, ttl, clock_at(T0), SECRET, random.Random(0)
    ).encode()
    probe = clock_at(int(T0) + offset)
    if offset < ttl:
        ctx = validate_token(encoded, application, probe, SECRET)
        assert ctx.identity == identity
    else:
        with pytest.raises(TokenExpired):
            validate_token(encoded, application, probe, SECRET)


def test_random_strings_never_validate():
    rng = random.Random(7)
    printable = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_="
    for _ in range(2000):
        candidate = "".join(rng.choice(printable) for _ in range(64))
        with pytest.raises(TokenError):
            validate_token(candidate, "echo", clock_at(T0), SECRET)


def test_nonce_cache_first_use_only():
    cache = NonceCache()
    assert cache.first_use(b"n1")
    assert not cache.first_use(b"n1")
    assert cache.first_use(b"n2")


# --- PSK challenge-response ---


def run_loopback(server_secrets, identity, key, seed=0):
    """Drive both sides of psk-cr directly, byte for byte."""
    proto = psk_protocol(server_secrets)
    server = proto.server(random.Random(seed))
    client = proto.client(Credentials(identity, key))

    challenge = server.step(None)
    assert challenge.status is AuthStatus.PENDING
    assert challenge.outgoing is not None and len(challenge.outgoing) == 32

    opening = client.step(None)
    assert opening.status is AuthStatus.PENDING and opening.outgoing is None

    response = client.step(challenge.outgoing)
    verdict = server.step(response.outgoing)
    return response, verdict


def test_psk_loopback_success():
    key = b"k" * 16
    response, verdict = run_loopback({"alice": key}, "alice", key)
    assert response.status is AuthStatus.SUCCESS and response.identity == "alice"
    assert verdict.status is AuthStatus.SUCCESS and verdict.identity == "alice"


def test_psk_single_bit_key_difference_fails():
    key = bytes([0x10] * 16)
    bad = bytes([0x11]) + key[1:]
    _, verdict = run_loopback({"alice": key}, "alice", bad)
    assert verdict.status is AuthStatus.FAIL
    assert verdict.reason == "bad response"


def test_psk_unknown_identity_fails():
    _, verdict = run_loopback({"alice": b"k" * 16}, "mallory", b"k" * 16)
    assert verdict.status is AuthStatus.FAIL
    assert verdict.reason == "unknown identity"


def test_psk_rejection_costs_one_hmac_whether_or_not_the_identity_exists(monkeypatch):
    def server_digests(identity, key):
        server = psk_protocol({"alice": b"k" * 16}).server(random.Random(0))
        client = psk_protocol().client(Credentials(identity, key))
        client.step(None)
        response = client.step(server.step(None).outgoing).outgoing
        calls = []
        real = hmac.digest
        with monkeypatch.context() as patch:
            patch.setattr(hmac, "digest", lambda *args: calls.append(1) or real(*args))
            verdict = server.step(response)
        assert verdict.status is AuthStatus.FAIL
        return len(calls)

    assert server_digests("mallory", b"k" * 16) == server_digests("alice", b"w" * 16) == 1


def test_psk_unknown_identity_fails_even_with_the_dummy_key_mac():
    # An unknown identity is checked against an all-zero dummy key; a MAC
    # made under that key must not let it in.
    _, verdict = run_loopback({"alice": b"k" * 16}, "mallory", bytes(32))
    assert verdict.status is AuthStatus.FAIL
    assert verdict.reason == "unknown identity"


def test_psk_challenge_is_deterministic_under_seeded_rng():
    proto = psk_protocol({"alice": b"k"})
    first = proto.server(random.Random(9)).step(None)
    second = proto.server(random.Random(9)).step(None)
    assert first.outgoing == second.outgoing


def test_credentials_reject_an_empty_identity():
    # Refused before anything is dialed: no run could succeed with it.
    with pytest.raises(ValueError, match="identity is empty"):
        Credentials("", b"k" * 16)


def test_psk_client_without_credentials_fails():
    proto = psk_protocol()
    handle = proto.client(None)
    step = handle.step(None)
    assert step.status is AuthStatus.FAIL
    assert step.reason == "no credentials"


def test_psk_malformed_response_fails():
    proto = psk_protocol({"alice": b"k"})
    server = proto.server(random.Random(0))
    server.step(None)
    assert server.step(b"short").status is AuthStatus.FAIL


def test_step_after_terminal_raises():
    proto = psk_protocol({"alice": b"k"})
    server = proto.server(random.Random(0))
    server.step(None)
    server.step(b"x" * 40)  # terminal (fail)
    with pytest.raises(AuthProtocolError):
        server.step(b"again")


def test_round_overflow_guard():
    class Staller(AuthHandle):
        def _advance(self, incoming):
            from usp.auth import AuthStep

            return AuthStep(status=AuthStatus.PENDING)

    handle = Staller(max_rounds=2)
    assert handle.step(None).status is AuthStatus.PENDING
    assert handle.step(None).status is AuthStatus.PENDING
    overflow = handle.step(None)
    assert overflow.status is AuthStatus.FAIL
    assert overflow.reason == "round overflow"


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        make_registry(psk_protocol(), psk_protocol())


def test_load_psk_store(tmp_path):
    path = tmp_path / "psks.json"
    path.write_text('{"alice": "00ff", "bob": "a1b2c3"}')
    store = load_psk_store(path)
    assert store == {"alice": b"\x00\xff", "bob": b"\xa1\xb2\xc3"}


def test_load_psk_store_rejects_bad_shapes(tmp_path):
    path = tmp_path / "psks.json"
    path.write_text('["nope"]')
    with pytest.raises(ValueError):
        load_psk_store(path)
