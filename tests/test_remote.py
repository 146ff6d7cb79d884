"""RemoteScorer contract tests against an in-process HTTP stub.

The stub wraps a local NGramScorer, so the remote path can be checked for
exact agreement with the in-process path, plus the failure modes a real
endpoint would produce: flaky 5xx, vocabulary mismatch, malformed payloads,
and timeouts.
"""

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import helpers
from passrecall.scorer import (
    NGramScorer,
    RemoteScorer,
    ScorerProtocolError,
    ScorerTransportError,
)

VOCAB_HASH = "a" * 64


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        server.request_count += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if server.fail_remaining > 0:
            server.fail_remaining -= 1
            self._reply(500, {"error": "transient"})
            return
        if server.delay:
            time.sleep(server.delay)
        if server.reply_with is not None:
            self._reply(200, server.reply_with)
            return
        if body.get("vocab_hash") != server.vocab_hash:
            self._reply(400, {"error": "vocabulary mismatch"})
            return
        cands = set(body["candidates"])
        answer = server.scorer.log_probs(body["context"], cands)
        log_probs = helpers.dense(answer, cands)
        payload = {str(token): value for token, value in log_probs.items()}
        if server.drop_one and payload:
            payload.pop(sorted(payload)[0])
        if server.inject_nan and payload:
            payload[sorted(payload)[0]] = float("nan")
        self._reply(200, {"logprobs": payload})

    def _reply(self, status, payload):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class Stub:
    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.scorer = NGramScorer.from_streams([[3, 4, 5, 3, 4, 6]])
        self.server.vocab_hash = VOCAB_HASH
        self.server.fail_remaining = 0
        self.server.delay = 0.0
        self.server.drop_one = False
        self.server.inject_nan = False
        self.server.reply_with = None
        self.server.request_count = 0
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/score"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    server = Stub()
    yield server
    server.close()


def make_client(stub_server, **kwargs):
    kwargs.setdefault("vocab_hash", VOCAB_HASH)
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("retries", 2)
    return RemoteScorer(stub_server.url, **kwargs)


def test_agrees_exactly_with_local_scorer(stub):
    client = make_client(stub)
    local = stub.server.scorer
    for context, cands in [([], {3, 4}), ([3], {4, 5, 6}), ([3, 4], {0, 5, 6})]:
        expected = helpers.dense(local.log_probs(context, cands), cands)
        assert client.log_probs(context, cands) == (expected, -math.inf)


def test_retries_through_transient_failures(stub):
    stub.server.fail_remaining = 2
    client = make_client(stub, retries=2)
    got = client.log_probs([3], {4, 5})
    expected = helpers.dense(stub.server.scorer.log_probs([3], {4, 5}), {4, 5})
    assert got == (expected, -math.inf)
    assert stub.server.request_count == 3


def test_transport_error_after_retry_budget(stub):
    stub.server.fail_remaining = 10
    client = make_client(stub, retries=1)
    with pytest.raises(ScorerTransportError, match="2 attempts"):
        client.log_probs([3], {4, 5})
    assert stub.server.request_count == 2


def test_vocab_mismatch_fails_fast(stub):
    client = make_client(stub, vocab_hash="b" * 64)
    with pytest.raises(ScorerProtocolError, match="mismatch"):
        client.log_probs([3], {4, 5})
    assert stub.server.request_count == 1


def test_missing_candidate_is_a_protocol_error(stub):
    stub.server.drop_one = True
    client = make_client(stub)
    with pytest.raises(ScorerProtocolError, match="no log-prob"):
        client.log_probs([3], {4, 5})


def test_nan_is_a_protocol_error(stub):
    stub.server.inject_nan = True
    client = make_client(stub)
    with pytest.raises(ScorerProtocolError, match="out of range"):
        client.log_probs([3], {4, 5})


@pytest.mark.parametrize(
    "reply",
    [
        [1, 2],
        {"logprobs": {"4": "abc", "5": -1.0}},
        {"logprobs": {"4": [1], "5": -1.0}},
        {"logprobs": {"4": False, "5": -1.0}},
        {"logprobs": {"4": "-1.5", "5": -1.0}},
        # An integer beyond float range: float() and math.isnan overflow on it.
        {"logprobs": {"4": -int("9" * 400), "5": -1.0}},
    ],
    ids=[
        "body-not-object",
        "non-numeric",
        "not-scalar",
        "boolean",
        "numeric-string",
        "huge-integer",
    ],
)
def test_malformed_reply_is_a_protocol_error(stub, reply):
    stub.server.reply_with = reply
    client = make_client(stub)
    with pytest.raises(ScorerProtocolError):
        client.log_probs([3], {4, 5})


def test_unreachable_endpoint_is_a_transport_error():
    client = RemoteScorer(
        "http://127.0.0.1:9/score", vocab_hash=VOCAB_HASH, timeout=0.2, retries=1
    )
    with pytest.raises(ScorerTransportError):
        client.log_probs([3], {4, 5})


def test_timeout_is_a_transport_error(stub):
    stub.server.delay = 1.0
    client = make_client(stub, timeout=0.1, retries=0)
    with pytest.raises(ScorerTransportError):
        client.log_probs([3], {4, 5})


@pytest.mark.parametrize(
    "setting",
    [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"retries": -1},
        {"retries": 1.5},
    ],
    ids=[
        "timeout-0",
        "timeout-negative",
        "timeout-nan",
        "timeout-inf",
        "retries-negative",
        "retries-fractional",
    ],
)
def test_bad_setting_rejected_when_made(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        RemoteScorer("http://127.0.0.1:9/score", VOCAB_HASH, **setting)


def test_empty_candidates_rejected_before_any_request(stub):
    client = make_client(stub)
    with pytest.raises(ValueError, match="nonempty"):
        client.log_probs([3], set())
    assert stub.server.request_count == 0


def test_concurrent_calls_are_safe(stub):
    client = make_client(stub)
    local = stub.server.scorer
    cands = {4, 5, 6}
    expected = (helpers.dense(local.log_probs([3], cands), cands), -math.inf)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: client.log_probs([3], cands), range(32)))
    assert all(r == expected for r in results)
