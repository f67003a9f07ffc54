import http.client
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import litrag.embedding as embedding_mod
from litrag.chain import chat_completion
from litrag.config import default_config
from litrag.embedding import (
    EmbeddingConfig,
    EmbeddingVector,
    TokenizerConfig,
    embed_texts,
    post_json,
    token_count,
)
from litrag.errors import (
    ChatServiceFailed,
    DimensionMismatch,
    InvalidParams,
    PartialFailure,
    ServiceUnreachable,
)
from litrag.testing import StubChatService, StubEmbeddingService, StubTokenizerService


@pytest.fixture(autouse=True)
def fast_retry(monkeypatch):
    monkeypatch.setattr(embedding_mod, "_RETRY_BASE_S", 0.01)


def _config(svc, **kwargs):
    defaults = dict(endpoint_url=svc.url, expected_dim=svc.dim)
    defaults.update(kwargs)
    return EmbeddingConfig(**defaults)


# --- EmbeddingVector -------------------------------------------------------


def test_vector_dim_and_finiteness():
    vec = EmbeddingVector((1.0, 2.0, 3.0))
    assert vec.dim == 3
    with pytest.raises(ValueError):
        EmbeddingVector((1.0, float("nan")))
    with pytest.raises(ValueError):
        EmbeddingVector((float("inf"),))
    with pytest.raises(ValueError, match="must be finite"):
        EmbeddingVector((10**400, 1.0))  # an integer beyond every float


# --- token_count ---------------------------------------------------------------


def test_token_count_heuristic_examples():
    tok = TokenizerConfig(chars_per_token=4.0)
    assert token_count("abcdefgh", tok) == 2
    assert token_count("", tok) == 0


def test_token_count_one_char_per_token_matches_llm_ratio():
    tok = TokenizerConfig(chars_per_token=1.0)
    count = token_count("x" * 1600, tok)
    assert count == 1600
    assert 100 * count / 4096 == pytest.approx(39.0625)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=500), st.text(max_size=100))
def test_token_count_monotone_in_length(a, b):
    tok = TokenizerConfig(chars_per_token=4.0)
    assert token_count(a + b, tok) >= token_count(a, tok)


def test_external_tokenizer_endpoint():
    with StubTokenizerService(chars_per_token=2.0) as svc:
        tok = TokenizerConfig(mode="external", external_url=svc.url)
        assert token_count("abcdef", tok) == 3
        assert svc.requests[0]["input"] == "abcdef"


def test_external_tokenizer_unreachable():
    tok = TokenizerConfig(mode="external", external_url="http://127.0.0.1:1/none")
    with pytest.raises(ServiceUnreachable):
        token_count("text", tok)


@pytest.mark.parametrize(
    "reply", [{"n": 3}, {"count": -1}, {"count": 2.5}, {"count": "3"}, {"count": True}, [3]]
)
def test_external_tokenizer_rejects_a_reply_without_a_count(reply):
    class OddTokenizer(StubTokenizerService):
        def handle_payload(self, payload):
            super().handle_payload(payload)
            return 200, reply

    with OddTokenizer() as svc:
        tok = TokenizerConfig(mode="external", external_url=svc.url)
        with pytest.raises(ServiceUnreachable):
            token_count("text", tok)
        assert len(svc.requests) == 1


def test_tokenizer_config_validation():
    with pytest.raises(ValueError):
        TokenizerConfig(chars_per_token=0)
    with pytest.raises(ValueError):
        TokenizerConfig(mode="external", external_url="http://x", chars_per_token=0)
    with pytest.raises(ValueError):
        TokenizerConfig(mode="external")
    with pytest.raises(ValueError):
        TokenizerConfig(mode="bogus")


# --- embed_texts ------------------------------------------------------------------


def test_single_text_returns_expected_dimension():
    with StubEmbeddingService(dim=768) as svc:
        rows = embed_texts(["hello world"], _config(svc))
        assert rows.shape == (1, 768) and rows.dtype == np.float64


def test_empty_input_rejected():
    with StubEmbeddingService(dim=8) as svc:
        with pytest.raises(ValueError):
            embed_texts([], _config(svc))


def test_batching_request_count_and_order():
    with StubEmbeddingService(dim=16) as svc:
        texts = [f"text number {i}" for i in range(10)]
        rows = embed_texts(texts, _config(svc, batch_size=4))
        assert len(svc.requests) == 3
        assert [len(r["input"]) for r in sorted(svc.requests, key=lambda r: r["input"][0])] in (
            [4, 4, 2],
            [2, 4, 4],
            [4, 2, 4],
        )
        # order preservation: row i is the deterministic embedding of text i
        from litrag.testing import deterministic_embedding

        assert rows.shape == (10, 16)
        for text, row in zip(texts, rows):
            assert list(row) == pytest.approx(deterministic_embedding(text, 16))


def test_parallelism_is_bounded():
    with StubEmbeddingService(dim=8, latency_s=0.05) as svc:
        texts = [f"t{i}" for i in range(12)]
        embed_texts(texts, _config(svc, batch_size=1, max_parallel_requests=3))
        assert svc.max_concurrent <= 3


def test_max_parallel_requests_is_capped_at_32():
    # each parallel request is a worker thread of its own; 32 itself is taken
    EmbeddingConfig(endpoint_url="http://127.0.0.1:1/", max_parallel_requests=32)
    for bad in (0, 33, 10**6):
        with pytest.raises(InvalidParams, match="max_parallel_requests must be within 1..32"):
            EmbeddingConfig(endpoint_url="http://127.0.0.1:1/", max_parallel_requests=bad)


def test_idempotent_against_deterministic_stub():
    with StubEmbeddingService(dim=24) as svc:
        config = _config(svc)
        first = embed_texts(["same text", "other"], config)
        second = embed_texts(["same text", "other"], config)
        assert first.tobytes() == second.tobytes()


def test_dimension_mismatch_detected():
    with StubEmbeddingService(dim=16, wrong_dim=12) as svc:
        with pytest.raises(DimensionMismatch):
            embed_texts(["text"], _config(svc, expected_dim=16))


def test_partial_failure_carries_failed_indexes():
    def fail_when(texts):
        return any("poison" in t for t in texts)

    with StubEmbeddingService(dim=8, fail_when=fail_when) as svc:
        texts = ["ok0", "ok1", "poison", "ok3", "ok4", "ok5"]
        with pytest.raises(PartialFailure) as err:
            embed_texts(texts, _config(svc, batch_size=2))
        assert err.value.failed_indexes == [2, 3]
        # the rows that came back, in input order, NaN where a batch failed
        from litrag.testing import deterministic_embedding

        got = err.value.rows
        assert got.shape == (6, 8)
        lost = np.isnan(got).all(axis=1)
        assert lost.tolist() == [False, False, True, True, False, False]
        for text, row, is_lost in zip(texts, got, lost):
            if not is_lost:
                assert list(row) == pytest.approx(deterministic_embedding(text, 8))


def test_all_batches_failing_is_unreachable():
    with StubEmbeddingService(dim=8, fail_when=lambda texts: True) as svc:
        with pytest.raises(ServiceUnreachable):
            embed_texts(["a", "b"], _config(svc, batch_size=1))


def test_unreachable_endpoint():
    config = EmbeddingConfig(endpoint_url="http://127.0.0.1:1/none", expected_dim=8)
    with pytest.raises(ServiceUnreachable):
        embed_texts(["a"], config)


def test_failed_batch_is_retried_once():
    calls = {"n": 0}

    def fail_first(texts):
        calls["n"] += 1
        return calls["n"] == 1

    with StubEmbeddingService(dim=8, fail_when=fail_first) as svc:
        vectors = embed_texts(["only text"], _config(svc))
        assert len(vectors) == 1
        assert len(svc.requests) == 2


def test_programming_error_in_a_batch_is_not_a_service_outage(monkeypatch):
    def broken(config, batch):
        raise AttributeError("a bug, not an outage")

    monkeypatch.setattr(embedding_mod, "_post_batch", broken)
    with pytest.raises(AttributeError):
        embed_texts(["a"], EmbeddingConfig(endpoint_url="http://127.0.0.1:1/none", expected_dim=8))


def test_reply_indexes_must_number_the_inputs():
    # both vectors tagged 7, in reverse order: sorting by index cannot tell
    # which vector embeds which input, so the reply is malformed, not retried
    class SameIndex(StubEmbeddingService):
        def handle_payload(self, payload):
            status, reply = super().handle_payload(payload)
            reply["data"] = [dict(item, index=7) for item in reversed(reply["data"])]
            return status, reply

    with SameIndex(dim=8) as svc:
        with pytest.raises(ServiceUnreachable, match="malformed embedding reply"):
            embed_texts(["alpha", "beta"], _config(svc))
        assert len(svc.requests) == 1


@pytest.mark.parametrize(
    "corrupt, error, match",
    [
        (lambda row: row[:-1], DimensionMismatch, "dimension 3 for input 1"),
        (lambda row: [None] + row[1:], ServiceUnreachable, "malformed embedding reply"),
        (lambda row: ["x"] + row[1:], ServiceUnreachable, "malformed embedding reply"),
        (lambda row: [[0.5]] + row[1:], ServiceUnreachable, "malformed embedding reply"),
        (lambda row: [10**400] + row[1:], ServiceUnreachable, "malformed embedding reply"),
    ],
    ids=["ragged", "null", "string", "nested-list", "huge-integer"],
)
def test_a_malformed_reply_fails_its_batch_without_a_retry(corrupt, error, match):
    # the second input's row is cut short, or holds a value no float can stand for
    class Corrupting(StubEmbeddingService):
        def handle_payload(self, payload):
            status, reply = super().handle_payload(payload)
            item = reply["data"][1]
            item["embedding"] = corrupt(item["embedding"])
            return status, reply

    with Corrupting(dim=4) as svc:
        with pytest.raises(error, match=match):
            embed_texts(["alpha", "beta"], _config(svc))
        assert len(svc.requests) == 1


def test_a_batch_with_a_null_value_is_all_nan_in_a_partial_failure():
    # the null is in the batch's last row, after the rest of it converted
    class NullInPoison(StubEmbeddingService):
        def handle_payload(self, payload):
            status, reply = super().handle_payload(payload)
            if "poison" in payload["input"]:
                reply["data"][-1]["embedding"][-1] = None
            return status, reply

    with NullInPoison(dim=8) as svc:
        with pytest.raises(PartialFailure) as err:
            embed_texts(["a", "b", "c", "poison"], _config(svc, batch_size=2))
        assert len(svc.requests) == 2
    assert err.value.failed_indexes == [2, 3]
    assert np.isnan(err.value.rows).all(axis=1).tolist() == [False, False, True, True]


def test_failed_indexes_of_a_short_last_batch_stop_at_the_last_input():
    with StubEmbeddingService(dim=8, fail_when=lambda texts: "poison" in texts) as svc:
        texts = ["a", "b", "c", "d", "e", "f", "poison"]
        with pytest.raises(PartialFailure) as err:
            embed_texts(texts, _config(svc, batch_size=3))
        assert err.value.failed_indexes == [6]


def test_a_redirect_with_a_well_formed_embedding_body_is_not_a_reply():
    class Redirecting(StubEmbeddingService):
        def handle_payload(self, payload):
            return 302, super().handle_payload(payload)[1]

    with Redirecting(dim=8) as svc:
        with pytest.raises(ServiceUnreachable, match="status 302"):
            embed_texts(["alpha"], _config(svc))
        assert len(svc.requests) == 1


def test_a_redirect_with_a_well_formed_chat_body_is_not_a_reply():
    class Redirecting(StubChatService):
        def handle_payload(self, payload):
            return 301, super().handle_payload(payload)[1]

    with Redirecting() as chat:
        cfg = default_config("http://127.0.0.1:1/embeddings", chat.url)
        with pytest.raises(ChatServiceFailed, match="status 301"):
            chat_completion(cfg, "a prompt", 0.1)
        assert len(chat.requests) == 1


def test_oversize_inputs_logged_but_sent(caplog):
    with StubEmbeddingService(dim=8) as svc:
        config = _config(svc, em_token_limit=4)
        with caplog.at_level("WARNING"):
            vectors = embed_texts(["x" * 400], config)
        assert len(vectors) == 1
        assert any("token limit" in rec.message for rec in caplog.records)


def test_oversize_warning_sends_no_tokenizer_request(caplog):
    with StubEmbeddingService(dim=8) as emb, StubTokenizerService() as tok_svc:
        tok = TokenizerConfig(mode="external", external_url=tok_svc.url)
        with caplog.at_level("WARNING"):
            embed_texts(["x" * 400] * 50, _config(emb, em_token_limit=4, batch_size=64), tokenizer=tok)
        assert tok_svc.requests == []
    assert any("50 of 50 inputs exceed" in rec.message for rec in caplog.records)


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(endpoint_url="http://x", expected_dim=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(endpoint_url="http://x", em_token_limit=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(endpoint_url="http://x", batch_size=0)


# --- the failure policy shared by the three services ------------------------------


class _StalledBody(BaseHTTPRequestHandler):
    """Records the request, sends the headers and the first bytes of a
    100-byte reply, then stalls (``stall_body``) or closes the connection
    (``truncated``)."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.state_lock:
            self.server.requests.append({})
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b'{"data": ')
        self.wfile.flush()
        if self.server.fault == "stall_body":
            time.sleep(1.0)
        self.close_connection = True

    def log_message(self, *args):
        pass


class _Faulty:
    """Mixed into a service stub: records each request like the stub does,
    then answers with ``fault`` in place of the service's reply."""

    def __init__(self, fault):
        self.fault = fault
        super().__init__()
        if fault in ("stall_body", "truncated"):
            self.RequestHandlerClass = _StalledBody

    def handle_payload(self, payload):
        with self.state_lock:
            self.requests.append(payload)
        if self.fault == "drop":
            raise ConnectionAbortedError("closing the connection without a reply")
        if self.fault == "stall":
            time.sleep(1.0)
        if isinstance(self.fault, int):
            return self.fault, {"error": "injected failure"}
        return 200, {"unexpected": "shape"}

    def handle_error(self, request, client_address):
        pass  # the dropped and timed-out connections are the point


def _embed(url):
    embed_texts(["text"], EmbeddingConfig(endpoint_url=url, expected_dim=8))


def _count_tokens(url):
    token_count("text", TokenizerConfig(mode="external", external_url=url))


def _chat(url):
    chat_completion(default_config("http://127.0.0.1:1/unused", url), "prompt", 0.1)


SERVICES = {
    "embedding": (StubEmbeddingService, _embed, ServiceUnreachable),
    "tokenizer": (StubTokenizerService, _count_tokens, ServiceUnreachable),
    "chat": (StubChatService, _chat, ChatServiceFailed),
}


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize(
    "fault, requests_seen",
    [
        ("drop", 2),  # connection closed before a reply: transient
        (500, 2),
        (503, 2),
        (429, 2),
        (400, 1),
        (404, 1),
        ("stall", 1),  # read timeout: the service has the request
        ("stall_body", 1),  # read timeout after the headers
        ("truncated", 1),  # connection closed inside the body: the service has the request
        ("shape", 1),  # 200 with JSON of the wrong shape
    ],
)
def test_failure_policy(service, fault, requests_seen, monkeypatch):
    stub, call, error = SERVICES[service]
    if fault in ("stall", "stall_body"):
        init = http.client.HTTPConnection.__init__
        monkeypatch.setattr(
            http.client.HTTPConnection,
            "__init__",
            lambda self, *a, **kw: init(self, *a, **{**kw, "timeout": 0.2}),
        )
    with type("Faulty", (_Faulty, stub), {})(fault) as svc:
        with pytest.raises(error):
            call(svc.url)
        assert len(svc.requests) == requests_seen


@pytest.mark.parametrize("service", SERVICES)
def test_refused_connection_is_retried_once(service, monkeypatch):
    # a refused connection never reaches a stub, so the attempts are counted here
    _, call, error = SERVICES[service]
    attempts = []
    connect = http.client.HTTPConnection.connect
    monkeypatch.setattr(
        http.client.HTTPConnection, "connect", lambda self: attempts.append(self) or connect(self)
    )
    with pytest.raises(error):
        call("http://127.0.0.1:1/none")
    assert len(attempts) == 2


class _RecordingHTTPS:
    """Stands in for ``http.client.HTTPSConnection``: records how it was
    built and what was sent, and replies 200 with a JSON body, with no
    socket and no TLS."""

    built: list = []
    status = 200

    def __init__(self, host, port=None, *, timeout):
        self.built.append((host, port, timeout))

    def connect(self):
        pass

    def request(self, method, target, body, headers):
        self.sent = (method, target, body, headers)

    def getresponse(self):
        return self

    def read(self):
        return b'{"ok": true, "target": "%s"}' % self.sent[1].encode()

    def close(self):
        pass


def test_https_endpoint_builds_an_https_connection_with_its_host_port_and_timeout(monkeypatch):
    monkeypatch.setattr(_RecordingHTTPS, "built", [])
    monkeypatch.setattr(embedding_mod, "HTTPSConnection", _RecordingHTTPS)
    reply = post_json(
        "https://embed.example:8443/v1/embeddings?x=1", {"input": ["a"]}, ServiceUnreachable, 7.5
    )
    assert reply == {"ok": True, "target": "/v1/embeddings?x=1"}
    assert _RecordingHTTPS.built == [("embed.example", 8443, 7.5)]


def test_http_endpoint_never_builds_an_https_connection(monkeypatch):
    monkeypatch.setattr(_RecordingHTTPS, "built", [])
    monkeypatch.setattr(embedding_mod, "HTTPSConnection", _RecordingHTTPS)
    with StubEmbeddingService(dim=4) as svc:
        vectors = embed_texts(["alpha", "beta"], _config(svc))
    assert len(vectors) == 2
    assert _RecordingHTTPS.built == []


def test_litrag_imports_no_third_party_http_client():
    # the transport is the standard library's http.client
    code = (
        "import sys, litrag, litrag.cli, litrag.harness, litrag.testing; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class _NotJson(BaseHTTPRequestHandler):
    """Records the request and replies with the server's ``status`` and a
    body that is not JSON."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.state_lock:
            self.server.requests.append({})
        body = b"<html>maintenance</html>"
        self.send_response(self.server.status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("status", [200, 201])
def test_a_2xx_reply_that_is_not_json_fails_without_a_retry(service, status):
    stub, call, error = SERVICES[service]
    with stub() as svc:
        svc.RequestHandlerClass, svc.status = _NotJson, status
        with pytest.raises(error, match="malformed JSON"):
            call(svc.url)
        assert len(svc.requests) == 1


@pytest.mark.parametrize("row", [0.5, "0.5", None, {"values": [0.5] * 4}])
def test_an_embedding_row_that_is_not_a_list_fails_its_batch_without_a_retry(row):
    class NotAList(StubEmbeddingService):
        def handle_payload(self, payload):
            status, reply = super().handle_payload(payload)
            reply["data"][1]["embedding"] = row
            return status, reply

    with NotAList(dim=4) as svc:
        with pytest.raises(ServiceUnreachable, match="input 1 has no list of values"):
            embed_texts(["alpha", "beta"], _config(svc))
        assert len(svc.requests) == 1


def _http_date(seconds_from_now: float) -> str:
    return format_datetime(datetime.now(timezone.utc) + timedelta(seconds=seconds_from_now), usegmt=True)


@pytest.mark.parametrize(
    "status, retry_after, low, high",
    [
        (429, "3", 3.0, 3.0),
        (503, "3", 3.0, 3.0),
        (503, "0", 0.0, 0.0),
        (503, "100", 10.0, 10.0),  # capped at the request timeout
        (429, "in-5s", 3.0, 5.0),  # an HTTP-date 5 s ahead, to the second
        (503, "in-100s", 10.0, 10.0),
        (503, "in--100s", 0.0, 0.0),  # an HTTP-date past
        (503, None, 0.01, 0.01),  # no header: the base pause
        (503, "soon", 0.01, 0.01),
        (503, "-1", 0.01, 0.01),
        (503, "1.5", 0.01, 0.01),  # delta-seconds are whole
        (503, "Fri, 31 Feb 2026 08:00:00 GMT", 0.01, 0.01),
        (500, "3", 0.01, 0.01),  # only a 429 or a 503 says when to retry
    ],
)
def test_a_retry_waits_as_retry_after_says(monkeypatch, status, retry_after, low, high):
    if retry_after is not None and retry_after.startswith("in-"):
        retry_after = _http_date(float(retry_after[3:-1]))
    waits = []
    monkeypatch.setattr(embedding_mod.time, "sleep", waits.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    with StubChatService(status=status, headers=headers) as svc:
        with pytest.raises(ChatServiceFailed, match="failed after one retry"):
            post_json(svc.url, {"messages": []}, ChatServiceFailed, timeout=10.0)
        assert len(svc.requests) == 2
    assert len(waits) == 1 and low <= waits[0] <= high, waits


class _BusyOnce(StubChatService):
    """Replies 503 to its first request and answers the ones after it."""

    def handle_payload(self, payload):
        if not self.requests:
            with self.state_lock:
                self.requests.append(payload)
            return 503, {"error": "busy"}
        return super().handle_payload(payload)


def test_the_retry_after_a_retry_after_gets_the_reply(monkeypatch):
    waits = []
    monkeypatch.setattr(embedding_mod.time, "sleep", waits.append)
    with _BusyOnce(headers={"Retry-After": "2"}) as svc:
        assert chat_completion(default_config(svc.url, svc.url), "prompt", 0.1) == "thanks for asking!"
        assert len(svc.requests) == 2
    assert waits == [2.0]
