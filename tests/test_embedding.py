import http.client
import subprocess
import sys
import time
from http.server import BaseHTTPRequestHandler

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
    token_count,
)
from litrag.errors import (
    ChatServiceFailed,
    DimensionMismatch,
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
        vectors = embed_texts(["hello world"], _config(svc))
        assert len(vectors) == 1
        assert vectors[0].dim == 768


def test_empty_input_rejected():
    with StubEmbeddingService(dim=8) as svc:
        with pytest.raises(ValueError):
            embed_texts([], _config(svc))


def test_batching_request_count_and_order():
    with StubEmbeddingService(dim=16) as svc:
        texts = [f"text number {i}" for i in range(10)]
        vectors = embed_texts(texts, _config(svc, batch_size=4))
        assert len(svc.requests) == 3
        assert [len(r["input"]) for r in sorted(svc.requests, key=lambda r: r["input"][0])] in (
            [4, 4, 2],
            [2, 4, 4],
            [4, 2, 4],
        )
        # order preservation: vector i is the deterministic embedding of text i
        from litrag.testing import deterministic_embedding

        for text, vec in zip(texts, vectors):
            assert list(vec.values) == pytest.approx(deterministic_embedding(text, 16))


def test_parallelism_is_bounded():
    with StubEmbeddingService(dim=8, latency_s=0.05) as svc:
        texts = [f"t{i}" for i in range(12)]
        embed_texts(texts, _config(svc, batch_size=1, max_parallel_requests=3))
        assert svc.max_concurrent <= 3


def test_idempotent_against_deterministic_stub():
    with StubEmbeddingService(dim=24) as svc:
        config = _config(svc)
        first = embed_texts(["same text", "other"], config)
        second = embed_texts(["same text", "other"], config)
        assert [v.values for v in first] == [v.values for v in second]


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


def test_litrag_imports_no_third_party_http_client():
    # the transport is the standard library's http.client
    code = (
        "import sys, litrag, litrag.cli, litrag.harness, litrag.testing; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
