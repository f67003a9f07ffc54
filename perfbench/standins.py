"""Stand-in embedding and chat services, one process each.

    python3 perfbench/standins.py embedding <dim>
    python3 perfbench/standins.py chat

The process serves on 127.0.0.1 at a free port, prints that port as its
first line of standard output and serves until it is terminated.

Both speak litrag's HTTP wire shapes. ``GET /stats`` returns the counters
(requests, texts, busy seconds; for chat also prompts over the token budget)
and ``GET /stats?reset=1`` returns them and starts them again from zero.

The chat stand-in answers with a bibliography that copies every line of the
prompt's citation list; when the question carries ``FABRICATE_TRIGGER`` it
appends one reference that no document holds.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import FABRICATE_TRIGGER, embed  # noqa: E402

FABRICATED_REFERENCE = (
    'Harrow, Quell & Ambrose (1987): "Cellular Structure of Oblique Detonations '
    'in Ducted Flows." Combustion Science and Technology, 54(2), 101-119.'
)

# The budget every prompt must keep: ceil(chars / 4) + reserve <= limit.
CHARS_PER_TOKEN, LLM_TOKEN_LIMIT, RESERVED_FOR_ANSWER = 4, 4096, 1024


def citation_lines(prompt: str) -> list[str]:
    anchor = prompt.rfind("Citation List:")
    if anchor == -1:
        return []
    tail = prompt[anchor + len("Citation List:") :]
    end = tail.find("\n\nQuestion:")
    if end != -1:
        tail = tail[:end]
    return [line.strip() for line in tail.splitlines() if line.strip()]


def chat_reply(prompt: str) -> str:
    lines = citation_lines(prompt)
    if not lines:
        return "The context describes the requested quantities.\n\nthanks for asking!"
    out = ["Based on the provided context, the relevant sources are listed below.", "", "References:"]
    out += lines
    if FABRICATE_TRIGGER in prompt:
        out.append(FABRICATED_REFERENCE)
    out += ["", "thanks for asking!"]
    return "\n".join(out)


class StandIn(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, kind: str, dim: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.kind, self.dim = kind, dim
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.stats = {"requests": 0, "texts": 0, "busy_s": 0.0, "over_budget": 0}

    def respond(self, payload: dict) -> dict:
        t0 = time.perf_counter()
        if self.kind == "embedding":
            texts = payload["input"]
            body = {"data": [{"index": i, "embedding": embed(t, self.dim).tolist()}
                             for i, t in enumerate(texts)]}
            n_texts, tokens = len(texts), 0
        else:
            prompt = payload["messages"][0]["content"]
            body = {"choices": [{"message": {"content": chat_reply(prompt)}}]}
            n_texts, tokens = 1, math.ceil(len(prompt) / CHARS_PER_TOKEN)
        busy = time.perf_counter() - t0
        with self.lock:
            s = self.stats
            s["requests"] += 1
            s["texts"] += n_texts
            s["busy_s"] += busy
            if tokens + RESERVED_FOR_ANSWER > LLM_TOKEN_LIMIT:
                s["over_budget"] += 1
        return body


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _send(self, body: dict):
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        server = self.server
        with server.lock:
            stats = dict(server.stats)
            if self.path.endswith("reset=1"):
                server.reset()
        self._send(stats)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self._send(self.server.respond(json.loads(self.rfile.read(length))))


def exit_with_parent(parent: int):
    """End the process once the run that started it is gone."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def main(argv: list[str]) -> int:
    kind = argv[1]
    dim = int(argv[2]) if kind == "embedding" else 0
    server = StandIn(kind, dim)
    threading.Thread(target=exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
