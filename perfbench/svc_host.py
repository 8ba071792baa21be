"""Host ``hqs-serve`` with span recorders around the service layers.

Usage: ``python3 perfbench/svc_host.py SPANS_PATH [hqs-serve arguments]``

Runs ``repro.service.server.main`` unchanged, with the server's calls to
``parse_dqdimacs`` and ``formula_fingerprint``, ``ResultCache.lookup`` /
``store`` and ``WorkerPool.solve`` wrapped for the life of the process.
Each span's id is the request's formula fingerprint.  The spans and the
measured cost of one wrapped call are written to ``SPANS_PATH`` after
the server has drained.
"""

from __future__ import annotations

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from repro.service import server  # noqa: E402
from repro.service.cache import CHECKPOINT_SUFFIX, ResultCache  # noqa: E402
from repro.service.pool import WorkerPool  # noqa: E402


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    recorder = spans.SpanRecorder()
    last_parse = threading.local()

    def parsed(span, _args, _kwargs, _result) -> None:
        last_parse.span = span

    def fingerprinted(span, _args, _kwargs, result) -> None:
        # Parse and fingerprint run back to back on the event loop for
        # one request, so the parse just before belongs to it.
        span[spans.RID] = result
        parse = getattr(last_parse, "span", None)
        if parse is not None:
            parse[spans.RID] = result
            last_parse.span = None

    def keyed(span, args, _kwargs, _result) -> None:
        span[spans.RID] = args[1]

    def dispatched(span, _args, kwargs, _result) -> None:
        checkpoint = kwargs.get("checkpoint")
        if checkpoint:
            span[spans.RID] = os.path.basename(checkpoint)[: -len(CHECKPOINT_SUFFIX)]

    targets = [
        (server, "parse_dqdimacs", "service.parse"),
        (server, "formula_fingerprint", "service.fingerprint"),
        (ResultCache, "lookup", "cache.lookup"),
        (ResultCache, "store", "cache.store"),
        (WorkerPool, "solve", "pool.solve"),
    ]
    observers = {
        "service.parse": parsed,
        "service.fingerprint": fingerprinted,
        "cache.lookup": keyed,
        "cache.store": keyed,
        "pool.solve": dispatched,
    }
    cost = spans.span_cost()
    with recorder.patched(targets, observers):
        code = server.main(args)
    recorder.dump(spans_path, span_cost_s=cost)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
