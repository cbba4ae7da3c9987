"""The measured process: import ``rougewe`` and run ``rougewe.cli.main``.

Usage: ``python3 child.py RESULT_JSON MODE -- <rougewe arguments>``.

MODE ``untraced``: the only thing recorded is the boundary of the calls into
``harness.score_corpus`` (CLOCK_MONOTONIC, comparable with the launching
process), plus a count of "scoring failed" log records from
``rougewe.harness``. MODE ``traced``: :mod:`tracing` wraps every layer as
well. MODE ``setup``: as untraced, but the process exits at the first call
into ``score_corpus``, to sample set-up time alone. The result file is
written on every exit path.
"""

import json
import logging
import sys
import time


class _FailureCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.count = 0

    def emit(self, record):
        if str(record.msg).startswith("scoring failed"):
            self.count += 1


def main() -> None:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    result: dict = {"score_corpus": []}

    import_start = time.perf_counter()
    import rougewe.cli
    import_s = time.perf_counter() - import_start
    result["rougewe_file"] = rougewe.cli.__file__

    failures = _FailureCounter()
    logging.getLogger("rougewe.harness").addHandler(failures)

    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        result["import_s"] = import_s

    original = rougewe.harness.score_corpus  # the traced wrapper, when traced
    boundary = result["score_corpus"]

    def score_corpus(*args, **kwargs):
        boundary.append(time.monotonic())
        if mode == "setup":
            raise SystemExit(0)
        try:
            return original(*args, **kwargs)
        finally:
            boundary.append(time.monotonic())

    for name, module in list(sys.modules.items()):
        if name.startswith("rougewe") and getattr(module, "score_corpus", None) is original:
            module.score_corpus = score_corpus

    try:
        rougewe.cli.main(args=argv, prog_name="rougewe")
    finally:
        result["failures_logged"] = failures.count
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    main()
