"""Traced ``serve-model`` server: install span wrappers, then run the CLI.

    python perfbench/serve_launcher.py TRACE.json serve-model --artifact KEY ...

Everything after the trace path is handed to the real CLI entry point
(``repro.experiments.cli.main``).  Each name is wrapped where its caller
looks it up: ``atomic_write_json`` is imported by name into
``repro.serving.server`` and ``repro.service.heartbeat`` as well as
used inside ``repro.io``, so every module holding it gets the wrapper.
The spans are written to ``TRACE.json`` when the CLI returns (the
benchmark stops the server with SIGINT, which the verb handles).
"""

import sys

from tracing import Tracer, install_modules


def install(tracer):
    import repro.io
    from repro.nn import Module
    from repro.serving import server
    from repro.serving.server import BatchJournal, MicroBatcher, RequestStore

    inner_claim = BatchJournal.__dict__["claim"]

    def claim(journal, worker):
        tracer.op = None
        tracer.begin("serving.claim")
        try:
            record = inner_claim(journal, worker)
        except BaseException:
            tracer.end()
            raise
        tracer.end("serving.claim_idle" if record is None else "serving.claim_hit")
        return record

    tracer.replace(BatchJournal, "claim", claim)
    tracer.wrap(repro.io.JsonJournal, "read", "io.journal_read")
    original = repro.io.atomic_write_json
    traced_write = tracer.spanned(original, "io.atomic_write")
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "atomic_write_json", None) is original:
            tracer.replace(module, "atomic_write_json", traced_write)
    tracer.wrap(server, "serve_batch", "serving.serve_batch")
    tracer.wrap(MicroBatcher, "poll", "serving.batcher_poll")
    for method in ("load", "respond"):
        inner = RequestStore.__dict__[method]

        def per_request(store, request_id, *args, _inner=inner, _name=f"serving.{method}"):
            tracer.op = request_id
            tracer.begin(_name)
            try:
                return _inner(store, request_id, *args)
            finally:
                tracer.end()

        tracer.replace(RequestStore, method, per_request)
    install_modules(tracer, Module, {})


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    from repro.experiments.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.flush(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
