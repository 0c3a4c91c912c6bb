"""The benchmark's own server launcher.

Two jobs, both running the program's own serve code:

* ``--mode federation`` serves ``bookstore_federation`` over catalogs
  read from a JSON file, by the same steps as ``repro serve`` (compile
  every rule closure, one ``MediationService`` with the default
  ``ServiceConfig``, ``serve_tcp``), because the CLI cannot load
  generated catalogs.
* ``--traced 1`` first wraps public entry points of the program at the
  module attribute their callers look them up by (see
  :func:`install_wrappers`), wraps each request in ``repro.obs.tracing()``
  so the program's own counters are kept per request, and writes every
  span and counter to ``--spans-out`` when the server is interrupted.
  ``--mode cli`` then runs ``repro serve`` with the arguments after
  ``--`` in this process; cluster workers are fresh spawned processes,
  so there the wrappers reach only the front-end.

Run from the checkout root, e.g.::

    python3 perfbench/launch.py --mode cli --traced 1 --spans-out spans.json \
        -- serve K_Amazon --tcp --port 0
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def install_wrappers() -> list[str]:
    """Wrap the program's layer entry points; returns those not found."""
    from importlib import import_module

    from repro import obs
    from repro.engine.source import Source
    from repro.perf.cache import TranslationCache
    from repro.perf.compile import CompiledRule
    from repro.perf.index import CompiledRuleIndex

    import spans

    # import_module, not ``import a.b as m``: repro.core re-exports
    # functions named tdqm and psafe that shadow those submodules.
    psafe_mod = import_module("repro.core.psafe")
    tdqm_mod = import_module("repro.core.tdqm")
    mediator_mod = import_module("repro.mediator.mediator")
    cluster_mod = import_module("repro.serve.cluster")
    protocol = import_module("repro.serve.protocol")
    server = import_module("repro.serve.server")
    service_mod = import_module("repro.serve.service")
    missing: list[str] = []

    def put(target, attr, name):
        spans.install(target, attr, name, missing)

    # Per-line handlers: a request id per line, plus the program's counters.
    server.handle_line = spans.wrap_line(server.handle_line, line_arg=1, count=obs.tracing)
    answer_line = getattr(cluster_mod.ClusterServer, "_answer_line", None)
    if answer_line is None:
        missing.append("repro.serve.cluster.ClusterServer._answer_line")
    else:
        cluster_mod.ClusterServer._answer_line = spans.wrap_line(answer_line, line_arg=1)

    put(protocol, "decode_line", "protocol.decode")
    put(protocol, "encode_response", "protocol.encode")
    put(protocol, "to_text", "protocol.render")
    put(protocol, "query_to_json", "protocol.render")
    put(service_mod.MediationService, "translate", "service")
    put(service_mod.MediationService, "mediate", "service")
    put(service_mod, "parse_query", "parser.parse")
    put(service_mod, "intern_query", "intern")
    put(service_mod, "normalize", "normalize")
    put(service_mod, "query_fingerprint", "fingerprint")
    put(TranslationCache, "tdqm_prepared", "cache.lookup")
    put(tdqm_mod, "tdqm_translate", "tdqm.translate")
    put(tdqm_mod, "psafe", "tdqm.psafe")
    put(psafe_mod, "ednf", "tdqm.ednf")
    put(tdqm_mod, "scm_translate", "tdqm.scm")
    put(CompiledRuleIndex, "precompile", "compile.precompile")
    put(mediator_mod.Mediator, "answer_mediated", "mediator.answer")
    put(mediator_mod, "build_filter", "filters.build_filter")
    put(mediator_mod, "normalize", "normalize")
    put(Source, "execute", "engine.source")
    put(cluster_mod.ClusterServer, "_route", "cluster.route")
    put(cluster_mod, "decode_line", "cluster.decode")
    put(cluster_mod, "encode_response", "cluster.encode")
    memo = getattr(cluster_mod, "_FingerprintMemo", None)
    if memo is not None:
        put(memo, "get", "cluster.fingerprint")
    else:
        missing.append("repro.serve.cluster._FingerprintMemo.get")

    # Closure-memo misses: the growth of each compiled rule's memo.
    matchings = CompiledRule.matchings

    def counted_matchings(self, pools):
        before = self.memo_size()
        result = matchings(self, pools)
        after = self.memo_size()
        obs.count("perfbench.closure_memo.misses", after - before if after >= before else after)
        return result

    CompiledRule.matchings = counted_matchings
    return missing


def serve_federation(catalog_path: str) -> None:
    """``repro serve``'s single-process path over generated catalogs."""
    from repro.mediator import bookstore_federation
    from repro.serve import MediationService, ServiceConfig, serve_tcp

    with open(catalog_path, encoding="utf-8") as handle:
        catalogs = json.load(handle)
    mediator = bookstore_federation(catalogs["amazon"], catalogs["clbooks"])
    for spec in mediator.specs.values():
        spec.compiled_index().precompile()
    service = MediationService(mediator, ServiceConfig())
    server = serve_tcp(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    print(f"serving bookstore_federation on {host}:{port} (JSON-lines)", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cli", "federation"), required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--catalogs", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    missing = install_wrappers() if args.traced else []
    if args.mode == "federation":
        serve_federation(args.catalogs)
        code = 0
    else:
        from repro.cli import main as repro_main

        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        code = repro_main(cli_args)
    if args.traced and args.spans_out:
        import spans

        spans.dump(args.spans_out, {"missing": missing})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
