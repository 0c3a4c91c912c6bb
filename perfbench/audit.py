"""Output audit: every response against an in-process reference.

The reference is ``handle_line`` on a fresh in-process
``MediationService`` over the same specification (and, for mediation,
the same catalogs), built with no translation cache so that no answer
it gives is a memo of another.  A served response passes only when it
is byte-identical to the reference line for the same request body, with
the client's ``id`` in place of the reference's.  One allowance: a cached
translation keeps the child order of the spelling that first filled its
cache entry, so a response may instead equal the reference line for
another commuted spelling of the same query (same canonical
fingerprint).  Everything here runs outside the timed window.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

#: The id the reference is asked under; replaced by the client's id.
_SENTINEL = 8_765_432_109_876
_SENTINEL_TEXT = f'"id": {_SENTINEL}'


def request_line(index: int, body: str) -> bytes:
    """The wire line for request ``index`` with a pre-encoded JSON ``body``."""
    return b'{"id": %d, %s}\n' % (index, body.encode("utf-8"))


def body(op: str, query: str) -> str:
    """The request fields after the id, JSON-encoded once before timing."""
    return f'"op": {json.dumps(op)}, "query": {json.dumps(query)}'


def build_mediator(catalogs: str | None = None):
    """The mediator a workload serves: K_Amazon's bookstore, or the federation."""
    if catalogs is None:
        from repro.mediator import bookstore_mediator

        return bookstore_mediator("amazon")
    from repro.mediator import bookstore_federation

    with open(catalogs, encoding="utf-8") as handle:
        rows = json.load(handle)
    return bookstore_federation(rows["amazon"], rows["clbooks"])


class Reference:
    """Expected response lines, computed once per distinct request body.

    ``catalogs`` (a JSON file of generated catalogs) selects the
    federation; ``registry`` reloads its active specs into the service
    first, through the same ``reload`` op the served workload uses.
    """

    #: Distinct bodies from which :meth:`prefill` uses worker processes.
    PARALLEL_FROM = 2000

    def __init__(self, catalogs: str | None = None, registry: str | None = None):
        from repro.serve import MediationService
        from repro.serve.protocol import handle_line

        self.mediator = build_mediator(catalogs)
        self.mediator.translation_cache = None
        self._handle = handle_line
        self.service = MediationService(self.mediator)
        self._memo: dict[str, str] = {}
        if registry is not None:
            reply = json.loads(self.line(json.dumps({"op": "reload", "registry": registry})))
            if not reply.get("ok"):
                raise RuntimeError(f"reference reload failed: {reply}")

    def line(self, text: str) -> str:
        return self._handle(self.service, text)

    def template(self, request_body: str) -> str:
        """The reference response line, asked under the sentinel id."""
        found = self._memo.get(request_body)
        if found is None:
            found = self._memo[request_body] = self.line(
                "{" + f"{_SENTINEL_TEXT}, {request_body}" + "}"
            )
        return found

    def expected(self, request_body: str, client_id: int) -> str:
        return self.template(request_body).replace(_SENTINEL_TEXT, f'"id": {client_id}', 1)

    def prefill(self, bodies: list[str], processes: int) -> None:
        """Compute many reference lines at once, on worker processes if many.

        The workers are forks of this process that answer from their copy
        of this reference, so the answers are the same as computing them
        here, only sooner.  Forked workers need no helper process (a spawn
        pool would start a resource tracker that outlives the benchmark);
        forking is safe only while this process runs no other thread, so
        with one running every line is left to :meth:`template`.
        """
        global _WORKER_REFERENCE
        todo = [b for b in dict.fromkeys(bodies) if b not in self._memo]
        if len(todo) < self.PARALLEL_FROM or processes < 2 or threading.active_count() > 1:
            return
        _WORKER_REFERENCE = self
        try:
            with ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                chunk = -(-len(todo) // (4 * processes))
                self._memo.update(zip(todo, pool.map(_worker_template, todo, chunksize=chunk)))
        finally:
            _WORKER_REFERENCE = None

    def matches(
        self,
        request_body: str,
        client_id: int,
        response: bytes | None,
        spellings: list[str] = (),
    ) -> bool:
        """Is ``response`` a successful reference answer for this request?

        ``spellings`` are the bodies of the request's other commuted
        spellings, any of which may have filled the server's cache entry.
        """
        if response is None:
            return False
        text = response.decode("utf-8", errors="replace")
        for candidate in (request_body, *spellings):
            expected = self.expected(candidate, client_id)
            if text == expected:
                return '"ok": true' in expected
        return False


def audit(
    reference: Reference,
    bodies: list[str],
    samples,
    spellings=None,
    processes: int = 1,
) -> list[int]:
    """Stream indexes whose response failed or differs from the reference.

    ``spellings(index)`` lists the commuted spellings of request
    ``index`` (as bodies); omitted when no query repeats.  With
    ``processes`` > 1 many distinct bodies are computed on that many
    worker processes.
    """
    reference.prefill([bodies[s[0]] for s in samples], processes)
    return [
        index
        for index, _conn, _sent, _received, response in samples
        if not reference.matches(
            bodies[index], index, response, spellings(index) if spellings else ()
        )
    ]


def equivalence_failures(mediator, queries: list[str]) -> list[str]:
    """Queries on which Eq. 1 (direct) and Eq. 2 (mediated) disagree."""
    from repro.core.parser import parse_query

    return [q for q in queries if not mediator.check_equivalence(parse_query(q))]


def fingerprints(queries: list[str]) -> list[str]:
    """The program's canonical query fingerprint of each query text."""
    from repro.core.normalize import normalize
    from repro.core.parser import parse_query
    from repro.perf.fingerprint import query_fingerprint

    return [query_fingerprint(normalize(parse_query(q)), normalized=True) for q in queries]


#: The reference :meth:`Reference.prefill`'s forked workers answer from.
_WORKER_REFERENCE: Reference | None = None


def _worker_template(request_body: str) -> str:
    return _WORKER_REFERENCE.template(request_body)
