"""Tests for the observability surfaces: ``repro stats``, ``--json``
output on translate/filter, ``--trace``/``--stats`` flags, and the
counters section of ``explain_translation``.

The golden-file test pins the full human-readable ``repro stats`` report
for Example 6's Q_book (Figure 7) with wall-times normalised, so any
change to the span tree shape or the counter set shows up as a diff.
"""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.core.explain import explain_translation
from repro.core.json_io import query_from_json
from repro.core.parser import parse_query
from repro.core.printer import to_text
from repro.rules import K_AMAZON, K_CLBOOKS
from repro.workloads.paper_queries import qbook

QBOOK = to_text(qbook())
GOLDEN = pathlib.Path(__file__).parent / "golden" / "stats_qbook.txt"


def _normalize_times(text: str) -> str:
    return re.sub(r"\d+\.\d+ms", "X.XXXms", text)


class TestStatsCommand:
    def test_qbook_golden(self, capsys):
        # The golden pins a *cold-start* run.  K_Amazon's compiled index
        # is a process-wide singleton whose rule closures and their memos
        # other tests may have built for this very query; detach it so
        # the counter set (perf.compile.*) matches a fresh process.
        object.__setattr__(K_AMAZON, "_compiled_index", None)
        assert main(["stats", "K_Amazon", QBOOK]) == 0
        got = _normalize_times(capsys.readouterr().out)
        assert got == GOLDEN.read_text()

    def test_qbook_counters_json(self, capsys):
        assert main(["stats", "K_Amazon", QBOOK, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # Example 6 / Figure 7: the paper's term counts for Q_book.
        assert data["gauges"]["query.dnf_terms"] == 6
        assert data["counters"]["tdqm.disjunctivize_calls"] == 5
        assert data["counters"]["tdqm.disjunctivize_terms"] == 10
        assert data["counters"]["scm.submatchings_suppressed"] == 15
        assert data["counters"]["filter.residue_conjuncts"] == 0
        # End-to-end execution against the simulated store ran too.
        assert data["rows"] == 2
        assert data["counters"]["source.rows_scanned"] == 7
        assert data["mappings"]["K_Amazon"]["exact"] is True

    def test_json_span_tree_has_stage_timings(self, capsys):
        assert main(["stats", "K_Amazon", '[ln = "Clancy"]', "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        tree = data["span_tree"]
        assert tree["name"] == "repro.stats"
        stages = [child["name"] for child in tree["children"]]
        assert stages[:3] == ["parse", "normalize", "translate"]
        assert "build_filter" in stages
        assert all(child["elapsed_ms"] >= 0.0 for child in tree["children"])

    def test_mapping_json_round_trips(self, capsys):
        assert main(["stats", "K_Amazon", QBOOK, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        mapping = data["mappings"]["K_Amazon"]
        assert to_text(query_from_json(mapping["json"])) == mapping["text"]
        assert to_text(query_from_json(data["filter"]["json"])) == data["filter"]["text"]

    def test_no_execute_skips_mediation(self, capsys):
        assert main(["stats", "K_Amazon", QBOOK, "--json", "--no-execute"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] is None
        assert "mediator.rows_emitted" not in data["counters"]

    def test_multi_spec_faculty(self, capsys):
        query = "[fac.bib contains data (near) mining] and [fac.dept = cs]"
        assert main(["stats", "K1,K2", query]) == 0
        out = capsys.readouterr().out
        assert "S(K1)" in out and "S(K2)" in out
        assert "rows = " in out  # K1/K2 map to the built-in faculty mediator

    def test_unknown_spec_combination_translates_only(self, capsys):
        # K_Amazon + K1 is no built-in scenario: no execution, still a report.
        assert main(["stats", "K_Amazon,K1", '[ln = "Clancy"]']) == 0
        out = capsys.readouterr().out
        assert "rows = " not in out
        assert "spans:" in out


class TestJsonFlags:
    def test_translate_json(self, capsys):
        code = main(["translate", "K_Amazon", '[ln = "Clancy"] and [fn = "Tom"]', "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mapping_text"] == '[author = "Clancy, Tom"]'
        assert data["exact"] is True
        assert to_text(query_from_json(data["mapping"])) == data["mapping_text"]

    def test_translate_json_with_counters(self, capsys):
        code = main(["translate", "K_Amazon", '[ln = "Clancy"]', "--json", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["counters"]["scm.calls"] >= 1
        assert "counters:" in captured.err

    def test_filter_json(self, capsys):
        query = "[fac.bib contains data (near) mining] and [fac.dept = cs]"
        assert main(["filter", "K1,K2", query, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["mappings"]) == {"K1", "K2"}
        assert data["mappings"]["K2"]["text"] == "[fac.prof.dept = 230]"
        assert (
            to_text(query_from_json(data["filter"]["json"])) == data["filter"]["text"]
        )


class TestObsFlags:
    def test_trace_prints_span_tree_to_stderr(self, capsys):
        args = ["translate", "K_Amazon", '[ln = "Clancy"] and [fn = "Tom"]', "--trace"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == '[author = "Clancy, Tom"]'
        assert "spans:" in captured.err
        assert "repro.translate" in captured.err
        assert re.search(r"tdqm\s.*\d+\.\d+ms", captured.err)

    def test_stats_prints_counters_to_stderr(self, capsys):
        assert main(["filter", "K1,K2", "[fac.dept = cs]", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "counters:" in captured.err
        assert "filter.residue_conjuncts" in captured.err

    def test_flags_do_not_change_stdout(self, capsys):
        plain = main(["translate", "K_Amazon", QBOOK])
        out_plain = capsys.readouterr().out
        traced = main(["translate", "K_Amazon", QBOOK, "--trace", "--stats"])
        out_traced = capsys.readouterr().out
        assert plain == traced == 0
        assert out_plain == out_traced


class TestExplainCounters:
    """``explain_translation`` ends with a real traced counters section."""

    def test_counters_section_present(self):
        text = explain_translation(parse_query('[ln = "Clancy"]'), K_AMAZON)
        assert "counters  :" in text
        assert "ms traced" in text
        assert "scm.calls" in text

    @pytest.mark.parametrize("spec", [K_AMAZON, K_CLBOOKS], ids=lambda s: s.name)
    def test_federation_query_counters(self, spec):
        # The acses.com union view answers each component with its own
        # spec; explain must work (with counters) under both vocabularies.
        query = parse_query('([ln = "Clancy"] or [ln = "Smith"]) and [pyear = 1997]')
        text = explain_translation(query, spec)
        assert "counters  :" in text
        assert "tdqm.case1_or" in text
        assert "scm.calls" in text

    def test_qbook_counter_values(self):
        text = explain_translation(qbook(), K_AMAZON)
        assert re.search(r"tdqm\.disjunctivize_calls\s+1\b", text)
        assert re.search(r"psafe\.blocks\s+2\b", text)
