"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestTable1:
    def test_table1_exits_zero(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "MF" in out and "96" in out


class TestList:
    def test_list_known_set(self, capsys):
        assert main(["list", "MS"]) == 0
        out = capsys.readouterr().out
        assert "MS.sopoll.prior-check" in out

    def test_list_unknown_set(self, capsys):
        assert main(["list", "XYZ"]) == 2
        assert "unknown set" in capsys.readouterr().out


class TestAutomaton:
    def test_automaton_text(self, capsys):
        assert main(["automaton", "MS.sopoll.prior-check"]) == 0
        out = capsys.readouterr().out
        assert "«init»" in out
        assert "TESLA_ASSERTION_SITE" in out

    def test_automaton_dot(self, capsys):
        assert main(["automaton", "MS.sopoll.prior-check", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "MS.sopoll.prior-check"')

    def test_unknown_assertion(self, capsys):
        assert main(["automaton", "no.such.assertion"]) == 2


class TestManifestRoundTrip:
    def test_manifest_then_show(self, tmp_path, capsys):
        path = tmp_path / "ms.tesla.json"
        assert main(["manifest", str(path), "--set", "MS"]) == 0
        assert path.exists()
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "11 assertion(s)" in out

    def test_manifest_unknown_set(self, tmp_path):
        assert main(["manifest", str(tmp_path / "x.json"), "--set", "NO"]) == 2


class TestElide:
    def test_elide_mp(self, capsys):
        assert main(["elide", "MP"]) == 0
        out = capsys.readouterr().out
        assert "monitored" in out

    def test_elide_unknown(self, capsys):
        assert main(["elide", "NO"]) == 2


class TestLint:
    def test_clean_corpus_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["lint", "bogus"]) == 2
        assert "unknown suite(s)" in capsys.readouterr().out

    def test_json_schema_is_stable(self, capsys):
        import json

        assert main(["lint", "examples", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"version", "summary", "findings"}
        assert payload["version"] == 2
        assert set(payload["summary"]) == {
            "assertions", "errors", "warnings", "infos", "clean",
            "codes", "arity_safe", "elapsed_seconds",
        }
        assert payload["summary"]["clean"] is True
        assert payload["findings"] == []

    def _stub_report(self, code):
        from repro.analysis import LintReport, diagnostic

        return LintReport(
            findings=[diagnostic(code, "stub", "seeded finding")],
            assertions_checked=1,
        )

    def test_warnings_exit_one_under_fail_on_warning(self, monkeypatch, capsys):
        import repro.analysis.lint as lint_module

        report = self._stub_report("TESLA004")
        monkeypatch.setattr(lint_module, "lint_corpus", lambda names: report)
        assert main(["lint", "examples"]) == 0
        assert main(["lint", "examples", "--fail-on", "warning"]) == 1
        assert "TESLA004" in capsys.readouterr().out

    def test_errors_exit_two(self, monkeypatch, capsys):
        import repro.analysis.lint as lint_module

        report = self._stub_report("TESLA003")
        monkeypatch.setattr(lint_module, "lint_corpus", lambda names: report)
        assert main(["lint", "examples"]) == 2
        assert main(["lint", "examples", "--fail-on", "never"]) == 0
        assert "TESLA003" in capsys.readouterr().out

    def test_min_severity_filters_text(self, monkeypatch, capsys):
        import repro.analysis.lint as lint_module

        report = self._stub_report("TESLA004")
        monkeypatch.setattr(lint_module, "lint_corpus", lambda names: report)
        main(["lint", "examples", "--min-severity", "error"])
        out = capsys.readouterr().out
        assert "TESLA004" not in out
        assert "1 warning(s)" in out  # the summary line still counts it


class TestCodegen:
    def test_summary_table_exits_zero(self, capsys):
        assert main(["codegen", "examples"]) == 0
        out = capsys.readouterr().out
        assert "dispatch key" in out
        assert "generated" in out

    def test_dump_prints_generated_source(self, capsys):
        assert main(["codegen", "examples", "--dump"]) == 0
        out = capsys.readouterr().out
        assert "# tesla-jit v" in out
        assert "def step(cr, event, hub):" in out

    def test_assertion_filter(self, capsys):
        assert main(["codegen", "examples", "--assertion", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["codegen", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().out

    def test_unknown_assertion_exits_two(self, capsys):
        assert main(["codegen", "examples", "--assertion", "nope"]) == 2
        assert "no assertion named" in capsys.readouterr().out


class TestBugs:
    def test_bugs_lists_all_known(self, capsys):
        from repro.kernel.bugs import KNOWN_BUGS

        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        for name in KNOWN_BUGS:
            assert name in out

    def test_bug_state_shown(self, capsys):
        from repro.kernel.bugs import bugs

        with bugs.injected("sugid_not_set"):
            main(["bugs"])
        out = capsys.readouterr().out
        assert "[ON ] sugid_not_set" in out
