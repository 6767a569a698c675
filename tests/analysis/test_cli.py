"""The one analysis CLI: the strict gate over every corpus, the ``flow``
alias (run from inside a package directory, as ``.``), and one parse
per analyzed file."""

import ast
import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.common import iter_python_files
from tests.analysis.test_flow import _run_cli

HERE = Path(__file__).parent
CORPORA = (HERE / "corpus", HERE / "corpus_flow", HERE / "corpus_nested")

CLEAN = sorted(p for corpus in CORPORA for p in corpus.glob("clean_*.py"))
CLEAN.append(HERE / "corpus_flow" / "hashpkg_clean")
BAD = sorted(p for corpus in CORPORA for p in corpus.glob("bad_*.py"))
BAD.append(HERE / "corpus_flow" / "hashpkg_bad")


@pytest.mark.parametrize("path", CLEAN, ids=lambda p: p.name)
def test_strict_gate_passes_every_clean_case(path):
    proc = _run_cli("lint", "--strict", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.name)
def test_strict_gate_fails_every_bad_case(path):
    proc = _run_cli("lint", "--strict", str(path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "STRICT" in proc.stderr


@pytest.mark.parametrize("corpus", CORPORA, ids=lambda p: p.name)
def test_lint_and_flow_write_identical_reports(corpus, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(corpus)
    reports = {}
    for command in ("lint", "flow"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--json", str(out), "."]) == 0
        reports[command] = out.read_bytes()
    assert reports["lint"] == reports["flow"]


def test_each_file_is_parsed_once(tmp_path, monkeypatch):
    corpus = HERE / "corpus"
    baseline = tmp_path / "debt_baseline.json"
    shutil.copy(HERE / "debt_baseline.json", baseline)
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", mode="exec",
                       **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    main(["lint", "--strict", "--debt", "--debt-baseline", str(baseline),
          str(corpus)])
    files = [str(p) for p in iter_python_files([corpus])]
    assert len(files) == 15
    assert sorted(parsed) == sorted(files)
