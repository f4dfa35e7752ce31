"""The documentation consistency checker stays green.

Runs ``tools/check_docs.py`` (the CI docs job) in-process: every
intra-repo markdown link resolves, every ``repro.*`` dotted code
reference imports, every path-like reference exists, every CLI flag
mentioned in ``docs/*.md``/``README.md`` (inline or in fenced command
blocks) is declared under ``src/`` or ``tools/``, and every file under
``docs/`` is cross-linked from some other markdown file.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_are_consistent():
    result = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_architecture_doc_exists_and_is_checked():
    checker = load_checker()
    names = {path.name for path in checker.tracked_markdown()}
    assert "ARCHITECTURE.md" in names
    assert "ALGORITHMS.md" in names
    assert "OBSERVABILITY.md" in names


def test_checker_catches_broken_link(tmp_path):
    checker = load_checker()
    problems = []
    doc = REPO / "docs" / "ARCHITECTURE.md"
    checker.check_links(doc, "[x](no-such-file.md)", problems, set())
    assert problems and "broken link" in problems[0]


def test_checker_records_cross_links():
    checker = load_checker()
    problems, linked = [], set()
    doc = REPO / "docs" / "ARCHITECTURE.md"
    checker.check_links(doc, "[r](RECOVERY.md)", problems, linked)
    assert not problems
    assert (REPO / "docs" / "RECOVERY.md").resolve() in linked
    # Backtick file references count as reachability too.
    checker.check_code_refs(doc, "`docs/SERVING.md`", "", problems, linked)
    assert not problems
    assert (REPO / "docs" / "SERVING.md").resolve() in linked


def test_checker_catches_unknown_flag_in_fenced_block():
    checker = load_checker()
    problems = []
    doc = REPO / "docs" / "ARCHITECTURE.md"
    text = "```bash\npython -m repro.cli run x.ops --no-such-flag\n```\n"
    checker.check_code_refs(doc, text, "", problems, set())
    assert problems and "--no-such-flag" in problems[0]
    # Known external flags stay exempt wherever they appear.
    problems = []
    text = "```sh\npytest -x -q --hypothesis-seed 0\n```\n"
    checker.check_code_refs(doc, text, "", problems, set())
    assert not problems


def test_checker_catches_bad_code_ref():
    checker = load_checker()
    problems = []
    doc = REPO / "docs" / "ARCHITECTURE.md"
    checker.check_dotted(doc, "repro.match.base.NoSuchThing", problems)
    assert problems and "NoSuchThing" in problems[0]
    problems = []
    checker.check_dotted(doc, "repro.no_such_module.Thing", problems)
    assert problems and "no_such_module" in problems[0]
