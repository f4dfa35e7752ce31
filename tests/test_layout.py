"""Every test module lives under ``testpaths``, so tier-1 collects it.

``pytest`` collects only ``testpaths = ["tests"]``: a ``test_*.py`` or
``bench_*.py`` anywhere else holds assertions that nothing runs.
"""

import os
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TEST_PATTERNS = ("test_", "bench_")


def stray_test_modules(root: Path) -> list[str]:
    """Test-looking modules under *root* but outside ``root/tests``."""
    strays = []
    for directory, subdirs, files in os.walk(root):
        here = Path(directory)
        subdirs[:] = sorted(
            name for name in subdirs
            if not name.startswith(".")
            and name != "__pycache__"
            and here / name != root / "tests"
        )
        strays += [
            str((here / name).relative_to(root))
            for name in sorted(files)
            if name.startswith(TEST_PATTERNS) and name.endswith(".py")
        ]
    return strays


def test_pytest_collects_tests_only():
    text = (REPO / "pyproject.toml").read_text()
    assert 'testpaths = ["tests"]' in text
    assert 'python_files = ["test_*.py"]' in text


def test_no_test_module_lives_outside_testpaths():
    assert stray_test_modules(REPO) == []


def test_a_stray_module_is_found(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_kept.py").write_text("")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_lost.py").write_text("")
    (tmp_path / "test_top.py").write_text("")
    assert stray_test_modules(tmp_path) == [
        "test_top.py", os.path.join("benchmarks", "bench_lost.py"),
    ]
