"""Public-API quality gates: exports resolve and carry documentation."""

import inspect
import os
import subprocess
import sys

import pytest

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_public_item_is_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert undocumented == []

    def test_every_module_has_a_docstring(self):
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        missing = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            stripped = text.lstrip()
            if not (
                stripped.startswith('"""') or stripped.startswith("'''")
            ):
                missing.append(str(path.relative_to(root)))
        assert missing == []

    def test_strategy_registry_is_complete(self):
        assert set(repro.STRATEGIES) == {
            "rete",
            "rete-shared",
            "rete-dbms",
            "simplified",
            "simplified-indexed",
            "patterns",
            "markers",
            "predicate-index",
        }

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.lang",
            "repro.storage",
            "repro.rindex",
            "repro.match",
            "repro.engine",
            "repro.txn",
            "repro.workload",
            "repro.bench",
            "repro.cli",
        ],
    )
    def test_subpackages_import(self, module):
        __import__(module)


def test_cli_import_leaves_out_undeclared_packages():
    """``repro.cli`` loads nothing the package does not declare: the
    conflict-graph code of :mod:`repro.txn` is plain dictionaries, so
    ``networkx`` never loads (nor has to be installed)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
