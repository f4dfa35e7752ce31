#!/usr/bin/env python
"""Documentation consistency checker (run in CI's docs job).

Walks every tracked markdown file and verifies that the documentation
cannot silently rot:

* **Links** — every relative markdown link ``[text](target)`` resolves to
  a file in the repository (anchors are stripped; external schemes are
  skipped).
* **Code references** — every inline-code fragment that *looks like* a
  repository artifact actually exists:

  - dotted module/attribute paths starting with ``repro.`` must import
    (``repro.match.base.MatchStrategy``, ``repro.bench.report`` …);
  - path-like fragments ending in ``.py``/``.md``/``.ops``/``.yml`` must
    exist on disk;
  - ``--flag`` fragments appearing in ``docs/*.md`` or ``README.md`` —
    inline code *and* fenced command blocks — must be declared somewhere
    under ``src/`` or ``tools/`` (the CLI surface), unless they belong
    to well-known external tools (pytest, pip).

* **Cross-links** — every file under ``docs/`` must be the target of at
  least one markdown link from *another* tracked markdown file, so a new
  guide cannot land unreachable from the documentation graph.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Flags owned by external tools, allowed to appear without a repo match.
EXTERNAL_FLAGS = {
    "--find-links",
    "--hypothesis-seed",
    "--quiet",
    "-e",
    "-m",
    "-q",
    "-x",
}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
FENCE_RE = re.compile(r"^```.*?\n(.*?)^```", re.MULTILINE | re.DOTALL)
DOTTED_RE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+(\(\))?$")
FLAG_RE = re.compile(r"^--[a-z][a-z0-9-]*$")
PATHLIKE_RE = re.compile(r"^[\w./-]+\.(py|md|ops|yml)$")


#: Meta files of the repo-growth process, not product documentation —
#: they quote external repos and abbreviated paths on purpose.
EXCLUDED = {"ISSUE.md", "SNIPPETS.md", "PAPERS.md", "PAPER.md", "CHANGES.md"}

#: ROADMAP.md plans work ahead of the code, so it names modules and files
#: that the changes it plans will create.
EXCLUDED.add("ROADMAP.md")


def tracked_markdown() -> list[Path]:
    docs = sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
    return [p for p in docs if p.is_file() and p.name not in EXCLUDED]


def check_links(
    path: Path, text: str, problems: list[str], linked: set[Path]
) -> None:
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link {target}")
        elif resolved != path:
            linked.add(resolved)


def check_flags(
    path: Path, fragment: str, src_text: str, problems: list[str]
) -> None:
    for flag in re.findall(r"--[a-z][a-z0-9-]*", fragment):
        if flag in EXTERNAL_FLAGS:
            continue
        if FLAG_RE.match(flag) and flag not in src_text:
            problems.append(
                f"{path.relative_to(REPO)}: flag {flag} "
                "not declared under src/ or tools/"
            )


def check_dotted(path: Path, ref: str, problems: list[str]) -> None:
    parts = ref.removesuffix("()").split(".")
    # Find the longest importable module prefix, then getattr the rest.
    module = None
    index = len(parts)
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ImportError:
            index -= 1
    if module is None:
        problems.append(f"{path.relative_to(REPO)}: unimportable ref {ref}")
        return
    obj = module
    for attr in parts[index:]:
        if not hasattr(obj, attr):
            problems.append(
                f"{path.relative_to(REPO)}: {ref} has no attribute {attr!r}"
            )
            return
        obj = getattr(obj, attr)


def check_code_refs(
    path: Path,
    text: str,
    src_text: str,
    problems: list[str],
    linked: set[Path],
) -> None:
    flags_checked = path.parent.name == "docs" or path.name == "README.md"
    for match in CODE_RE.finditer(text):
        ref = match.group(1).strip()
        if DOTTED_RE.match(ref):
            check_dotted(path, ref, problems)
        elif PATHLIKE_RE.match(ref) and "/" in ref:
            if not (REPO / ref).exists():
                problems.append(
                    f"{path.relative_to(REPO)}: missing file ref {ref}"
                )
            elif ref.endswith(".md"):
                resolved = (REPO / ref).resolve()
                if resolved != path:
                    linked.add(resolved)
        elif flags_checked:
            check_flags(path, ref, src_text, problems)
    if flags_checked:
        for block in FENCE_RE.findall(text):
            check_flags(path, block, src_text, problems)


def main() -> int:
    src_text = "\n".join(
        p.read_text(encoding="utf-8")
        for root in ("src", "tools")
        for p in sorted((REPO / root).rglob("*.py"))
    )
    problems: list[str] = []
    linked: set[Path] = set()
    for path in tracked_markdown():
        text = path.read_text(encoding="utf-8")
        check_links(path, text, problems, linked)
        check_code_refs(path, text, src_text, problems, linked)
    for path in tracked_markdown():
        if path.parent.name == "docs" and path not in linked:
            problems.append(
                f"{path.relative_to(REPO)}: orphan — no other markdown "
                "file links to it"
            )
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print(f"docs ok: {len(tracked_markdown())} markdown files checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
