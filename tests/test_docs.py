"""The docs, the CI workflow and the verify skill name only files that exist.

Three classes of reference are verified across ``README.md``,
``docs/*.md``, ``.claude/skills/verify/SKILL.md`` and
``.github/workflows/ci.yml``:

* **Markdown links** ``[text](target)`` — relative targets (optionally
  with a ``#anchor``) must resolve relative to the file holding the
  link.  ``http(s)``/``mailto`` targets are skipped (no network).
* **Backtick references** — an inline code span that looks like a file
  (ends in a known suffix; no spaces, wildcards or call syntax).  With a
  ``/`` it must be a path from the repo root, ``src/`` or ``src/repro/``
  (docs may use import-style shorthand); without one it must be the
  basename of some file in the repo — so a deleted ``bench_*.py`` or
  results file cannot linger in prose that reads as current.
* **Commands** — the script argument of every ``python <path>.py``.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
PYTHON_SCRIPT = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")
PATH_SUFFIXES = (".py", ".md", ".json", ".yml", ".toml", ".txt")
BARE_SUFFIXES = (".py", ".json", ".yml", ".toml")
SKIP_SCHEMES = ("http://", "https://", "mailto:")
#: Not the repository's own files: VCS state and what runs leave behind.
SKIP_DIRS = {".git", ".hypothesis", ".pytest_cache", "__pycache__", "out"}


def checked_files() -> list[Path]:
    return [
        REPO / "README.md",
        *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
        REPO / ".github" / "workflows" / "ci.yml",
    ]


def repo_basenames() -> set[str]:
    names: set[str] = set()
    for _, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        names.update(files)
    return names


def broken_links(doc: Path) -> list[str]:
    errors = []
    for target in MD_LINK.findall(doc.read_text()):
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        if not (doc.parent / target.split("#", 1)[0]).exists():
            errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
    return errors


def _exists(path: str) -> bool:
    return any(
        (root / path).exists()
        for root in (REPO, REPO / "src", REPO / "src" / "repro")
    )


def missing_files(doc: Path, basenames: set[str]) -> list[str]:
    text = doc.read_text()
    errors = []
    for span in CODE_SPAN.findall(text):
        if any(ch in span for ch in " *(){}<>$…"):
            continue
        if "/" in span:
            found = not span.endswith((*PATH_SUFFIXES, "/")) or _exists(span)
        else:
            found = not span.endswith(BARE_SUFFIXES) or span in basenames
        if not found:
            errors.append(f"{doc.relative_to(REPO)}: missing file -> {span}")
    for script in PYTHON_SCRIPT.findall(text):
        if not _exists(script):
            errors.append(f"{doc.relative_to(REPO)}: missing script -> {script}")
    return errors


def test_no_broken_doc_references():
    basenames = repo_basenames()
    broken = [
        error
        for doc in checked_files()
        for error in (*broken_links(doc), *missing_files(doc, basenames))
    ]
    assert not broken, "\n".join(broken)
