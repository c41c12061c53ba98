"""README.md and docs/*.md name only files that exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_doc_links.py"


def test_no_broken_doc_references():
    spec = importlib.util.spec_from_file_location("check_doc_links", SCRIPT)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    broken = [
        error
        for doc in checker.doc_files()
        for error in (
            *checker.check_markdown_links(doc), *checker.check_code_spans(doc)
        )
    ]
    assert not broken
