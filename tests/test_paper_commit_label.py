"""The commit label of a ``benchmarks.paper`` record.

``--append`` writes ``BENCH_paper.json`` and nothing else, so the record
file alone must not mark the next record's commit ``-dirty``; an edit to
any other tracked file must.
"""

from __future__ import annotations

import subprocess

import pytest

from benchmarks.paper import RECORD, describe_commit


def git(root, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / RECORD.name).write_text("[]\n")
    (tmp_path / "code.py").write_text("x = 1\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_editing_only_the_record_keeps_the_label_clean(repo):
    head = git(repo, "rev-parse", "--short", "HEAD")
    assert describe_commit(repo) == head
    (repo / RECORD.name).write_text('[{"commit": "x"}]\n')
    assert describe_commit(repo) == head


def test_editing_another_tracked_file_marks_it_dirty(repo):
    head = git(repo, "rev-parse", "--short", "HEAD")
    (repo / RECORD.name).write_text('[{"commit": "x"}]\n')
    (repo / "code.py").write_text("x = 2\n")
    assert describe_commit(repo) == f"{head}-dirty"
