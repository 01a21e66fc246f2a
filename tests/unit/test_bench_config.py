"""The provenance the BENCH reports stamp: the revision they were measured at."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

BENCH_CONFIG = Path(__file__).resolve().parents[2] / "benchmarks" / "_bench_config.py"


def _bench_config():
    spec = importlib.util.spec_from_file_location("_bench_config", BENCH_CONFIG)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_git_revision_marks_modified_tracked_files_dirty(tmp_path):
    config = _bench_config()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
             "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "--short", "HEAD")

    assert config._git_revision(str(tmp_path)) == head
    (tmp_path / "untracked.txt").write_text("scratch\n")
    assert config._git_revision(str(tmp_path)) == head
    tracked.write_text("two\n")
    assert config._git_revision(str(tmp_path)) == f"{head}-dirty"

