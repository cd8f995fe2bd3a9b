"""Smoke tests: every example script runs to completion.

The CLI-capable examples are shrunk via flags; quickstart runs at its
built-in (already small) size.  Marked slow: a few seconds each.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.slow
def test_quickstart():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "top-5 PageRank" in result.stdout
    assert "database fetches" in result.stdout


@pytest.mark.slow
def test_who_to_follow():
    result = _run(
        "who_to_follow.py", "--nodes", "800", "--edges", "9600", "--users", "2"
    )
    assert result.returncode == 0, result.stderr
    assert "recommendations at t = 100%" in result.stdout
    assert "fetches" in result.stdout


@pytest.mark.slow
def test_batch_ingest():
    result = _run("batch_ingest.py", "--nodes", "500", "--edges", "6000")
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout
    assert "one whole-slice batch" in result.stdout
    assert "pagerank-store traffic" in result.stdout


@pytest.mark.slow
def test_serving():
    result = _run(
        "serving.py", "--nodes", "500", "--edges", "6000", "--queries", "300"
    )
    assert result.returncode == 0, result.stderr
    assert "cache hit" in result.stdout
    assert "results invalidated" in result.stdout
    assert "served ranking == cache-free recompute" in result.stdout
    assert "shed" in result.stdout


@pytest.mark.slow
def test_realtime_maintenance():
    result = _run(
        "realtime_maintenance.py", "--nodes", "400", "--edges", "4800"
    )
    assert result.returncode == 0, result.stderr
    assert "theorem-4 bound" in result.stdout
    assert "estimate quality" in result.stdout


@pytest.mark.slow
def test_observability(tmp_path):
    trace_out = tmp_path / "spans.jsonl"
    result = _run(
        "observability.py",
        "--nodes", "300",
        "--edges", "3600",
        "--queries", "60",
        "--rounds", "3",
        "--trace-out", str(trace_out),
    )
    assert result.returncode == 0, result.stderr
    assert "Prometheus exposition (one registry, every layer)" in result.stdout
    assert "metric families" in result.stdout
    assert "exported" in result.stdout and "spans" in result.stdout
    assert "one drain reconstructed from spans" in result.stdout
    assert "serve.drain" in result.stdout
    assert "kernel.batch" in result.stdout
    assert "store.fetch" in result.stdout
    assert trace_out.exists() and trace_out.stat().st_size > 0


@pytest.mark.slow
def test_capacity_planning():
    result = _run(
        "capacity_planning.py", "--nodes", "600", "--edges", "7200"
    )
    assert result.returncode == 0, result.stderr
    assert "closed-form budget" in result.stdout
    assert "top-20 queries used" in result.stdout


@pytest.mark.slow
def test_api_server_self_test():
    """The HTTP façade probes every route against live worker processes."""
    result = _run(
        "api_server.py",
        "--self-test",
        "--nodes", "250",
        "--edges", "2500",
        "--walks", "3",
        "--workers", "2",
    )
    assert result.returncode == 0, result.stderr
    assert "self-test OK" in result.stdout
