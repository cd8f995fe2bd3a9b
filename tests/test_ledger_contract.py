"""The ledger's contract with ``src/``.

``benchmarks/ledger`` measures the program from outside: it imports
``repro`` names and *rebinds* layer-boundary callables
(``recorder.wrap(owner, attr, ...)`` in ``harness.instrument`` /
``instrument_reader``).  A rename in ``src/`` would only surface in the
judge's traced run; this test makes it fail tier-1 instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from repro.core import incremental
from repro.core.incremental import IncrementalPageRank
from repro.core.reverse_push import ReversePushEngine
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import directed_cycle
from repro.serve.batcher import RequestBatcher
from repro.serve.engine import QueryEngine
from repro.serve.epochs import ArenaPublisher
from repro.serve.frontend import MultiProcessFrontend
from repro.serve.wal import WriteAheadLog
from repro.store import persistence

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def _trees():
    for path in sorted(LEDGER.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_repro_import_resolves():
    checked = 0
    for filename, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names if a.name.startswith("repro")]
                for name in modules:
                    importlib.import_module(name)
                    checked += 1
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro"
            ):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):  # a submodule import
                        importlib.import_module(f"{node.module}.{alias.name}")
                    checked += 1
    assert checked, f"no repro imports found under {LEDGER}"


def test_every_rebound_callable_resolves():
    """Each ``recorder.wrap(owner, "attr", ...)`` target exists and is callable."""
    engine = IncrementalPageRank.from_graph(directed_cycle(6), walks_per_node=1, rng=0)
    query_engine = QueryEngine(engine)
    batcher = RequestBatcher(query_engine)
    # harness owner expression -> the src object (or class) it evaluates to
    owners = {
        "engine": engine,
        "engine.social_store": engine.social_store,
        "engine.walks": engine.walks,
        "DynamicDiGraph": DynamicDiGraph,
        "incremental_module": incremental,
        "ReversePushEngine": ReversePushEngine,
        "persistence_module": persistence,
        "reader.batcher": batcher,
        "reader.query_engine": query_engine,
        "kernel": query_engine.kernel,
        "dep.wal": WriteAheadLog,
        "dep.frontend": MultiProcessFrontend,
        "dep.frontend.publisher": ArenaPublisher,
    }
    try:
        harness = dict(_trees())["harness.py"]
        targets = {
            (ast.unparse(node.args[0]), node.args[1].value)
            for node in ast.walk(harness)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and ast.unparse(node.func.value) == "recorder"
        }
        assert ("persistence_module", "load_shared_engine") in targets
        for owner, attr in sorted(targets):
            assert owner in owners, f"harness wraps {owner}.{attr}: add it here"
            assert callable(getattr(owners[owner], attr, None)), (
                f"ledger rebinds {owner}.{attr}, which no longer resolves"
            )
    finally:
        batcher.close()
        query_engine.detach()
