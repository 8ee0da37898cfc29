"""Public-API surface checks: imports, __all__ hygiene, version."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.simulate",
    "repro.network",
    "repro.cluster",
    "repro.storage",
    "repro.mpi",
    "repro.blcr",
    "repro.ftb",
    "repro.launch",
    "repro.pipeline",
    "repro.core",
    "repro.workloads",
    "repro.analysis",
    "repro.sched",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"
    exported = getattr(mod, "__all__", [])
    assert exported, f"{name} lacks __all__"
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_quickstart_surface():
    """The README's quickstart names must exist exactly as documented."""
    import repro

    for name in ("Scenario", "JobMigrationFramework", "MigrationTrigger",
                 "CheckpointRestartStrategy", "LiveMigrationStrategy",
                 "RDMAMigrationSession", "NPBApplication", "NPB_TABLE",
                 "DEFAULT_TESTBED", "MB"):
        assert hasattr(repro, name), name


def test_public_classes_have_docstrings():
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{name} lacks a class docstring"


def test_one_event_loop():
    """The kernel is one heap-driven ``Simulator``: nothing selects an
    alternative event queue, and no partitioned loop is exported."""
    import inspect

    import repro.simulate as simulate
    from repro import Scenario
    from repro.cluster import ClusterScale

    assert list(inspect.signature(simulate.Simulator).parameters) == [
        "start", "trace", "metrics"]
    build = inspect.signature(Scenario.build).parameters
    assert "scheduler" not in build and "shards" not in build
    assert "scheduler" not in inspect.signature(ClusterScale).parameters
    assert not [n for n in simulate.__all__ if "Shard" in n]
    assert not hasattr(simulate.Simulator, "shard_id")
