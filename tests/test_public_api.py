"""The README's public API surface must keep working as documented."""

import pytest

import repro
from repro import (
    MEMCACHED_BAGS,
    OperatingPoint,
    ServerDesign,
    evaluate_server,
    iridium_stack,
    mercury_stack,
)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_snippet(self):
        # The exact flow documented in the package docstring / README.
        server = ServerDesign(stack=mercury_stack(cores=32))
        metrics = evaluate_server(server)
        assert metrics.tps / 1e6 > 30
        assert metrics.ktps_per_watt > 50

    def test_headline_comparison_flow(self):
        mercury = evaluate_server(ServerDesign(stack=mercury_stack(32)))
        iridium = evaluate_server(ServerDesign(stack=iridium_stack(32)))
        bags = MEMCACHED_BAGS
        assert mercury.tps / bags.tps == pytest.approx(10, rel=0.35)
        assert iridium.density_gb / bags.memory_gb == pytest.approx(14.8, rel=0.1)

    def test_operating_point_customisation(self):
        server = ServerDesign(stack=mercury_stack(cores=8))
        photo_point = OperatingPoint(verb="GET", value_bytes=64 * 1024)
        metrics = evaluate_server(server, photo_point)
        assert metrics.tps > 0
        assert metrics.bandwidth_bytes_s == pytest.approx(metrics.tps * 64 * 1024)


class TestReplicationExports:
    """PR 3's lazy (PEP 562) replication exports and cycle freedom."""

    LAZY_NAMES = [
        "QuorumConfig",
        "ReplicationConfig",
        "ReplicationCoordinator",
        "ReplicaPlacement",
        "HintQueue",
        "AntiEntropySweeper",
    ]

    def test_lazy_exports_resolve_and_are_listed(self):
        for name in self.LAZY_NAMES:
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None, name

    def test_sim_reexports_replication_config(self):
        import repro.sim

        assert repro.sim.ReplicationConfig is repro.ReplicationConfig
        assert "ReplicationConfig" in repro.sim.__all__

    def test_unknown_attribute_still_raises(self):
        import repro.sim

        with pytest.raises(AttributeError):
            repro.no_such_symbol  # noqa: B018
        with pytest.raises(AttributeError):
            repro.sim.no_such_symbol  # noqa: B018

    def test_fresh_import_is_cycle_free(self):
        """Regression for the kvstore.client <-> replication cycle: a
        fresh interpreter must import every entry point in any order."""
        import subprocess
        import sys

        scripts = [
            "import repro; import repro.kvstore.client; import repro.replication",
            "import repro.replication; import repro.kvstore.client; import repro",
            "import repro.kvstore.client; from repro import ReplicationCoordinator",
            "from repro.sim import FullSystemStack, ReplicationConfig",
        ]
        for script in scripts:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{script!r} failed:\n{proc.stderr}"


class TestPackageExports:
    """Every package re-exports lazily (PEP 562) from its defining modules."""

    SCRIPT = r"""
import importlib
import json
import pkgutil
import sys
import types

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
packages = [m for n, m in sorted(sys.modules.items())
            if n.startswith("repro") and hasattr(m, "__path__")]
problems = []
for package in packages:
    table = package._EXPORTS
    listed = [name for names in table.values() for name in names]
    if [n for n in package.__all__ if n != "__version__"] != listed:
        problems.append(f"{package.__name__}.__all__ differs from its table")
    for module_name, names in table.items():
        module = sys.modules[module_name]
        for name in names:
            value = getattr(package, name, None)
            if isinstance(value, types.ModuleType):
                problems.append(f"{package.__name__}.{name} is a module")
            elif value is None or value is not getattr(module, name):
                problems.append(
                    f"{package.__name__}.{name} is not {module_name}.{name}"
                )
print(json.dumps([len(packages), problems]))
"""

    def test_every_export_is_its_defining_modules_object(self):
        """After every submodule is imported, each package's ``__all__``
        still resolves to the defining module's objects: a name that
        equals its own submodule (``repro.core.design_space``) must not
        be shadowed by the module."""
        import json
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        count, problems = json.loads(proc.stdout.splitlines()[-1])
        assert count == 17
        assert problems == []
