"""Package surface: exports resolve, version is coherent."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


SUBPACKAGES = (
    "repro.config", "repro.memsys", "repro.core", "repro.cpu",
    "repro.workloads", "repro.sim", "repro.analysis", "repro.obs",
    "repro.obs.perf", "repro.resilience",
)

#: Modules ``import repro.cli`` must not load: each belongs to commands
#: that import it themselves (telemetry, perf ledger, drift, the
#: degradation figure, multi-core) or to the process pool (``socket``).
NOT_LOADED_BY_CLI = (
    "repro.obs.hub", "repro.obs.perf.ledger", "repro.obs.drift",
    "repro.analysis.figure_degradation", "repro.sim.multicore",
    "socket", "http.server",
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", ("repro",) + SUBPACKAGES)
def test_dir_lists_every_export(name):
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("name", ("repro",) + SUBPACKAGES)
def test_star_import_binds_every_export(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for symbol in module.__all__:
        assert namespace[symbol] is getattr(module, symbol)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.sim.no_such_name


def test_workloads_characterize_is_the_function():
    """The name is also a submodule; the package binds the function."""
    import repro.workloads.characterize  # noqa: F401 (the submodule)
    from repro import workloads

    assert callable(workloads.characterize)
    assert workloads.characterize.__name__ == "characterize"


def test_cli_import_loads_only_what_the_parser_needs():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "repro.cli" in loaded
    assert [m for m in NOT_LOADED_BY_CLI if m in loaded] == []


def test_trace_replay_path_loads_no_engine():
    """``repro run --trace`` simulates in-process: the experiment engine,
    its supervision and the process pool stay unloaded."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.sim.experiment; "
         "print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "repro.sim.experiment" in loaded
    engine = [m for m in loaded
              if m == "repro.sim.parallel"
              or m.startswith(("repro.resilience", "concurrent.futures"))]
    assert engine == []


#: Modules a warm ``repro reproduce`` must not load: the simulator, the
#: CPU and controller models, the telemetry stream and the process pool.
#: An all-hit run calls none of them.
NOT_LOADED_BY_WARM_REPRODUCE = (
    "repro.sim.simulator", "repro.sim.system", "repro.cpu",
    "repro.memsys.controller", "repro.obs.stream",
    "concurrent.futures", "multiprocessing.pool",
)


@pytest.mark.timeout(300)
def test_warm_reproduce_loads_no_simulator_or_pool(tmp_path, capsys):
    from repro import cli

    argv = ["reproduce", "--requests", "300", "--benchmarks", "mcf",
            "--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv + ["--workers", "1",
                            "--out", str(tmp_path / "cold")]) == 0
    capsys.readouterr()

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    warm = argv + ["--workers", "2", "--out", str(tmp_path / "warm")]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; code = repro.cli.main(sys.argv[1:]); "
         "print(*sorted(sys.modules)); sys.exit(code)", *warm],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert "engine: 0 simulation(s)" in run.stderr
    loaded = run.stdout.splitlines()[-1].split()
    assert "repro.sim.parallel" in loaded
    unwanted = [m for m in loaded
                if m.startswith(NOT_LOADED_BY_WARM_REPRODUCE)]
    assert unwanted == []


def test_top_level_all_resolves():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)


def test_version_matches_metadata():
    assert repro.__version__ == "1.0.0"


def test_error_hierarchy_is_rooted():
    from repro import errors

    leaves = [
        errors.ConfigError, errors.AddressError, errors.ProtocolError,
        errors.SchedulerError, errors.QueueFullError,
        errors.TraceFormatError, errors.SimulationError,
    ]
    for leaf in leaves:
        assert issubclass(leaf, errors.ReproError)
    assert issubclass(errors.ReproError, Exception)


def test_cli_is_importable_as_module_main():
    from repro import cli

    parser = cli.make_parser()
    for command in cli._HANDLERS:
        # Every handler is reachable from the parser's subcommands.
        assert command in parser.format_help()
