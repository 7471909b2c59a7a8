"""CSV export of figure/table series."""

import csv
import io

import pytest

from repro.analysis.export import (
    figure4_csv,
    figure5_csv,
    sweep_csv,
    table1_csv,
)
from repro.analysis.figure4 import run_figure4
from repro.analysis.figure5 import run_figure5
from repro.analysis.table1 import run_table1
from repro.config import fgnvm
from repro.sim.parallel import ParallelExperimentEngine
from repro.sim.sweeps import parameter_sweep

BENCHES = ["sphinx3"]
REQUESTS = 500


@pytest.fixture(scope="module")
def engine():
    return ParallelExperimentEngine()


def parse(buffer):
    return list(csv.reader(io.StringIO(buffer.getvalue())))


class TestFigureExports:
    def test_figure4_csv_shape(self, engine):
        result = run_figure4(BENCHES, REQUESTS, engine)
        buffer = io.StringIO()
        rows = figure4_csv(result, buffer)
        parsed = parse(buffer)
        assert parsed[0] == ["benchmark", "fgnvm", "128-banks",
                            "fgnvm-multi-issue"]
        assert rows == 2  # sphinx3 + gmean
        assert parsed[1][0] == "sphinx3"
        assert float(parsed[1][1]) > 0

    def test_figure5_csv_shape(self, engine):
        result = run_figure5(BENCHES, REQUESTS, engine)
        buffer = io.StringIO()
        rows = figure5_csv(result, buffer)
        parsed = parse(buffer)
        assert "8x32-perfect" in parsed[0]
        assert rows == 2  # sphinx3 + average
        assert 0 < float(parsed[1][1]) < 1

    def test_file_target(self, engine, tmp_path):
        result = run_figure4(BENCHES, REQUESTS, engine)
        path = tmp_path / "fig4.csv"
        figure4_csv(result, path)
        assert path.read_text().startswith("benchmark,")


class TestTableAndSweepExports:
    def test_table1_csv_matches_paper_columns(self):
        buffer = io.StringIO()
        rows = table1_csv(run_table1(), buffer)
        parsed = parse(buffer)
        assert parsed[0] == ["component", "model_avg", "paper_avg",
                             "model_max", "paper_max"]
        assert rows == 5
        by_name = {row[0]: row for row in parsed[1:]}
        assert float(by_name["csl_latches_um2"][1]) == pytest.approx(636.3)

    def test_sweep_csv(self):
        cfg = fgnvm(8, 2)
        cfg.org.rows_per_bank = 512
        sweep = parameter_sweep(
            cfg, "cpu.rob_entries", [64, 128], "sphinx3", requests=300
        )
        buffer = io.StringIO()
        rows = sweep_csv(sweep, buffer)
        parsed = parse(buffer)
        assert rows == 2
        assert parsed[1][0] == "cpu.rob_entries=64"
