"""The experiment harness: every table/figure runner produces sound
results on a scaled-down configuration."""

import gc

import pytest

from repro.cache import configure_cache
from repro.harness import (
    ExperimentConfig,
    Workspace,
    run_experiment,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig9,
    run_table1,
    run_table2,
)
from repro.harness.context import QUICK
from repro.interp import GoldenCapture

TINY = ExperimentConfig(
    scale="test", fi_samples=150, model_samples=150,
    per_instruction_runs=15, max_instructions=25,
    protection_fi_samples=150,
    benchmarks=("pathfinder", "bfs_rodinia"),
)


@pytest.fixture(scope="module")
def workspace():
    return Workspace(TINY)


class TestCaptures:
    def test_cold_fig5_render_keeps_one_capture_alive(self, tmp_path):
        """Each program's injector stays with the workspace, but building
        a golden capture releases the one built before it, so a cold
        render holds at most one capture, not one per program."""
        workspace = Workspace(QUICK)
        configure_cache(tmp_path)
        try:
            run_experiment("fig5", workspace)
        finally:
            configure_cache(None)
        gc.collect()
        engines = {id(workspace.context(name).engine)
                   for name in QUICK.benchmarks}
        live = [obj for obj in gc.get_objects()
                if isinstance(obj, GoldenCapture)
                and id(obj.engine) in engines]
        assert len(live) <= 1


class TestTable1:
    def test_rows_and_render(self, workspace):
        result = run_table1(workspace)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.static_instructions > 0
            assert row.dynamic_instructions > row.static_instructions
        text = result.render()
        assert "pathfinder" in text
        assert "Rodinia" in text


class TestFig5:
    def test_structure(self, workspace):
        result = run_fig5(workspace)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row.fi_sdc <= 1.0
            assert set(row.predictions) == {"trident", "fs+fc", "fs"}
        assert 0.0 <= result.trident_vs_fi_p_value <= 1.0
        assert result.mean_absolute_errors["trident"] >= 0.0

    def test_fs_fc_over_predicts(self, workspace):
        result = run_fig5(workspace)
        assert result.means["fs+fc"] > result.means["trident"]

    def test_render(self, workspace):
        text = run_fig5(workspace).render()
        assert "paired t-test" in text
        assert "%" in text


class TestTable2:
    def test_structure(self, workspace):
        result = run_table2(workspace)
        assert len(result.rows) == 2
        for row in result.rows:
            for p_value in row.p_values.values():
                assert 0.0 <= p_value <= 1.0
        for count in result.rejections.values():
            assert 0 <= count <= 2
        assert "p-values" in result.render()


class TestFig6:
    def test_scalability_shapes(self, workspace):
        result = run_fig6(workspace)
        fi = result.series_a.fi_seconds
        trident = result.series_a.trident_seconds
        # FI grows linearly with samples...
        assert fi[-1] > fi[0] * 5
        # ...TRIDENT is nearly flat (well under proportional growth).
        assert trident[-1] < trident[0] * 4
        # At the paper's 3000-sample point FI is already slower.
        index_3000 = result.series_a.samples.index(3000)
        assert fi[index_3000] > trident[index_3000]

    def test_per_instruction_projection(self, workspace):
        result = run_fig6(workspace)
        fi100 = result.series_b.fi_seconds[100]
        fi1000 = result.series_b.fi_seconds[1000]
        assert all(b == pytest.approx(a * 10) for a, b in zip(fi100, fi1000))
        assert "Figure 6" in result.render()


class TestFig7:
    def test_structure(self, workspace):
        result = run_fig7(workspace)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.fi100_seconds > row.trident_seconds
            assert 0.0 <= row.pruned_fraction <= 1.0
        assert 0.0 < result.average_pruned_fraction <= 1.0


class TestFig9:
    def test_ordering(self, workspace):
        result = run_fig9(workspace)
        for row in result.rows:
            assert row.predictions["pvf"] >= row.predictions["epvf"] - 0.05
        maes = result.mean_absolute_errors
        assert maes["pvf"] > maes["trident"]
        assert maes["epvf"] >= maes["trident"] - 0.05


class TestRunner:
    def test_unknown_experiment(self, workspace):
        with pytest.raises(KeyError):
            run_experiment("fig42", workspace)

    def test_experiment_by_name(self, workspace):
        result = run_experiment("table1", workspace)
        assert result.rows
