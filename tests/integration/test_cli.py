"""The command line interface."""

import io
import re

import pytest

from repro.cache import configure_cache
from repro.cli import main
from repro.query import reset_query_stores


def run_cli(*argv) -> str:
    out = io.StringIO()
    status = main(list(argv), out=out)
    assert status == 0
    return out.getvalue()


class TestCli:
    def test_list(self):
        text = run_cli("list")
        assert "pathfinder" in text
        assert "Rodinia" in text
        assert text.count("\n") >= 12

    def test_show_prints_ir(self):
        text = run_cli("show", "nw", "--scale", "test")
        assert "func @main() : void {" in text
        assert "icmp" in text

    def test_analyze(self):
        text = run_cli("analyze", "pathfinder", "--scale", "test",
                       "--samples", "200", "--top", "3")
        assert "overall SDC probability" in text
        assert "overall crash probability" in text
        assert text.count("%") > 5

    def test_analyze_explain_prints_cfg_counters(self, tmp_path):
        # Cold stores, so the model evaluates its CFG queries.
        reset_query_stores()
        try:
            text = run_cli("--cache-dir", str(tmp_path), "analyze",
                           "pathfinder", "--scale", "test", "--samples",
                           "200", "--explain")
        finally:
            configure_cache(None)
        assert "query counters (hit/miss/invalidated):" in text
        for name in ("cfg.control_dependence", "cfg.loop_info",
                     "cfg.postdominators"):
            assert re.search(rf"^  {re.escape(name)} +\d+h +[1-9]\d*m ",
                             text, re.MULTILINE), name

    def test_analyze_simpler_model(self):
        text = run_cli("analyze", "pathfinder", "--scale", "test",
                       "--samples", "200", "--model", "fs")
        assert "model:   fs" in text
        assert "crash probability" not in text  # trident-only extension

    def test_inject(self):
        text = run_cli("inject", "pathfinder", "--scale", "test",
                       "--runs", "100")
        assert "sdc" in text
        assert "crash" in text
        assert "±" in text

    def test_inject_reports_tier(self, tmp_path):
        try:  # an empty store, so the campaign runs
            text = run_cli("--cache-dir", str(tmp_path), "inject",
                           "pathfinder", "--scale", "test", "--runs", "50",
                           "--interp-tier", "codegen")
        finally:
            configure_cache(None)
        assert "\ninterp tier: codegen\n" in text

    def test_closure_tier_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("inject", "pathfinder", "--interp-tier", "closure")
        assert exc.value.code == 2
        assert "invalid choice: 'closure'" in capsys.readouterr().err

    def test_protect(self):
        text = run_cli("protect", "pathfinder", "--scale", "test",
                       "--runs", "150", "--budget", "0.5")
        assert "SDC reduction" in text
        assert "instructions protected" in text

    def test_experiment_table1(self):
        text = run_cli("experiment", "table1", "--scale", "test",
                       "--fi-samples", "100")
        assert "Table I" in text

    def test_input_seed_changes_program(self):
        a = run_cli("show", "pathfinder", "--scale", "test")
        b = run_cli("show", "pathfinder", "--scale", "test",
                    "--input-seed", "1")
        assert a != b

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("analyze", "doom", "--scale", "test")

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_rejected(self, samples, capsys):
        with pytest.raises(SystemExit):
            run_cli("analyze", "pathfinder", "--scale", "test",
                    "--samples", samples)
        assert "must be at least 1" in capsys.readouterr().err

    def test_negative_top_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "pathfinder", "--scale", "test",
                    "--samples", "200", "--top", "-3")
        assert exc.value.code == 2
        assert "must be at least 0, got -3" in capsys.readouterr().err

    def test_top_zero_lists_no_instruction(self):
        text = run_cli("analyze", "pathfinder", "--scale", "test",
                       "--samples", "200", "--top", "0")
        listing = text.split("top 0 SDC-prone instructions:\n")[1]
        assert not re.search(r"^ +\d+\.\d\d%  ", listing, re.MULTILINE)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")
