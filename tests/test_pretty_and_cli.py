"""Tests for the program printer and the command-line interface."""

import pytest

from repro.isa.pretty import format_instruction, format_program, summarize_program
from repro.__main__ import main as cli_main

from helpers import build_sum_loop


class TestPretty:
    def test_format_program_contains_blocks(self, sum_loop):
        text = format_program(sum_loop)
        assert "entry:" in text and "loop:" in text and "done:" in text

    def test_format_program_live_in(self, diamond):
        text = format_program(diamond)
        assert "live-in" in text

    def test_region_annotations_rendered(self):
        from repro.compiler.regions import partition_regions

        prog = build_sum_loop(trip=3)
        partition_regions(prog, max_stores=2)
        text = format_program(prog)
        assert "region boundary" in text
        assert "; R" in text

    def test_format_instruction_store_kind(self):
        from repro.isa import instructions as ins
        from repro.isa.registers import Reg

        st = ins.store(Reg.phys(1), Reg.phys(2), kind=ins.StoreKind.SPILL)
        st.region_id = 5
        text = format_instruction(st)
        assert "spill" in text and "R5" in text

    def test_summarize_counts(self, sum_loop):
        summary = summarize_program(sum_loop)
        assert summary["instructions"] == sum_loop.num_instructions
        assert summary["stores"] == 2
        assert summary["branches"] == 1
        assert summary["bytes"] == sum_loop.static_size_bytes


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CPU2006.mcf" in out and "SPLASH3.radix" in out

    def test_run_turnpike(self, capsys):
        assert cli_main(["run", "CPU2006.xalan", "--wcdl", "10"]) == 0
        out = capsys.readouterr().out
        assert "normalized time" in out
        assert "WAR-free released" in out

    def test_run_baseline_scheme(self, capsys):
        assert cli_main(["run", "CPU2006.xalan", "--scheme", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "normalized time:  1.000" in out

    def test_inject(self, capsys):
        assert (
            cli_main(["inject", "CPU2006.bzip2", "--count", "4", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "turnstile" in out and "unsafe" in out

    def test_sensors(self, capsys):
        assert cli_main(["sensors"]) == 0
        out = capsys.readouterr().out
        assert "sensors" in out and "%" in out

    def test_figure_table1(self, capsys):
        assert cli_main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "621.28" in out

    def test_figure_fig18(self, capsys):
        assert cli_main(["figure", "fig18"]) == 0
        out = capsys.readouterr().out
        assert "GHz" in out

    def test_figure_unknown(self, capsys):
        assert cli_main(["figure", "fig99"]) == 2
        assert capsys.readouterr().err == "unknown figure id 'fig99'\n"

    def test_figure_and_sweep_resolve_every_id(self, monkeypatch, capsys):
        """Both commands reach the suite entry of every suite id and
        alias; ``figure`` prints the entry's view of that id when it has
        one, ``sweep`` always the entry's own text. Stub entries stand
        in for the 36-benchmark drivers."""
        from dataclasses import replace

        from repro.harness import experiments as exp

        stubs = {
            sid: replace(
                fig, run=lambda *_: None, pairs=lambda: [],
                text=lambda _r, sid=sid: f"text {sid}",
                views={v: (lambda _r, v=v: f"view {v}") for v in fig.views},
            )
            for sid, fig in exp.FIGURES.items()
        }
        monkeypatch.setattr(exp, "FIGURES", stubs)
        for fid in (*exp.FIGURE_SUITE, *exp.FIGURE_ALIASES):
            sid = exp.FIGURE_ALIASES.get(fid, fid)
            assert cli_main(["figure", fid.upper()]) == 0
            want = f"view {fid}" if fid in stubs[sid].views else f"text {sid}"
            assert capsys.readouterr().out == want + "\n"
            assert cli_main(["sweep", fid, "--benchmarks", "CPU2006.mcf"]) == 0
            assert capsys.readouterr().out.startswith(f"text {sid}\n\nswept 1 ")

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
