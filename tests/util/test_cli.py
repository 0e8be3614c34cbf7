"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "table2" in out

    def test_explicit_list(self, capsys):
        assert main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestCommands:
    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "cascaded" in out

    def test_fig15_small(self, capsys):
        assert main(["fig15", "--windows", "4"]) == 0
        out = capsys.readouterr().out
        assert "Downtown" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--windows", "4"]) == 0
        out = capsys.readouterr().out
        assert "Tunnels" in out

    def test_privacy_small(self, capsys):
        assert main([
            "privacy", "--vehicles", "10", "--area-km", "1.5", "--minutes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out

    def test_fig21_export(self, tmp_path, capsys):
        out_file = tmp_path / "vm.json"
        assert main([
            "fig21", "--vehicles", "15", "--area-km", "1.5", "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert "viewlinks" in capsys.readouterr().out

    def test_fig21_named_store_with_retention(self, tmp_path, capsys):
        # a window covering the whole 2-minute trace: the figure output
        # is unchanged and the store reports both minutes
        assert main([
            "fig21", "--vehicles", "12", "--area-km", "1.5",
            "--store", "sqlite", "--store-path", str(tmp_path / "log"),
            "--retention-minutes", "5", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "store: sqlite" in out and "2 minutes" in out

    @pytest.mark.parametrize(
        "flag", ["--shards", "--shard-cells", "--ingest-workers", "--store=procs"]
    )
    def test_retired_placement_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["fig21", flag, "2"])
        assert "error" in capsys.readouterr().err

    def test_fig21_retention_shorter_than_trace_evicts_early_minutes(self, capsys):
        assert main([
            "fig21", "--vehicles", "12", "--area-km", "1.5",
            "--retention-minutes", "1",
        ]) == 0
        # only the newest of the two simulated minutes survives ingest
        assert "1 minutes" in capsys.readouterr().out

    def test_stream_small(self, capsys):
        assert main([
            "stream", "--vehicles", "6", "--minutes", "2", "--workers", "2",
            "--store", "sqlite",
        ]) == 0
        assert "12 inserted, 0 shed, 12 stored" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--group-commit-rows", "--slo-p99-ms"])
    def test_group_commit_flags_are_gone(self, flag, capsys):
        # nothing they configured is reachable from make_store any more
        with pytest.raises(SystemExit):
            main(["stream", "--store", "sqlite", flag, "8"])
        assert "unrecognized arguments" in capsys.readouterr().err
