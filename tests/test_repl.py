"""Tests for the interactive shell (python -m repro)."""

import io

from repro.__main__ import main, run_shell
from repro.storage.database import Database


def drive(lines):
    database = Database()
    output = io.StringIO()
    code = run_shell(database, input_stream=iter(lines), output=output)
    return code, output.getvalue(), database


class TestShell:
    def test_ddl_query_cycle(self):
        code, text, db = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "INSERT INTO t VALUES (1), (2), (2);",
                "CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE;",
                "SELECT COUNT(DISTINCT c) AS n FROM t;",
                "\\q",
            ]
        )
        assert code == 0
        assert "2" in text  # the count
        assert db.catalog.has_index("pi")

    def test_multiline_statement(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "SELECT c",
                "FROM t;",
            ]
        )
        assert code == 0
        assert "c" in text

    def test_describe_command(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "\\d",
            ]
        )
        assert "table t" in text

    def test_error_does_not_kill_shell(self):
        code, text, __ = drive(
            [
                "SELECT * FROM missing;",
                "CREATE TABLE t (c BIGINT);",
                "\\d",
            ]
        )
        assert code == 0
        assert "error:" in text
        assert "table t" in text

    def test_eof_exits(self):
        code, __, __ = drive([])
        assert code == 0

    def test_blank_lines_ignored(self):
        code, __, __ = drive(["", "   ", "\\q"])
        assert code == 0


    def test_unknown_command_leaves_the_next_statement_alone(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "INSERT INTO t VALUES (7), (8);",
                "\\drfit",
                "SELECT COUNT(*) AS n FROM t;",
            ]
        )
        assert code == 0
        assert "error: unknown command \\drfit" in text
        assert "\\metrics" in text.split("unknown command", 1)[1]
        assert "unexpected character" not in text
        assert text.rstrip().splitlines()[-1].strip() == "2"

    def test_metrics_show_patchindex_drift(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "INSERT INTO t VALUES (1), (2), (3);",
                "CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE;",
                "INSERT INTO t VALUES (1);",
                "\\metrics",
            ]
        )
        assert code == 0
        assert "patchindex.pi.drift_rate" in text
        assert "maintenance.rebuild_threshold" in text


class TestCheckpoint:
    def test_checkpoint_statement(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "INSERT INTO t VALUES (1), (2);",
                "CHECKPOINT;",
            ]
        )
        assert code == 0
        assert "checkpoint at lsn" in text

    def test_checkpoint_backslash_command(self):
        code, text, __ = drive(
            [
                "CREATE TABLE t (c BIGINT);",
                "\\checkpoint",
            ]
        )
        assert code == 0
        assert "checkpoint at lsn" in text

    def test_durable_checkpoint_flushes_segments(self, tmp_path):
        database = Database(path=tmp_path / "db")
        output = io.StringIO()
        code = run_shell(
            database,
            input_stream=iter(
                [
                    "CREATE TABLE t (c BIGINT);",
                    "INSERT INTO t VALUES (1), (2);",
                    "\\checkpoint",
                ]
            ),
            output=output,
        )
        assert code == 0
        assert "1 segments" in output.getvalue()
        assert (tmp_path / "db" / "manifest.json").exists()


class TestCacheCommand:
    def test_cache_without_cache(self):
        code, text, __ = drive(["\\cache", "\\q"])
        assert code == 0
        assert "(no cache" in text

    def test_cache_on_durable_database(self, tmp_path):
        database = Database(path=tmp_path / "db")
        output = io.StringIO()
        code = run_shell(
            database,
            input_stream=iter(
                [
                    "CREATE TABLE t (c BIGINT);",
                    "INSERT INTO t VALUES (1), (2), (3);",
                    "\\checkpoint",
                    "SELECT SUM(c) AS s FROM t;",
                    "SELECT SUM(c) AS s FROM t;",
                    "\\cache",
                ]
            ),
            output=output,
        )
        assert code == 0
        text = output.getvalue()
        assert "block cache:" in text
        assert "hit_ratio=" in text
        assert "oversized_skips=" in text
        database.close()


class TestCommandLine:
    def test_a_path_argument_is_a_usage_error(self, tmp_path, capsys):
        # The positional takes only ``serve``: storage is ``--data-dir``.
        wal = tmp_path / "wal.jsonl"
        wal.write_text("")
        assert main([str(wal)]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert wal.read_text() == ""
