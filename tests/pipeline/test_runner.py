"""Tests for the two mining entry points: the streamed file runner
(``mine run --archive``) and the memoized ``mine.<app>`` chain behind
``repro mine run``.  Both must return the serial oracle's answer."""

import pytest

from repro.bugdb.enums import Application
from repro.cli import main
from repro.harness.telemetry import Telemetry
from repro.pipeline import ParseMineCache, format_for, mine_archive_file
from repro.pipeline.records import result_from_payload
from repro.studygraph import StudyContext, default_registry, run_study

MYSQL_SCALE = 1500

#: Nodes in the closure of ``mine.mysql``: corpus, parsed, mined, mine.
CHAIN = 4


@pytest.fixture(scope="module")
def mysql_archive(study):
    fmt = format_for(Application.MYSQL)
    return fmt.render(study.corpus(Application.MYSQL), MYSQL_SCALE)


@pytest.fixture(scope="module")
def mysql_file(mysql_archive, tmp_path_factory):
    path = tmp_path_factory.mktemp("archive") / "mysql.mbox"
    path.write_text(mysql_archive, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def serial_result(mysql_archive):
    fmt = format_for(Application.MYSQL)
    return fmt.mine(fmt.parse(mysql_archive), None)


def assert_same_result(result, serial):
    assert result.items == serial.items
    assert result.trace.as_rows() == serial.trace.as_rows()


def mine_through_memo(study, cache_dir, scale=MYSQL_SCALE):
    """Run ``mine.mysql`` over a memo; returns the run and mined result."""
    context = StudyContext(
        study=study, workers=1, cache=ParseMineCache(cache_dir), telemetry=Telemetry()
    )
    run = run_study(
        context,
        nodes=["mine.mysql"],
        outputs=["mined.mysql"],
        registry=default_registry().with_overrides({"parsed.mysql": {"scale": scale}}),
    )
    fmt = format_for(Application.MYSQL)
    return run, result_from_payload(run.outputs["mined.mysql"], fmt.item_from_dict)


def mine_run_cli(capsys, *extra):
    """``repro mine run`` for the MySQL archive; returns its stdout lines."""
    argv = ["mine", "run", "--application", "mysql", "--scale", str(MYSQL_SCALE)]
    assert main([*argv, *extra]) == 0
    return capsys.readouterr().out.splitlines()


def narrowing_lines(lines):
    return [line for line in lines if not line.startswith("memo:")]


class TestColdPath:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_matches_serial_mining(self, mysql_file, serial_result, workers):
        run = mine_archive_file(
            Application.MYSQL, mysql_file, workers=workers, max_shard_bytes=64 << 10
        )
        assert_same_result(run.result, serial_result)

    @pytest.mark.parametrize(
        "application", [Application.APACHE, Application.GNOME]
    )
    def test_other_applications_match_serial(self, study, tmp_path, application):
        fmt = format_for(application)
        text = fmt.render(
            study.corpus(application),
            300 if application is Application.APACHE else None,
        )
        path = tmp_path / "archive"
        path.write_text(text, encoding="utf-8")
        serial = fmt.mine(fmt.parse(text), None)
        run = mine_archive_file(application, path, workers=2, max_shard_bytes=64 << 10)
        assert_same_result(run.result, serial)


class TestCachePath:
    """The study memo is the mining cache."""

    def test_warm_mine_hit_returns_identical_result(
        self, tmp_path, study, serial_result
    ):
        cold_run, cold = mine_through_memo(study, tmp_path)
        warm_run, warm = mine_through_memo(study, tmp_path)
        assert (cold_run.executed, cold_run.cached) == (CHAIN, 0)
        assert (warm_run.executed, warm_run.cached) == (0, CHAIN)
        assert_same_result(cold, serial_result)
        assert_same_result(warm, serial_result)

    def test_parse_hit_with_mine_miss_still_matches(
        self, tmp_path, study, serial_result
    ):
        cold_run, _ = mine_through_memo(study, tmp_path)
        # Drop only the mined entries: the next run re-mines from the
        # memoized parse, and must still match the serial oracle.
        cache = ParseMineCache(tmp_path)
        for name in ("mined.mysql", "mine.mysql"):
            assert cache.invalidate(cold_run.runs[name].key) == 2
        run, result = mine_through_memo(study, tmp_path)
        assert run.runs["parsed.mysql"].status == "cached"
        assert run.runs["mined.mysql"].status == "executed"
        assert_same_result(result, serial_result)

    def test_corrupt_entry_falls_back_to_cold_path(
        self, tmp_path, study, serial_result
    ):
        mine_through_memo(study, tmp_path)
        for path in ParseMineCache(tmp_path).entry_paths():
            path.write_text("{not json", encoding="utf-8")
        run, result = mine_through_memo(study, tmp_path)
        assert (run.executed, run.cached) == (CHAIN, 0)
        assert_same_result(result, serial_result)

    def test_different_archives_never_collide(self, tmp_path, study):
        small_run, small = mine_through_memo(study, tmp_path, scale=1200)
        large_run, large = mine_through_memo(study, tmp_path, scale=1800)
        assert small_run.runs["parsed.mysql"].key != large_run.runs["parsed.mysql"].key
        warm_run, warm = mine_through_memo(study, tmp_path, scale=1200)
        assert warm_run.executed == 0
        assert warm.trace.as_rows() == small.trace.as_rows()
        assert warm.trace.as_rows() != large.trace.as_rows()


class TestMineApplication:
    """``repro mine run`` without ``--archive`` fronts the memo."""

    def test_no_cache_dir_means_no_cache(self, capsys, serial_result):
        for _ in range(2):
            lines = mine_run_cli(capsys)
            assert f"memo: {CHAIN} executed, 0 cached" in lines
        assert f"final unique bugs: {len(serial_result.items)}" in lines

    def test_use_cache_false_ignores_cache_dir(self, capsys, tmp_path):
        lines = mine_run_cli(capsys, "--cache-dir", str(tmp_path), "--no-cache")
        assert f"memo: {CHAIN} executed, 0 cached" in lines
        assert list(tmp_path.rglob("*.json")) == []

    def test_cache_dir_round_trip(self, capsys, tmp_path, serial_result):
        cold = mine_run_cli(capsys, "--cache-dir", str(tmp_path))
        warm = mine_run_cli(capsys, "--cache-dir", str(tmp_path))
        assert narrowing_lines(warm) == narrowing_lines(cold)
        for name, survivors in serial_result.trace.as_rows():
            assert any(
                line.startswith(name) and line.split("|")[1].strip() == str(survivors)
                for line in warm
            )


class TestSummaryLines:
    def test_cold_run_reports_parse_mine_and_cache(self, capsys, tmp_path, mysql_file):
        assert main(["mine", "run", "--application", "mysql", "--archive", str(mysql_file)]) == 0
        streamed = capsys.readouterr().out
        assert "stream:" in streamed
        assert "mine:" in streamed
        assert "pipeline total:" in streamed
        memoized = mine_run_cli(capsys, "--cache-dir", str(tmp_path))
        assert f"memo: {CHAIN} executed, 0 cached" in memoized

    def test_warm_run_reports_mine_hit(self, capsys, tmp_path):
        mine_run_cli(capsys, "--cache-dir", str(tmp_path))
        warm = mine_run_cli(capsys, "--cache-dir", str(tmp_path))
        assert f"memo: 0 executed, {CHAIN} cached" in warm

    def test_telemetry_counters(self, mysql_file):
        telemetry = Telemetry()
        run = mine_archive_file(
            Application.MYSQL, mysql_file, max_shard_bytes=64 << 10, telemetry=telemetry
        )
        assert run.telemetry is telemetry
        assert telemetry.counter("stream.ranges") > 1
        assert telemetry.counter("stream.records") == run.result.trace.initial
        assert telemetry.timer("mine.wall").count == 1
        assert telemetry.timer("pipeline.wall").count == 1
