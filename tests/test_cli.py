"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.gallery import figure3a_schedulable, figure7_unschedulable
from repro.petrinet import save_net
from repro.petrinet.corpus import (
    CORPUS_SCHEMA,
    RECORD_FIELDS,
    corpus_from_json_dict,
    corpus_to_json_dict,
)


@pytest.fixture
def fig3a_file(tmp_path):
    path = tmp_path / "fig3a.json"
    save_net(figure3a_schedulable(), path)
    return str(path)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.json"
    save_net(figure7_unschedulable(), path)
    return str(path)


class TestInfoAndAnalyse:
    def test_info(self, fig3a_file, capsys):
        assert main(["info", fig3a_file]) == 0
        out = capsys.readouterr().out
        assert "free-choice" in out
        assert "p1" in out

    def test_analyse_schedulable_exit_zero(self, fig3a_file, capsys):
        assert main(["analyse", fig3a_file, "--show-schedule"]) == 0
        out = capsys.readouterr().out
        assert "schedulable" in out
        assert "finite complete cycle" in out
        assert "task_t1" in out

    def test_analyse_unschedulable_exit_one(self, fig7_file, capsys):
        assert main(["analyse", fig7_file]) == 1
        assert "NOT quasi-statically schedulable" in capsys.readouterr().out

    def test_analyse_fail_fast_flag(self, fig7_file, capsys):
        assert main(["analyse", fig7_file, "--fail-fast"]) == 1
        out = capsys.readouterr().out
        assert "fail-fast stop" in out
        assert "NOT quasi-statically schedulable" in out

    def test_analyse_workers_flag(self, fig3a_file, capsys):
        assert main(["analyse", fig3a_file, "--workers", "2"]) == 0
        assert "schedulable" in capsys.readouterr().out

    def test_missing_file_is_error(self):
        with pytest.raises(SystemExit):
            main(["info", "/nonexistent/net.json"])


class TestSynthesizeAndDot:
    def test_synthesize_to_file(self, fig3a_file, tmp_path, capsys):
        out_file = tmp_path / "out.c"
        assert main(["synthesize", fig3a_file, "-o", str(out_file)]) == 0
        source = out_file.read_text()
        assert "void task_t1(void)" in source
        assert "choice_p1()" in source
        assert "lines of C" in capsys.readouterr().err

    def test_synthesize_unschedulable_fails(self, fig7_file, capsys):
        assert main(["synthesize", fig7_file]) == 1

    def test_synthesize_standalone_loop(self, fig3a_file, capsys):
        assert main(["synthesize", fig3a_file, "--standalone-loop"]) == 0
        assert "while (1) {" in capsys.readouterr().out

    def test_dot_output(self, fig3a_file, tmp_path):
        out_file = tmp_path / "net.dot"
        assert main(["dot", fig3a_file, "-o", str(out_file), "--title", "Fig 3a"]) == 0
        text = out_file.read_text()
        assert text.startswith("digraph")
        assert "Fig 3a" in text


class TestGalleryAndTable:
    def test_gallery_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "figure7" in out

    def test_gallery_unknown_is_usage_error(self, capsys):
        assert main(["gallery", "figure99"]) == 2

    def test_gallery_dump_to_stdout_is_json(self, capsys):
        assert main(["gallery", "figure4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "figure4"

    def test_gallery_dump_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "fig4.json"
        assert main(["gallery", "figure4", "-o", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["name"] == "figure4"

    def test_atm_table1_small(self, capsys):
        assert main(["atm-table1", "--cells", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Number of tasks" in out
        assert "clock-cycle ratio" in out

    def test_atm_table1_legacy_engine_is_a_deprecated_alias(self, capsys):
        args = ["atm-table1", "--cells", "5", "--seed", "1"]
        assert main(args) == 0
        compiled = capsys.readouterr()
        assert main(args + ["--engine", "legacy"]) == 0
        legacy = capsys.readouterr()
        assert legacy.out == compiled.out
        assert legacy.err.count("--engine legacy is deprecated") == 1
        assert compiled.err == ""


class TestServe:
    def test_serve_small_fleet(self, capsys):
        assert main(["serve", "--instances", "6", "--events", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet of 6 instance(s) (compiled engine)" in out
        assert "per-instance cycles" in out
        assert "modules partition" in out

    def test_serve_engines_agree_on_cycles(self, capsys):
        args = ["serve", "--instances", "4", "--events", "2", "--seed", "9"]
        assert main(args + ["--engine", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        assert main(args + ["--engine", "legacy"]) == 0
        legacy = capsys.readouterr()
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("total cycles", "events processed", "per-instance"))
        ]
        assert pick(compiled_out) == pick(legacy.out)
        assert "(compiled engine" in legacy.out
        assert legacy.err.count("--engine legacy is deprecated") == 1

    @pytest.mark.parametrize(
        "extra", [["--workers", "2"], ["--shards", "2"]], ids=["workers", "shards"]
    )
    def test_deprecated_legacy_engine_runs_compiled_everywhere(self, extra, capsys):
        """The parser errors that rejected legacy shards are gone: the
        alias runs the compiled kernel in every serving mode."""
        args = ["serve", "--instances", "4", "--events", "2", "--seed", "9"]
        assert main(args + extra) == 0
        compiled_out = capsys.readouterr().out
        assert main(args + extra + ["--engine", "legacy"]) == 0
        legacy = capsys.readouterr()
        assert "deprecated" in legacy.err
        pick = lambda text: [
            line for line in text.splitlines() if line.startswith("total cycles")
        ]
        assert pick(legacy.out) == pick(compiled_out) != []

    def test_serve_single_partition_and_workers(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "4",
                    "--events",
                    "2",
                    "--partition",
                    "single",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "single partition" in out
        assert "queue traffic  : 0" in out


class TestServeService:
    """The always-on service modes of `repro-qss serve`."""

    def test_service_mode_matches_batch_mode(self, capsys):
        args = ["serve", "--instances", "6", "--events", "3", "--seed", "4"]
        assert main(args) == 0
        batch_out = capsys.readouterr().out
        assert main(args + ["--shards", "2"]) == 0
        service_out = capsys.readouterr().out
        pick = lambda text: [
            line
            for line in text.splitlines()
            if line.startswith(
                ("total cycles", "events processed", "per-instance")
            )
        ]
        assert pick(batch_out) == pick(service_out)
        assert "2 shard(s), async backend" in service_out

    def test_service_process_backend(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "4",
                    "--events",
                    "2",
                    "--shards",
                    "2",
                    "--backend",
                    "process",
                ]
            )
            == 0
        )
        assert "process backend" in capsys.readouterr().out

    def test_service_telemetry_file(self, tmp_path, capsys):
        from repro.service import validate_telemetry_record

        telemetry = tmp_path / "telemetry.jsonl"
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "4",
                    "--events",
                    "2",
                    "--shards",
                    "2",
                    "--telemetry",
                    str(telemetry),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = telemetry.read_text().splitlines()
        assert lines  # at least the final sample
        kinds = set()
        for line in lines:
            record = json.loads(line)
            validate_telemetry_record(record)
            kinds.add(record["kind"])
        assert kinds == {"shard", "aggregate"}

    def test_corpus_family_workload(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "5",
                    "--events",
                    "4",
                    "--family",
                    "pipeline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet of 5 instance(s)" in out
        assert "single partition" in out

    def test_corpus_family_with_parameter_override(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--instances",
                    "3",
                    "--events",
                    "2",
                    "--family",
                    "choice_fan:branches=4",
                ]
            )
            == 0
        )
        assert "fleet of 3 instance(s)" in capsys.readouterr().out


class TestServeValidation:
    """Up-front argparse validation of serve flag combinations (exit 2)."""

    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["--instances", "0"], "--instances: must be positive"),
            (["--instances", "-3"], "--instances: must be positive"),
            (["--events", "0"], "--events: must be positive"),
            (["--workers", "0"], "--workers: must be positive"),
            (["--shards", "0"], "--shards: must be positive"),
            (["--workers", "2", "--shards", "2"], "use --shards"),
            (["--duration", "5"], "only meaningful with --listen"),
            (
                ["--listen", "127.0.0.1:0", "--duration", "0"],
                "--duration: must be positive",
            ),
            (["--listen", "localhost"], "expected HOST:PORT"),
            (["--listen", "localhost:notaport"], "bad port"),
            (["--family", "warp_drive"], "unknown family"),
            (
                ["--family", "pipeline", "--partition", "modules"],
                "needs an application family",
            ),
            (["--family", "atm:cells=3"], "takes no"),
            (
                ["--family", "choice_fan:bogus=1"],
                "unknown parameter",
            ),
            (["--family", "choice_fan:branches"], "expected key=value"),
        ],
    )
    def test_bad_combinations_exit_2(self, args, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"] + args)
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err


class TestCorpus:
    def test_small_parallel_corpus_writes_valid_json(self, tmp_path, capsys):
        json_path = tmp_path / "corpus.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "corpus: 8 nets" in out
        assert "2 worker(s)" in out

        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["n"] == 8
        assert data["workers"] == 2
        assert len(data["records"]) == 8
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["places"] > 0 and record["transitions"] > 0
            assert record["error"] is None
        assert data["summary"]["total"] == 8
        assert data["summary"]["errors"] == 0

    def test_json_summary_round_trips(self, tmp_path):
        json_path = tmp_path / "corpus.json"
        assert main(["corpus", "--n", "8", "--workers", "2", "--seed", "3",
                     "--json", str(json_path)]) == 0
        data = json.loads(json_path.read_text())
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        # elapsed_seconds is a stored field, not recomputed, so the whole
        # document must survive the dict -> CorpusResult -> dict cycle
        assert rebuilt == data

    def test_corpus_csv_row_per_net(self, tmp_path, capsys):
        csv_path = tmp_path / "corpus.csv"
        assert main(["corpus", "--n", "5", "--seed", "1", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["family", "seed", "params"]
        assert len(lines) == 6  # header + one row per net

    def test_corpus_qss_sweep_mode(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--analyse",
                    "qss",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "qss mode" in out
        assert "qss sweep:" in out
        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["analyse"] == "qss"
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["error"] is None
            # property passes are skipped in sweep mode
            assert record["bounded"] is None
            if record["free_choice"]:
                assert record["schedulable"] is not None
                assert record["allocations"] >= 1
                assert record["cycle_lengths"] is not None
        assert data["summary"]["qss"]["swept"] >= 1
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        assert rebuilt == data

    def test_corpus_runtime_sweep_mode(self, tmp_path, capsys):
        json_path = tmp_path / "runtime.json"
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "8",
                    "--workers",
                    "2",
                    "--seed",
                    "3",
                    "--analyse",
                    "runtime",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "runtime mode" in out
        assert "runtime sweep:" in out
        data = json.loads(json_path.read_text())
        assert data["schema"] == CORPUS_SCHEMA
        assert data["analyse"] == "runtime"
        swept = 0
        for record in data["records"]:
            assert set(record) == set(RECORD_FIELDS)
            assert record["error"] is None
            # property and qss passes are skipped in runtime mode
            assert record["bounded"] is None
            assert record["schedulable"] is None
            if record["fleet_instances"] is not None:
                swept += 1
                assert record["fleet_events"] > 0
                assert record["fleet_cycles_total"] > 0
                assert record["fleet_cycles_p50"] <= record["fleet_cycles_p95"]
        assert swept >= 1
        assert data["summary"]["runtime"]["swept"] == swept
        rebuilt = corpus_to_json_dict(corpus_from_json_dict(data))
        assert rebuilt == data

    def test_corpus_list_families(self, capsys):
        assert main(["corpus", "--list-families"]) == 0
        out = capsys.readouterr().out
        assert "producer_consumer_ring" in out
        assert "gallery" in out

    def test_corpus_unknown_family_is_usage_error(self, capsys):
        assert main(["corpus", "--n", "4", "--families", "nope"]) == 2
        assert "unknown corpus families" in capsys.readouterr().err

    def test_corpus_family_subset_and_engine(self, capsys):
        assert (
            main(
                [
                    "corpus",
                    "--n",
                    "4",
                    "--families",
                    "producer_consumer_ring,random_marked_graph",
                    "--engine",
                    "legacy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "legacy engine" in out
