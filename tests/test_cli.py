import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedcal
from fedcal import (
    BinGrid,
    DpConfig,
    FederationSpec,
    ProtocolViolationError,
    RankPair,
    TableKey,
    coverage_column,
    coverage_probability,
    load_table,
    run_one_shot,
    save_table,
)
from fedcal.cli import main
from fedcal.federation import METHODS
from fedcal.privacy import DEFAULT_GAMMA_GRID


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes longer to import than the whole CLI
    src = str(Path(fedcal.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, fedcal.cli; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


class TestTableCommand:
    def test_single_agent_collapse(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        code, out, _ = _run(capsys, "table", "--m", "1", "--n", "19", "--alpha", "0.1",
                            "--cache", str(cache))
        assert code == 0
        assert "l*=18 k*=1 M=0.900000" in out
        assert cache.exists()

    def test_rerun_reuses_cache_unchanged(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        args = ("table", "--m", "6", "--n", "12", "--alpha", "0.1", "--cache", str(cache))
        code1, out1, _ = _run(capsys, *args)
        digest = _digest(cache)
        code2, out2, _ = _run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert _digest(cache) == digest

    def test_selected_matches_exhaustive_grid(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        code, out, _ = _run(capsys, "table", "--m", "10", "--n", "20", "--alpha", "0.1",
                            "--cache", str(cache))
        assert code == 0
        key = TableKey(10, 20)
        best = min(
            (coverage_column(key, l)[k - 1], l, k)
            for l in range(1, 21)
            for k in range(1, 11)
            if coverage_column(key, l)[k - 1] >= 0.9
        )
        assert f"l*={best[1]} k*={best[2]} M={best[0]:.15f}" in out

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDCAL_CACHE_DIR", str(tmp_path / "cachedir"))
        code, out, _ = _run(capsys, "table", "--m", "2", "--n", "9", "--alpha", "0.2")
        assert code == 0
        assert (tmp_path / "cachedir" / "qq_table_m2_n9.txt").exists()

    def test_cache_loadable_as_library_table(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        _run(capsys, "table", "--m", "4", "--n", "8", "--alpha", "0.15", "--cache", str(cache))
        table = load_table(cache)
        table.validate()
        assert table.key.m == 4

    def test_infeasible_exits_nonzero(self, tmp_path, capsys):
        code, _, err = _run(capsys, "table", "--m", "2", "--n", "2", "--alpha", "0.05",
                            "--cache", str(tmp_path / "t.txt"))
        assert code == 1
        assert "error" in err


def _write_agent_files(tmp_path, agents):
    paths = []
    for j, scores in enumerate(agents):
        path = tmp_path / f"agent{j}.csv"
        path.write_text("".join(f"{s}\n" for s in scores))
        paths.append(str(path))
    return paths


class TestCalibrateCommand:
    def test_centralized_nineteen_scores(self, tmp_path, capsys):
        (path,) = _write_agent_files(tmp_path, [range(1, 20)])
        code, out, _ = _run(capsys, "calibrate", path, "--alpha", "0.1",
                            "--method", "centralized")
        assert code == 0
        assert "q_hat=18" in out
        assert "guaranteed_coverage=0.9" in out

    def test_identical_agents_federated(self, tmp_path, capsys):
        scores = list(np.round(np.random.default_rng(0).uniform(size=25), 6))
        paths = _write_agent_files(tmp_path, [scores] * 3)
        code, out, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.1",
                            "--method", "fedcp-qq")
        assert code == 0
        rank = int(next(line.split("=")[1] for line in out.splitlines()
                        if line.startswith("local_rank=")))
        assert f"q_hat={sorted(scores)[rank - 1]:.17g}" in out

    def test_private_method_reproducible(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        agents = (1.0 - rng.uniform(size=(5, 60))).round(6).tolist()
        paths = _write_agent_files(tmp_path, agents)
        args = ("calibrate", *paths, "--alpha", "0.1", "--method", "fedcp2-qq",
                "--epsilon", "5", "--bins", "20", "--smax", "1.0", "--seed", "11")
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_private_result_file_certifies_its_choice(self, tmp_path, capsys):
        # the keys an independent checker reads to recompute the ranks at the
        # inflated level (1 - alpha) / (1 - gamma * alpha) and the corrected entry
        agents = (1.0 - np.random.default_rng(1).uniform(size=(6, 50))).round(6).tolist()
        out_path = tmp_path / "result.json"
        code, _, _ = _run(capsys, "calibrate", *_write_agent_files(tmp_path, agents),
                          "--alpha", "0.2", "--method", "fedcp2-qq", "--epsilon", "5",
                          "--bins", "100", "--smax", "1", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        params = payload["params"]
        l, k, correction = params["local_rank"], params["server_rank"], params["correction"]
        assert params["gamma"] in DEFAULT_GAMMA_GRID
        assert l + correction <= 50
        corrected = coverage_probability(TableKey(6, 50), RankPair(l + correction, k))
        assert params["corrected_coverage"] == pytest.approx(corrected, abs=1e-12)
        assert payload["guaranteed_coverage"] == 1.0 - 0.2

    def test_result_file_is_json(self, tmp_path, capsys):
        paths = _write_agent_files(tmp_path, [range(1, 20)])
        out_path = tmp_path / "result.json"
        code, _, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.1",
                          "--method", "centralized", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["q_hat"] == 18.0
        assert payload["method"] == "centralized"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\noops\n")
        code, _, err = _run(capsys, "calibrate", str(path), "--alpha", "0.1",
                            "--method", "centralized")
        assert code == 1
        assert ":2" in err

    def test_undecodable_score_file_reported(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0.5\n\xff\n")
        code, _, err = _run(capsys, "calibrate", str(path), "--alpha", "0.1",
                            "--method", "centralized")
        assert code == 1
        assert err.startswith("error: ") and str(path) in err and "UTF-8" in err

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        # spreadsheet programs start a "CSV UTF-8" file with U+FEFF
        scores = np.random.default_rng(2).uniform(size=(3, 25)).round(6)
        text = "agent,score\n" + "".join(
            f"{agent},{value}\n" for agent, row in enumerate(scores) for value in row
        )
        outputs = []
        for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(text, encoding=encoding)
            code, out, err = _run(capsys, "calibrate", str(path), "--alpha", "0.1",
                                  "--method", "fedcp-qq")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]

    def test_oversized_field_reported(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("0.5\n" + "1" * 131_073 + "\n")
        code, _, err = _run(capsys, "calibrate", str(path), "--alpha", "0.1",
                            "--method", "centralized")
        assert code == 1
        assert err.startswith("error: ") and f"{path}:2" in err

    @pytest.mark.parametrize(("flag", "name"), [("--epsilon", "epsilon"), ("--smax", "s_max")])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_private_options_must_be_finite_and_positive(self, tmp_path, capsys, flag, name, value):
        paths = _write_agent_files(tmp_path, [[0.2, 0.4, 0.6, 0.8]] * 3)
        options = {"--epsilon": "5", "--smax": "1", flag: value}
        code, out, err = _run(capsys, "calibrate", *paths, "--alpha", "0.1",
                              "--method", "fedcp2-qq", *(x for kv in options.items() for x in kv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_gamma_is_neither_an_option_nor_a_config_key(self, tmp_path, capsys, command):
        if command == "calibrate":
            args = _write_agent_files(tmp_path, [[0.2, 0.4, 0.6, 0.8]] * 3)
        else:
            args = ["--m", "3", "--n", "10", "--reps", "2"]
        common = [command, *args, "--alpha", "0.2", "--method", "fedcp2-qq",
                  "--epsilon", "5", "--smax", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*common, "--gamma", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gamma 0.1" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("gamma=0.1\n")
        code, out, err = _run(capsys, *common, "--config", str(config))
        assert (code, out, err) == (1, "", f"error: {config}:1: unknown key 'gamma'\n")

    @pytest.mark.parametrize("method", ["fedcp-qq", "fedcp2-qq"])
    def test_negative_seed_refused(self, tmp_path, capsys, method):
        paths = _write_agent_files(tmp_path, [[0.1, 0.5, 0.3]] * 2)
        code, out, err = _run(capsys, "calibrate", *paths, "--alpha", "0.5", "--method", method,
                              "--epsilon", "5", "--smax", "1", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--seed" in err

    def test_avg_rank_overflow_message(self, tmp_path, capsys):
        paths = _write_agent_files(tmp_path, [[1.0, 2.0], [3.0, 4.0]])
        code, _, err = _run(capsys, "calibrate", *paths, "--alpha", "0.1",
                            "--method", "fedcp-avg")
        assert code == 1
        assert "does not exist" in err


    def test_env_var_cache_dir_used_by_calibrate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDCAL_CACHE_DIR", str(tmp_path / "cachedir"))
        scores = np.random.default_rng(0).uniform(size=(3, 25)).round(6).tolist()
        paths = _write_agent_files(tmp_path, scores)
        code, _, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.1", "--method", "fedcp-qq")
        assert code == 0
        assert load_table(tmp_path / "cachedir" / "qq_table_m3_n25.txt").key.n == 25

    def test_corrupt_cache_rejected(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        cache.write_text("fedcal-coverage-table 1\nm 3\nn 25\nentries 2\n20 2 0.9\n21 2 0.8\n")
        scores = np.random.default_rng(0).uniform(size=(3, 25)).round(6).tolist()
        paths = _write_agent_files(tmp_path, scores)
        code, _, err = _run(capsys, "calibrate", *paths, "--alpha", "0.1", "--method", "fedcp-qq",
                            "--cache", str(cache))
        assert code == 1
        assert str(cache) in err and "nondecreasing" in err

    def test_forged_cache_rejected(self, tmp_path, capsys):
        cache = tmp_path / "t.txt"
        code, _, _ = _run(capsys, "table", "--m", "8", "--n", "60", "--alpha", "0.2",
                          "--cache", str(cache))
        assert code == 0
        table = load_table(cache)
        table.entries[(44, 8)] = 0.8000001  # true coverage 0.79879, still monotone
        save_table(table, cache)
        scores = np.random.default_rng(0).uniform(size=(8, 60)).round(6).tolist()
        paths = _write_agent_files(tmp_path, scores)
        code, _, err = _run(capsys, "calibrate", *paths, "--alpha", "0.2", "--method", "fedcp-qq",
                            "--cache", str(cache))
        assert code == 1
        assert "(44, 8)" in err

    def test_no_cache_file_without_flag_or_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FEDCAL_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        scores = np.random.default_rng(0).uniform(size=(3, 25)).round(6).tolist()
        paths = _write_agent_files(tmp_path, scores)
        code, _, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.1", "--method", "fedcp-qq")
        assert code == 0
        code, _, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.1", "--method", "fedcp-avg",
                          "--cache", str(tmp_path / "avg.txt"))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"agent{j}.csv" for j in range(3)]


class TestMethodRegistry:
    def test_calibrate_matches_run_one_shot_for_every_method(self, tmp_path, capsys):
        assert list(METHODS) == ["centralized", "fedcp-qq", "fedcp-avg", "fedcp2-qq"]
        agents = (1.0 - np.random.default_rng(3).uniform(size=(6, 50))).round(6).tolist()
        paths = _write_agent_files(tmp_path, agents)
        spec = FederationSpec(m=6, n=50, alpha=0.2, seed=0)
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
        for name, method in METHODS.items():
            out = tmp_path / f"{name}.json"
            code, _, _ = _run(capsys, "calibrate", *paths, "--alpha", "0.2", "--method", name,
                              "--epsilon", "5", "--bins", "100", "--smax", "1", "--seed", "11",
                              "--out", str(out))
            assert code == 0
            if not method.one_shot:
                with pytest.raises(ProtocolViolationError):
                    run_one_shot(spec, agents, name)
                calibrate = method.bind(0.2, table=None, dp_config=None)
                assert calibrate(agents, None).transcript is None
                continue
            result, transcript = run_one_shot(
                spec, agents, name, dp_config=cfg, rng=np.random.default_rng(11)
            )
            expected = {
                "q_hat": result.q_hat,
                "method": result.method,
                "guaranteed_coverage": result.guaranteed_coverage,
                "params": result.params,
            }
            assert json.loads(out.read_text()) == json.loads(json.dumps(expected, default=float))
            assert [agent for agent, _ in transcript.uplinks] == list(range(6))
            direct = method.bind(0.2, table=None, dp_config=cfg)(
                agents, np.random.default_rng(11).spawn
            )
            assert transcript == direct.transcript


class TestSimulateCommand:
    def test_single_replication_single_row(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, out, _ = _run(capsys, "simulate", "--m", "5", "--n", "12",
                            "--alpha", "0.1", "--method", "fedcp-qq", "--reps", "1",
                            "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert "mean_coverage=" in out

    def test_coverage_near_table_value(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "simulate", "--m", "50", "--n", "20",
                            "--alpha", "0.1", "--method", "fedcp-qq", "--reps", "200",
                            "--seed", "3")
        assert code == 0
        mean = float(out.split("mean_coverage=")[1].split()[0])
        se = float(out.split("se=")[1].split()[0])
        from fedcal import select_ranks
        _, expected = select_ranks(TableKey(50, 20), 0.1)
        assert abs(mean - expected) <= max(3 * se, 0.01)

    def test_outlier_sampler_punishes_averaging(self, capsys):
        common = ("--m", "20", "--n", "20", "--alpha", "0.1", "--reps", "40",
                  "--sampler", "outlier", "--seed", "5")
        _, out_qq, _ = _run(capsys, "simulate", "--method", "fedcp-qq", *common)
        _, out_avg, _ = _run(capsys, "simulate", "--method", "fedcp-avg", *common)
        len_qq = float(out_qq.split("mean_length=")[1].split()[0])
        len_avg = float(out_avg.split("mean_length=")[1].split()[0])
        assert len_avg > len_qq

    def test_negative_seed_refused(self, capsys):
        code, out, err = _run(capsys, "simulate", "--m", "3", "--n", "10", "--alpha", "0.2",
                              "--method", "fedcp-qq", "--reps", "2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--seed" in err

    def test_method_without_table_runs_past_the_table_cap(self, capsys):
        args = ("simulate", "--m", "1001", "--n", "1000", "--alpha", "0.1", "--reps", "1",
                "--test-size", "1")
        code, out, err = _run(capsys, *args, "--method", "fedcp-avg")
        assert (code, err) == (0, "") and "method=fedcp-avg reps=1" in out
        code, out, err = _run(capsys, *args, "--method", "fedcp-qq")
        assert (code, out) == (1, "") and "exceeds the exact-arithmetic cap" in err

    def test_deterministic_under_seed(self, tmp_path, capsys):
        args = ("simulate", "--m", "4", "--n", "10", "--alpha", "0.1",
                "--method", "fedcp-avg", "--reps", "5", "--seed", "42")
        _, out1, _ = _run(capsys, *args)
        _, out2, _ = _run(capsys, *args)
        assert out1 == out2

    # sha256 of the rows file of seeded runs; a change to any stream or to
    # the row format shows here
    FROZEN_ROWS = {
        ("fedcp-qq", 3): "09cb4f076d03102e433743b8f6f65ad69f3e24912c36552f41966be9970d83bf",
        ("fedcp-qq", 11): "766965dcfd606caca2dccd5c811577a88f9fee04afbcbb5f78c9dde375092449",
        ("fedcp-avg", 3): "a7cd325321ba55cbe32368867d5a084f63688efed98806d2d1ccccab9c6c36c5",
        ("fedcp-avg", 11): "3a2424eb09cf61e0a960600960a3fcf72b5b0c06250cd38732257d1106caa862",
        ("fedcp2-qq", 3): "8672ce85a29f0205eaf210dde1d8327f8d716bfd051b1e1dafd189e8ec03108a",
        ("fedcp2-qq", 11): "67946f957fac2dd75ed0e25487dbcb6559d0b719290b28d004ab887e879c8665",
    }

    @pytest.mark.parametrize("method, seed", sorted(FROZEN_ROWS))
    def test_rows_equal_frozen_digest(self, tmp_path, capsys, method, seed):
        out = tmp_path / "rows.csv"
        code, _, err = _run(capsys, "simulate", "--m", "8", "--n", "40", "--alpha", "0.1",
                            "--method", method, "--reps", "20", "--seed", str(seed),
                            "--test-size", "200", "--epsilon", "20", "--smax", "1",
                            "--bins", "100", "--out", str(out))
        assert (code, err) == (0, "")
        assert _digest(out) == self.FROZEN_ROWS[(method, seed)]


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("m = 1\nn = 19\nalpha = 0.5\n")
        cache = tmp_path / "t.txt"
        code, out, _ = _run(capsys, "table", "--config", str(config),
                            "--alpha", "0.1", "--cache", str(cache))
        assert code == 0
        assert "l*=18 k*=1" in out  # alpha flag beat the config value

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("m = 1\nn = 19\nalpha = 0.1\n", encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        code, out, err = _run(capsys, "table", "--config", str(config),
                              "--cache", str(tmp_path / "t.txt"))
        assert (code, err) == (0, "")
        assert "l*=18 k*=1" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("m = 1\nfrobnicate = 3\n")
        code, _, err = _run(capsys, "table", "--config", str(config),
                            "--n", "9", "--alpha", "0.1",
                            "--cache", str(tmp_path / "t.txt"))
        assert code == 1
        assert "frobnicate" in err

    def test_key_not_valid_for_subcommand_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("reps = 5\n")
        code, _, err = _run(capsys, "table", "--config", str(config),
                            "--m", "1", "--n", "9", "--alpha", "0.1",
                            "--cache", str(tmp_path / "t.txt"))
        assert code == 1
        assert "reps" in err

    def test_missing_required_option_reported(self, capsys):
        code, _, err = _run(capsys, "table", "--m", "2")
        assert code == 1
        assert "--n" in err and "--alpha" in err
