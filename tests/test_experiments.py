import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fluidpricing
from fluidpricing import ConfigError, ResourceGuardError, UnsupportedModelError
from fluidpricing.experiments import (
    HO_COLUMNS,
    REGRET_COLUMNS,
    SWEEP_COLUMNS,
    TABLE2_COLUMNS,
    TRACE_COLUMNS,
    ExperimentConfig,
    SweepConfig,
    regret_report_rows,
    run_ho_compare,
    run_sweep,
    run_table2,
    write_csv,
)
from fluidpricing import cli, estimate_regret, experiments, kernels, multi_values
from fluidpricing import fluid as fluid_module, sim as sim_module
from fluidpricing.demand import DemandModel


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(
            name="bench",
            model={"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                   "p_lo": 0.0, "p_hi": 1.0},
            T_list=[64, 128],
            y0_rule="round(5/16*T)",
            policies=["static", "resolving"],
            replications=100,
            base_seed=7,
        )
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()

    def test_validation(self):
        model = {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                 "p_lo": 0.0, "p_hi": 1.0}
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", model=model, T_list=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", model=model, T_list=[128, 64])
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", model=model, T_list=[64], policies=["greedy"])
        with pytest.raises(ConfigError, match="horizons must be >= 1"):
            ExperimentConfig(name="x", model=model, T_list=[0, 16])

    def test_direct_construction_refuses_non_whole_values(self):
        """Built directly, not through from_dict, a config still refuses what int()
        would rewrite, and keeps whole floats as ints."""
        model = {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                 "p_lo": 0.0, "p_hi": 1.0}
        for fields in ({"T_list": [64.7]}, {"T_list": "48"}, {"T_list": 64},
                       {"T_list": [True]}, {"replications": 2.5}, {"replications": "10"},
                       {"base_seed": 1.5}, {"base_seed": float("nan")}):
            with pytest.raises(ConfigError):
                ExperimentConfig(name="x", model=model, **{"T_list": [64], **fields})
        cfg = ExperimentConfig(name="x", model=model, T_list=(16.0, 64), replications=3.0,
                               base_seed=7.0)
        assert (cfg.T_list, cfg.replications, cfg.base_seed) == ([16, 64], 3, 7)
        assert all(type(v) is int for v in (*cfg.T_list, cfg.replications, cfg.base_seed))

    def test_from_dict_refuses_numbers_and_lists_it_would_rewrite(self, tmp_path, capsys):
        """What int() and list() would rewrite is a config error, exit 2 from the CLI:
        64.7 (run as T = 64), 2.9 replications (run as 2), the string "48" (run as the
        horizons [4, 8]), a bool, a policies string and a repeated policy (every row
        twice).  A whole float such as 64.0 is a whole number."""
        base = {"name": "x", "model": {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                                       "p_lo": 0.0, "p_hi": 1.0}, "T_list": [64]}
        bad = [{"T_list": [64.7]}, {"T_list": "48"}, {"T_list": ["64"]}, {"T_list": [True]},
               {"replications": 2.9}, {"replications": True}, {"base_seed": 1.5},
               {"policies": "static"}, {"policies": {"static": 1}},
               {"policies": ["static", "static"]}]
        for k, fields in enumerate(bad):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**base, **fields})
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps({**base, **fields}))
            assert cli.main(["estimate-regret", "--config", str(path)]) == 2, fields
        assert all(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
        cfg = ExperimentConfig.from_dict({**base, "T_list": [64.0], "replications": 3.0,
                                          "base_seed": 7.0})
        assert (cfg.T_list, cfg.replications, cfg.base_seed) == ([64], 3, 7)
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig(name="x", model=base["model"], T_list=[64],
                             policies=["dp", "static", "dp"])

    def test_from_dict_refuses_unknown_keys(self, tmp_path, capsys):
        """A misspelt key used to be ignored, so {"replicatons": 100} ran at the
        default of 10 000; the CLI exits 2 with one error line."""
        base = {"name": "x", "model": {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                                       "p_lo": 0.0, "p_hi": 1.0}, "T_list": [64]}
        for key in ("replicatons", "out_path"):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict({**base, key: 100})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base, "replicatons": 100}))
        assert cli.main(["estimate-regret", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "replicatons" in err

    def test_y0_rule_list_matches_the_products(self):
        two = {"kind": "multi-quadratic", "g": [1.0, 1.0],
               "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]}
        bern = {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5, "p_lo": 0.0, "p_hi": 1.0}
        rules = ["round(1/4*T)", "round(1/2*T)"]
        cfg = ExperimentConfig(name="x", model=two, T_list=[16], y0_rule=rules,
                               policies=["resolving", "dp"])
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).to_dict() \
            == cfg.to_dict()
        for model, rule, match in ((two, "round(5/16*T)", "list of 2 rules"),
                                   (two, rules[:1], "list of 2 rules"),
                                   (two, [*rules, rules[0]], "list of 2 rules"),
                                   (bern, rules, "single rule")):
            with pytest.raises(ConfigError, match=match):
                ExperimentConfig(name="x", model=model, T_list=[16], y0_rule=rule)

    def test_multi_product_policies(self):
        two = {"kind": "multi-quadratic", "g": [1.0, 1.0],
               "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]}
        rules = ["round(1/4*T)", "round(1/2*T)"]
        ExperimentConfig(name="x", model=two, T_list=[16], y0_rule=rules, policies=["dp"])
        for policies in (None, ["resolving", "static"], ["ho"]):
            kwargs = {} if policies is None else {"policies": policies}
            with pytest.raises(ConfigError, match="multi-product model supports"):
                ExperimentConfig(name="x", model=two, T_list=[16], y0_rule=rules, **kwargs)

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(kind="nope", T_list=[16])
        # descending, non-whole or below 1: refused here, not later by run_sweep
        for T_list in ([32, 16], [16, 64.5], [0, 16], [-16, 16], [True, 16], ["16"], 16, []):
            with pytest.raises(ConfigError):
                SweepConfig(kind="gap", T_list=T_list)
        cfg = SweepConfig(kind="gap", T_list=(16.0, 32))
        assert cfg.T_list == [16, 32] and all(type(T) is int for T in cfg.T_list)


class TestTable2:
    def test_columns_and_guard(self):
        rows = run_table2(T_list=[64])
        assert list(rows[0]) == TABLE2_COLUMNS
        with pytest.raises(ResourceGuardError):
            run_table2(T_list=[2**17])
        rows = run_table2(T_list=[64, 128])
        assert [r["T"] for r in rows] == [64, 128]

    def test_no_horizons_give_no_rows(self):
        """An empty horizon list used to raise a bare ValueError from max()."""
        assert run_table2(T_list=[]) == []

    def test_known_row(self):
        row = run_table2(T_list=[64])[0]
        assert row["log2_T"] == 6
        assert row["fluid_regret"] == pytest.approx(-0.90, abs=0.01)
        assert row["static_regret"] == pytest.approx(0.38, abs=0.01)
        assert row["resolving_regret"] == pytest.approx(0.11, abs=0.01)

    def test_csv_byte_identical_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["table2", "--t-list", "64,128", "--out", str(p1)]) == 0
        assert cli.main(["table2", "--t-list", "64,128", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_matches_golden_file(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "table2_small_golden.csv"
        out = tmp_path / "t.csv"
        assert cli.main(["table2", "--t-list", "64,128", "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_large_table_matches_golden_file(self, tmp_path):
        """2^6..2^15, where the exact pass runs on bands: the bytes of the full pass."""
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "table2_golden.csv"
        out = tmp_path / "t.csv"
        t_list = ",".join(str(2**k) for k in range(6, 16))
        assert cli.main(["table2", "--t-list", t_list, "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_display_rounds_to_two_decimals(self, tmp_path, capsys):
        assert cli.main(["table2", "--t-list", "64", "--out", str(tmp_path / "t.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("-0.90" in ln for ln in lines)
        assert any("0.38" in ln for ln in lines)


class TestSweep:
    def test_gap_sweep_rows(self):
        rows = run_sweep(SweepConfig(kind="gap", T_list=[16, 32]))
        assert list(rows[0]) == SWEEP_COLUMNS
        assert {r["value"] for r in rows} == {0.3, 0.325, 0.35, 0.375}
        # boundary value: regret increases with T on this small grid too
        boundary = [r for r in rows if r["value"] == 0.375]
        assert boundary[1]["resolving_regret"] > boundary[0]["resolving_regret"]

    def test_concavity_sweep_rows(self):
        rows = run_sweep(SweepConfig(kind="concavity", T_list=[64]))
        assert {r["value"] for r in rows} == {0.3, 0.5, 0.7, 0.9}
        assert all(np.isfinite(r["resolving_regret"]) for r in rows)
        assert all(r["y0"] == round(0.1 * r["T"]) for r in rows)

    def test_gap_sweep_guard(self):
        with pytest.raises(ResourceGuardError):
            run_sweep(SweepConfig(kind="gap", T_list=[2**17]))

    def test_flat_boundary_curve_warns(self):
        # a repeated horizon makes the boundary curve flat, not increasing
        with pytest.warns(UserWarning, match="not increasing"):
            rows = run_sweep(SweepConfig(kind="gap", T_list=[16, 16]))
        for value in (0.3, 0.325, 0.35, 0.375):
            first, second = [r for r in rows if r["value"] == value]
            assert first == second

    def test_gap_sweep_plateau_away_from_boundary(self):
        # with x_T = 0.3 well below the optimum the regret curve flattens
        from fluidpricing import resolving_policy, benchmark_model
        from fluidpricing.policies import exact_policy_values

        model = benchmark_model()
        regrets = []
        for T in (2**12, 2**13, 2**14):
            y0 = round(0.3 * T)
            v = exact_policy_values(model, T, y0, {"resolving": resolving_policy(model)})
            regrets.append(v["dp"] - v["resolving"])
        assert max(regrets) - regrets[0] < 0.05


class TestHoCompare:
    def test_zero_noise_gap_exactly_zero(self):
        model = DemandModel.linear_additive(0.75, 0.5, 0.0, 1.0, 0.0)
        rows = run_ho_compare(model, [64, 128], 5 / 16, replications=50, base_seed=1)
        assert list(rows[0]) == HO_COLUMNS
        assert run_ho_compare(model, [], 5 / 16, replications=50, base_seed=1) == []
        for r in rows:
            assert r["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_gap_bounded_and_not_growing(self):
        model = DemandModel.linear_additive(0.75, 0.5, 0.0, 1.0, 0.1)
        rows = run_ho_compare(model, [2**6, 2**8, 2**10], 5 / 16,
                              replications=20000, base_seed=2)
        m = 2.0 / model.beta
        cap = (m / 2) * model.noise_half_width**2 / 3
        for r in rows:
            assert r["gap"] >= -3 * r["ci_half_width"]
            assert r["gap"] <= cap + 3 * r["ci_half_width"]

    def test_bernoulli_rejected(self, bernoulli_model):
        with pytest.raises(UnsupportedModelError):
            run_ho_compare(bernoulli_model, [64], 5 / 16, 10, 0)

    @pytest.mark.parametrize("replications", [1, 50, 2921])
    def test_rows_take_sims_fluid_value_and_half_width(self, replications):
        """A row's fluid value and CI half width are the ones estimate_regret reports:
        sim.fluid_value at y0 = x_T * T (exact here) and BatchResult.ci_half_width of the
        hindsight values, inf for one replication.  The width divides by math.sqrt(n),
        which at n = 2921 differs from n ** 0.5 with glibc's pow."""
        model = DemandModel.linear_additive(0.75, 0.5, 0.0, 1.0, 0.1)
        T_list = [64, 100]
        rows = run_ho_compare(model, T_list, 5 / 16, replications, base_seed=3)
        for row, T, values in zip(rows, T_list,
                                  sim_module.ho_values(model, T_list, 5 / 16, 3, replications)):
            assert row["fluid_value"] == sim_module.fluid_value(model, T, 5 / 16 * T)
            half = sim_module.BatchResult(values, np.zeros_like(values)).ci_half_width()
            assert row["ci_half_width"] == half
            if replications > 1:
                z, std = 1.959963984540054, float(values.std(ddof=1))
                assert row["ci_half_width"] == z * std / math.sqrt(replications)
        assert (rows[0]["ci_half_width"] == np.inf) == (replications == 1)


class TestCsv:
    def test_writer_schema_golden(self):
        text = write_csv([{"a": 1, "b": 0.5, "c": None, "d": "x,y"}], ["a", "b", "c", "d"])
        assert text == 'a,b,c,d\n1,0.5,,"x,y"\n'

    def test_regret_report_rows(self, bernoulli_model):
        reports = estimate_regret(bernoulli_model, [64], "round(5/16*T)",
                                  policies=("resolving",))
        rows = regret_report_rows(reports)
        assert list(rows[0]) == REGRET_COLUMNS


class TestCli:
    @pytest.fixture()
    def model_paths(self, tmp_path):
        paths = {}
        specs = {
            "bern": {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                     "p_lo": 0.0, "p_hi": 1.0},
            "add": {"kind": "linear-additive", "alpha": 0.75, "beta": 0.5,
                    "p_lo": 0.0, "p_hi": 1.0, "noise_half_width": 0.1},
            "multi": {"kind": "multi-quadratic", "g": [1.0, 1.0],
                      "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]},
            "bad_multi": {"kind": "multi-quadratic", "g": [1.0, 1.0],
                          "H": [[-1.0, 1.0], [1.0, -1.0]], "box_hi": [1.0, 1.0]},
        }
        for name, obj in specs.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(obj))
            paths[name] = str(p)
        return paths

    def test_fluid_solve_json(self, model_paths, capsys):
        rc = cli.main(["fluid-solve", "--model", model_paths["bern"],
                       "--inventory", "0.3125"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"x_c", "lambda", "active_set", "objective"}
        assert out["x_c"] == [0.3125]

    def test_one_parser_serves_every_call_with_fresh_parser_output(self, model_paths,
                                                                    monkeypatch, capsys):
        """main builds its parser once.  Two subcommands, an argparse error (exit 2) and
        a good call after it give the bytes and exit codes of parsers built afresh."""
        calls = [["fluid-solve", "--model", model_paths["bern"], "--inventory", "0.3125"],
                 ["dp-value", "--model", model_paths["bern"], "-T", "16", "--y0", "5"],
                 ["dp-value", "--model", model_paths["bern"], "-T", "x", "--y0", "5"],
                 ["validate-model", "--model", model_paths["add"]]]

        def run_all():
            got = []
            for argv in calls:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects its arguments
                    code = exc.code
                out, err = capsys.readouterr()
                got.append((code, out, err))
            return got

        cli._parser.cache_clear()
        shared = run_all()
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == shared
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        assert "invalid int value: 'x'" in shared[2][2]

    def test_dp_value_and_dump_actions(self, model_paths, tmp_path, capsys):
        from fluidpricing import dp_value, benchmark_model

        dump = tmp_path / "actions.csv"
        rc = cli.main(["dp-value", "--model", model_paths["bern"], "-T", "16",
                       "--y0", "5", "--dump-actions", str(dump)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(dp_value(benchmark_model(), 16, 5), abs=1e-12)
        header = dump.read_text().splitlines()[0]
        assert header == "t,y,demand_rate,price"

    def test_dump_actions_matches_row_writer(self, model_paths, tmp_path, capsys):
        from fluidpricing import benchmark_model, solve_dp

        dump = tmp_path / "actions.csv"
        assert cli.main(["dp-value", "--model", model_paths["bern"], "-T", "23",
                         "--y0", "9", "--dump-actions", str(dump)]) == 0
        # the one-dict-per-cell writer the streamed rows replace
        model = benchmark_model()
        table = solve_dp(model, 23, 9)
        rows = [{"t": t, "y": y, "demand_rate": float(table.actions[t, y]),
                 "price": model.inverse_demand(float(table.actions[t, y]))}
                for t in range(1, 24) for y in range(1, 10)]
        assert dump.read_bytes() == write_csv(rows, ["t", "y", "demand_rate", "price"]).encode()

    def test_dp_value_cell_budget(self, model_paths, monkeypatch, capsys):
        from fluidpricing import policies

        def no_pass(*args, **kwargs):
            raise AssertionError("a backward pass ran")

        monkeypatch.setattr(policies, "_fused_pass", no_pass)
        assert cli.main(["dp-value", "--model", model_paths["bern"], "-T", "131072",
                         "--y0", "65536"]) == 4
        assert "resource guard" in capsys.readouterr().err

    def test_simulate_trace_csv(self, model_paths, capsys):
        rc = cli.main(["simulate", "--model", model_paths["bern"], "--policy",
                       "resolving", "-T", "8", "--y0", "3", "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 9

    # a static policy needs stock: no (1, 0) for it
    @pytest.mark.parametrize("kind, policy, T, y0", [
        (kind, policy, T, y0)
        for kind, policy in [("bern", "dp"), ("bern", "resolving"), ("add", "static")]
        for T, y0 in [(1, 0), (1, 1), (1024, 320), (1024, 40)]
        if policy != "static" or y0 > 0])
    def test_simulate_trace_bytes_match_row_writer(self, model_paths, tmp_path, kind,
                                                   policy, T, y0):
        """The column-by-column trace CSV has the bytes of the one-dict-per-row
        writer, shut-off inf prices included."""
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--model", model_paths[kind], "--policy", policy,
                         "-T", str(T), "--y0", str(y0), "--seed", "9", "--out", str(out)]) == 0
        model = fluidpricing.model_from_dict(json.loads(Path(model_paths[kind]).read_text()))
        pol = {"dp": lambda: fluidpricing.solve_dp(model, T, y0).policy(),
               "resolving": lambda: fluidpricing.resolving_policy(model),
               "static": lambda: fluidpricing.static_policy(model, y0 / T)}[policy]()
        trace = fluidpricing.simulate(model, pol, T, y0, 9)
        want = write_csv(experiments.trace_rows(trace), TRACE_COLUMNS)
        assert out.read_bytes() == want.encode()
        if y0 == 0 or (T, y0, kind) == (1024, 40, "bern"):  # sold out: shut off
            assert ",inf," in want

    def test_estimate_regret_from_config(self, model_paths, tmp_path, capsys):
        cfg = {"name": "t", "model": json.loads(open(model_paths["bern"]).read()),
               "T_list": [64], "y0_rule": "round(5/16*T)",
               "policies": ["static", "resolving"], "replications": 10,
               "base_seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["estimate-regret", "--config", str(cfg_path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(REGRET_COLUMNS)
        assert len(lines) == 3

    def test_estimate_regret_two_product_config(self, model_paths, tmp_path, capsys):
        cfg = {"name": "t", "model": json.loads(open(model_paths["multi"]).read()),
               "T_list": [16, 32], "y0_rule": ["round(1/4*T)", "round(1/2*T)"],
               "policies": ["resolving", "dp"], "replications": 200, "base_seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["estimate-regret", "--config", str(cfg_path)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["T"], r["policy"]) for r in rows] == [
            ("16", "resolving"), ("16", "dp"), ("32", "resolving"), ("32", "dp")]
        # both rows are exact, the re-solving one from the same pass as dp
        exact = multi_values(fluidpricing.model_from_dict(cfg["model"]),
                             [(16, [4, 8]), (32, [8, 16])], ["dp", "resolving"])
        assert [(float(r["value"]), float(r["ci_half_width"])) for r in rows] == [
            (values[name], 0.0) for values in exact for name in ("resolving", "dp")]
        cfg_path.write_text(json.dumps({**cfg, "y0_rule": "round(1/4*T)"}))
        assert cli.main(["estimate-regret", "--config", str(cfg_path)]) == 2
        assert "one per product" in capsys.readouterr().err

    def test_two_product_config_with_static_fails_before_any_solve(self, model_paths, tmp_path,
                                                                   capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(fluid_module, "solve_fluid_multi", solve)
        monkeypatch.setattr(sim_module, "multi_values", solve)
        monkeypatch.setattr(sim_module, "simulate_batch_multi", solve)
        cfg = {"name": "t", "model": json.loads(open(model_paths["multi"]).read()),
               "T_list": [16], "y0_rule": ["round(1/4*T)", "round(1/2*T)"],
               "replications": 200}  # the default policies hold "static"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["estimate-regret", "--config", str(cfg_path)]) == 2
        assert "multi-product model supports" in capsys.readouterr().err

    def test_row_the_model_kind_lacks_is_a_config_error(self, model_paths, tmp_path, capsys):
        """A dp row on additive demand and an ho row on bernoulli demand loaded and
        failed at run time; from_dict refuses them, and the CLI exits 2 with no output."""
        for kind, names in (("add", ["static", "dp"]), ("bern", ["ho"])):
            cfg = {"name": "t", "model": json.loads(open(model_paths[kind]).read()),
                   "T_list": [64], "policies": names, "replications": 10}
            with pytest.raises(ConfigError, match="model supports the policies"):
                ExperimentConfig.from_dict(cfg)
            cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["estimate-regret", "--config", str(cfg_path),
                             "--out", str(out)]) == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith("error: ")

    def test_y0_rule_coefficient_error_exit_code(self, model_paths, tmp_path, capsys):
        model = json.loads(open(model_paths["bern"]).read())
        cfg_path = tmp_path / "cfg.json"
        for rule in ("round(1/0*T)", "round(abc*T)", "round(*T)"):
            cfg_path.write_text(json.dumps({"name": "t", "model": model, "T_list": [16],
                                            "y0_rule": rule}))
            assert cli.main(["estimate-regret", "--config", str(cfg_path)]) == 2, rule
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error: ") for line in err)

    def test_multi_model_non_finite_or_singular_exit_code(self, model_paths, tmp_path):
        """A NaN in H is a validation failure (exit 3), a singular H a solver
        failure (exit 1), each one line; run in a subprocess, as a NaN in H used
        to loop forever."""
        obj = json.loads(open(model_paths["multi"]).read())
        cases = {"nan_H": ({"H": [[-2.0, float("nan")], [float("nan"), -2.0]]}, 3,
                           "model validation failed"),
                 "inf_g": ({"g": [float("inf"), 1.0]}, 3, "model validation failed"),
                 "singular_H": ({"H": [[-1.0, -1.0], [-1.0, -1.0]]}, 1, "solver failure")}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(fluidpricing.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        for name, (fields, code, prefix) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**obj, **fields}))
            done = subprocess.run([sys.executable, "-m", "fluidpricing.cli", "fluid-solve",
                                   "--model", str(path), "--inventory", "0.3,0.3"],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert done.returncode == code, (name, done.stderr)
            assert done.stdout == "" and done.stderr.startswith(prefix), name
            assert len(done.stderr.splitlines()) == 1, name

    def test_table2_and_resource_guard(self, model_paths, capsys):
        assert cli.main(["table2", "--t-list", "64"]) == 0
        capsys.readouterr()
        assert cli.main(["table2", "--t-list", "131072"]) == 4
        capsys.readouterr()
        # the whole cone of 2^16 is within the work budget, and its banded pass is short
        assert cli.main(["table2", "--t-list", "65536"]) == 0

    def test_replications_past_the_byte_budget_exit_4(self, model_paths, tmp_path, capsys,
                                                       monkeypatch):
        """10**13 replications ended in numpy's _ArrayMemoryError (72.8 TiB) from the
        seed array, a traceback and exit 1: estimate-regret and ho-compare refuse the
        count with the resource guard's exit code before any kernel call or array."""
        cfg = {"name": "t", "model": json.loads(open(model_paths["add"]).read()),
               "T_list": [64, 256], "policies": ["static", "resolving", "ho"],
               "replications": 10**13}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(fluidpricing.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "fluidpricing.cli", "estimate-regret",
                               "--config", str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 4, done.stderr
        assert done.stdout == "" and done.stderr.startswith("resource guard:")
        assert len(done.stderr.splitlines()) == 1

        def no_kernel(*args):
            raise AssertionError("a kernel ran past the budget")

        monkeypatch.setattr(kernels, "_map", no_kernel)
        for policies in (["resolving"], ["ho"], ["static", "resolving", "ho"]):
            cfg_path.write_text(json.dumps({**cfg, "policies": policies}))
            assert cli.main(["estimate-regret", "--config", str(cfg_path)]) == 4, policies
            assert capsys.readouterr().err.startswith("resource guard:")
        assert cli.main(["ho-compare", "--model", model_paths["add"], "--x-t", "0.3125",
                         "--t-list", "64,256", "--replications", str(10**13)]) == 4
        assert capsys.readouterr().err.startswith("resource guard:")

    def test_horizons_past_the_work_budget_exit_4(self, model_paths, tmp_path, capsys,
                                                  monkeypatch):
        """A trace of 10**13 periods ended in numpy's _ArrayMemoryError (437 TiB), a
        horizon of 10**21 in estimate-regret or ho-compare in an OverflowError from
        the int64 horizons, and one of 10**400, past the float range, in an
        OverflowError from a float conversion, each a traceback and exit 1: each
        exits 4 with one resource guard line, before any kernel call.  That line
        writes ints past 15 digits short (table2's at 10**400 had 2152 characters)."""
        def no_kernel(*args):
            raise AssertionError("a kernel ran past the budget")

        monkeypatch.setattr(kernels, "_map", no_kernel)
        monkeypatch.setattr(kernels, "_kernel", no_kernel)
        configs = [tmp_path / "cfg-21.json", tmp_path / "cfg-400.json"]
        for path, T in zip(configs, (10**21, 10**400)):
            path.write_text(json.dumps({
                "name": "t", "model": json.loads(open(model_paths["add"]).read()),
                "T_list": [T], "policies": ["static", "resolving", "ho"]}))
        huge = str(10**400)
        for argv in (["simulate", "--model", model_paths["bern"], "--policy", "static",
                      "-T", str(10**13), "--y0", "1"],
                     ["estimate-regret", "--config", str(configs[0])],
                     ["ho-compare", "--model", model_paths["add"], "--x-t", "0.3125",
                      "--t-list", str(10**21)],
                     ["estimate-regret", "--config", str(configs[1])],
                     ["ho-compare", "--model", model_paths["add"], "--x-t", "0.3125",
                      "--t-list", huge],
                     ["dp-value", "--model", model_paths["bern"], "-T", huge, "--y0", "1"],
                     ["simulate", "--model", model_paths["bern"], "--policy", "resolving",
                      "-T", huge, "--y0", "1"],
                     ["sweep", "--kind", "gap", "--t-list", huge],
                     ["table2", "--t-list", huge]):
            assert cli.main(argv) == 4, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("resource guard:"), argv
            assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) <= 300, argv

    def test_table2_out_dash_writes_only_the_csv(self, capsys):
        """--out - is stdout: the CSV alone, as without --out; the 2-decimal display is
        printed only next to a CSV written to a file."""
        assert cli.main(["table2", "--t-list", "64"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["table2", "--t-list", "64", "--out", "-"]) == 0
        assert capsys.readouterr().out == plain
        assert plain.startswith(",".join(experiments.TABLE2_COLUMNS) + "\n")

    def test_sliced_dp_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table2", "--t-list", "64", "--sliced-dp"])
        assert exc.value.code == 2

    def test_model_with_missing_keys_exit_code(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"kind": "linear-bernoulli", "alpha": 0.75}))
        assert cli.main(["validate-model", "--model", str(path)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_negative_demand_model_exit_code(self, tmp_path, capsys):
        path = tmp_path / "additive.json"
        path.write_text(json.dumps({"kind": "linear-additive", "alpha": 0.5, "beta": 0.5,
                                    "p_lo": 0.0, "p_hi": 1.0, "noise_half_width": 0.2}))
        assert cli.main(["validate-model", "--model", str(path)]) == 3
        assert capsys.readouterr().err.count("model validation failed") == 1
        # a NaN width used to print "ok": true and ho-compare rows of nan
        path.write_text(json.dumps({"kind": "linear-additive", "alpha": 0.75, "beta": 0.5,
                                    "p_lo": 0.0, "p_hi": 1.0, "noise_half_width": float("nan")}))
        assert cli.main(["validate-model", "--model", str(path)]) == 3
        assert cli.main(["ho-compare", "--model", str(path), "--x-t", "0.3125",
                         "--t-list", "16", "--replications", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("model validation failed") == 2

    def test_multi_model_constant_term_exit_code(self, model_paths, tmp_path, capsys):
        obj = json.loads(open(model_paths["multi"]).read())
        path = tmp_path / "multi_c.json"
        for c, code in ((1.0, 3), (-2.5, 3), (0.0, 0), (0, 0)):
            path.write_text(json.dumps({**obj, "c": c}))
            assert cli.main(["validate-model", "--model", str(path)]) == code
        assert capsys.readouterr().err.count("c must be 0") == 2

    def test_numeric_input_errors_exit_code(self, model_paths, tmp_path, capsys):
        runs = [["table2", "--t-list", "64,abc"],
                ["fluid-solve", "--model", model_paths["bern"], "--inventory", "x"],
                ["simulate", "--model", model_paths["bern"], "--policy", "static",
                 "-T", "0", "--y0", "3"]]
        ho = ["ho-compare", "--model", model_paths["add"], "--t-list", "64"]
        runs += [[*ho, "--x-t", "0.3", "--replications", "0"],
                 [*ho, "--x-t", "0.3", "--replications", "-3"],
                 [*ho, "--x-t", "nan"], [*ho, "--x-t", "-1"], [*ho, "--x-t", "inf"]]
        configs = {"bern_T0": ("bern", {"T_list": [0, 16]}),
                   "add_T0": ("add", {"T_list": [0, 16]}),
                   "add_reps": ("add", {"T_list": [16], "replications": -2}),
                   "add": ("add", {"T_list": [16]})}
        for name, (model, cfg) in configs.items():
            model = json.loads(open(model_paths[model]).read())
            (tmp_path / f"cfg_{name}.json").write_text(json.dumps({**cfg, "name": name,
                                                                  "model": model}))
        runs += [["estimate-regret", "--config", str(tmp_path / f"cfg_{name}.json")]
                 for name in ("bern_T0", "add_T0", "add_reps")]
        runs += [["estimate-regret", "--config", str(tmp_path / "cfg_add.json"),
                  "--replications", reps] for reps in ("-3", "0")]
        # an empty horizon list is malformed, not the default grid
        runs += [["table2", "--t-list", ""], ["sweep", "--kind", "gap", "--t-list", ""]]
        # a directory where a file is read or written is an OS error, not a solver failure
        runs += [["dp-value", "--model", str(tmp_path), "-T", "4", "--y0", "2"],
                 ["validate-model", "--model", str(tmp_path)],
                 ["validate-model", "--model", model_paths["bern"], "--out", str(tmp_path)]]
        for argv in runs:
            assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        # one line each, no traceback
        assert len(err.splitlines()) == len(runs)
        assert all(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize("argv", [["table2", "--t-list", "64"],
                                      ["sweep", "--kind", "gap", "--t-list", "16,32"],
                                      ["ho-compare", "--x-t", "0.3", "--t-list", "64"]])
    def test_csv_written_once(self, argv, model_paths, monkeypatch, capsys):
        calls = []
        original = experiments.write_csv
        monkeypatch.setattr(experiments, "write_csv",
                            lambda *a: calls.append(a) or original(*a))
        if argv[0] == "ho-compare":
            argv = [*argv, "--model", model_paths["add"]]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_validation_exit_code(self, model_paths, capsys):
        assert cli.main(["validate-model", "--model", model_paths["multi"]]) == 0
        capsys.readouterr()
        assert cli.main(["validate-model", "--model", model_paths["bad_multi"]]) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["fluid-solve", "--model", missing, "--inventory", "1"]) == 2

    def test_ho_compare_cli(self, model_paths, capsys):
        argv = ["ho-compare", "--model", model_paths["add"], "--x-t", "0.3125", "--t-list", "64"]
        rc = cli.main([*argv, "--replications", "200", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(HO_COLUMNS)
        # one replication has no spread estimate: an infinite half width, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--replications", "1"]) == 0
        out, err = capsys.readouterr()
        row = dict(zip(HO_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert row["ci_half_width"] == "inf" and err == ""

    def test_ho_compare_rows_follow_t_list(self, model_paths, capsys):
        """One noise pass serves every horizon: the rows of a repeated, unsorted
        horizon list are those of one run per horizon, in the order given."""
        argv = ["ho-compare", "--model", model_paths["add"], "--x-t", "0.3125",
                "--replications", "300", "--seed", "4", "--t-list"]
        assert cli.main([*argv, "256,64,256,1024"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        want = []
        for T in ("256", "64", "256", "1024"):
            assert cli.main([*argv, T]) == 0
            want += capsys.readouterr().out.splitlines()[1:]
        assert header == ",".join(HO_COLUMNS) and rows == want

    def test_sweep_cli(self, capsys):
        rc = cli.main(["sweep", "--kind", "gap", "--t-list", "16,32"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)

    def test_estimate_regret_rerun_byte_identical(self, model_paths, tmp_path):
        cfg = {"name": "t", "model": json.loads(open(model_paths["add"]).read()),
               "T_list": [32], "y0_rule": "round(5/16*T)",
               "policies": ["static", "resolving"], "replications": 200,
               "base_seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(["estimate-regret", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["estimate-regret", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _is_valid(token: str, cast, low) -> bool:
    try:
        return cast(token) >= low
    except ValueError:
        return False


def _malformed(cast, low):
    """Tokens cast() rejects or maps below low (NaN included)."""
    junk = st.text(min_size=1, max_size=6).filter(
        lambda t: "," not in t and not _is_valid(t, cast, low))
    below = (st.integers(max_value=low - 1).map(str) if cast is int
             else st.floats(max_value=-1e-9).map(repr))
    return st.one_of(junk, below, st.just("nan"))


def _with_one_malformed(valid, cast, low):
    return st.tuples(st.lists(valid, max_size=3), _malformed(cast, low),
                     st.integers(0, 3)).map(
        lambda a: ",".join(a[0][:a[2]] + [a[1]] + a[0][a[2]:]))


@pytest.fixture(scope="module")
def cli_models(tmp_path_factory):
    specs = {"bern": {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5,
                      "p_lo": 0.0, "p_hi": 1.0},
             "add": {"kind": "linear-additive", "alpha": 0.75, "beta": 0.5,
                     "p_lo": 0.0, "p_hi": 1.0, "noise_half_width": 0.1},
             "multi": {"kind": "multi-quadratic", "g": [1.0, 1.0],
                       "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]}}
    paths = {}
    for name, obj in specs.items():
        paths[name] = tmp_path_factory.mktemp("models") / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return {name: str(p) for name, p in paths.items()}


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects a non-integer -T / --y0
            return exc.code


class TestCliNumericInput:
    """Every malformed numeric argument exits with code 2, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["table2", "sweep", "ho-compare"]),
           t_list=_with_one_malformed(st.integers(1, 64).map(str), int, 1))
    def test_t_list(self, cli_models, command, t_list):
        extra = {"table2": [], "sweep": ["--kind", "gap"],
                 "ho-compare": ["--model", cli_models["add"], "--x-t", "0.3"]}[command]
        assert _exit_code([command, *extra, f"--t-list={t_list}"]) == 2

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(["bern", "multi"]),
           inventory=_with_one_malformed(st.floats(0.0, 2.0).map(repr), float, 0.0))
    def test_inventory(self, cli_models, model, inventory):
        argv = ["fluid-solve", "--model", cli_models[model], f"--inventory={inventory}"]
        assert _exit_code(argv) == 2

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["static", "resolving", "dp", "dp-value"]),
           T_y0=st.one_of(_malformed(int, 1).map(lambda T: (T, "3")),
                          _malformed(int, 0).map(lambda y0: ("8", y0))))
    def test_horizon_and_inventory(self, cli_models, command, T_y0):
        argv = ["dp-value"] if command == "dp-value" else ["simulate", "--policy", command]
        argv += ["--model", cli_models["bern"], f"-T={T_y0[0]}", f"--y0={T_y0[1]}"]
        assert _exit_code(argv) == 2
