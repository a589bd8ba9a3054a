import json

import numpy as np
import pytest

from sepsim import SimConfig
from sepsim.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    cmd_exact,
    cmd_report,
    cmd_simulate,
    cmd_verify,
    emit_config,
    main,
    parse_config,
)

BASE_CONFIG = {
    "n_sites": 2,
    "n_types": 1,
    "alpha": [1.0],
    "beta": [2.0],
    "delta": [1.0],
    "boundary_hops": True,
    "seed": 11,
    "max_events": 20_000,
    "warmup_fraction": 0.2,
    "replicas": 2,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run_config(**overrides):
    data = dict(BASE_CONFIG)
    data.update(overrides)
    return RunConfig.from_dict(data)


class TestRunConfig:
    def test_round_trip(self):
        config = run_config(
            warmup_fraction=0.35,
            replicas=3,
            format="csv",
            output="somewhere.json",
            tolerances={"oracle_equivalence": 1e-9},
        )
        assert parse_config(emit_config(config)) == config

    def test_defaults_applied(self):
        config = RunConfig.from_dict(
            {"n_sites": 3, "n_types": 1, "alpha": [1.0], "beta": [1.0], "delta": [1.0]}
        )
        assert config.sim == SimConfig(seed=0)
        assert config.model.boundary_hops is True
        assert config.format == "json"
        assert config.tolerances == DEFAULT_TOLERANCES

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            run_config(unexpected=1)

    def test_missing_model_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"n_sites": 2, "n_types": 1})

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            run_config(format="xml")

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            run_config(tolerances={"oracle_equivalence": 0.0})
        with pytest.raises(ValueError):
            run_config(tolerances={"no_such_check": 1e-9})


class TestCmdExact:
    def test_report_contents(self):
        doc = cmd_exact(run_config())
        assert doc["command"] == "exact"
        assert doc["state_space_size"] == 4
        assert doc["normalization_constant"] == pytest.approx(4 / 9, abs=1e-15)
        assert doc["max_abs_deviation"] <= 1e-10
        dist = doc["distribution"]
        assert dist["state"] == ["0,0", "0,1", "1,0", "1,1"]
        assert dist["p_closed_form"][0] == pytest.approx(4 / 9, abs=1e-15)
        marginals = doc["site_marginals"]
        assert marginals["closed_form"][0] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert np.abs(
            np.array(marginals["from_solved"]) - np.array(marginals["closed_form"])
        ).max() <= 1e-12

    def test_balanced_rates_report_uniform(self):
        doc = cmd_exact(run_config(alpha=[1.0], beta=[1.0]))
        assert np.allclose(doc["distribution"]["p_solved"], 0.25, atol=1e-12)

    def test_provenance_recorded(self):
        doc = cmd_exact(run_config())
        assert doc["artifact"]["name"] == "sepsim"
        assert doc["model"]["alpha"] == [1.0]
        assert doc["tolerances"]["oracle_equivalence"] == 1e-10


class TestCmdSimulate:
    def test_report_contents(self):
        doc = cmd_simulate(run_config(max_events=5000, replicas=2))
        assert doc["command"] == "simulate"
        assert doc["event_count"] == 10_000
        assert doc["sim"]["rng"]["bit_generator"] == "Philox"
        assert len(doc["flux"]["empirical"]) == 1
        assert doc["sojourn"]["sample_count"][0] > 0
        rows = np.array(doc["marginals"]["empirical"])
        assert rows.shape == (2, 2)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_insufficient_data_serializes_as_null(self):
        # One event: no completed sojourns, z-scores null in JSON terms.
        doc = cmd_simulate(run_config(max_events=1, replicas=1, warmup_fraction=0.0))
        assert doc["sojourn"]["empirical_mean"] == [None]
        assert doc["sojourn"]["insufficient_data"] == [True]

    def test_five_site_two_type_model(self):
        doc = cmd_simulate(
            run_config(
                n_sites=5, n_types=2, alpha=[1.0, 2.0], beta=[2.0, 1.0], delta=[1.0, 1.0],
                max_events=50_000, replicas=1,
            )
        )
        assert doc["flux"]["closed_form"] == pytest.approx([4 / 7, 8 / 7], abs=1e-15)
        assert doc["sojourn"]["closed_form"] == pytest.approx([5 / 4, 5 / 2], abs=1e-15)
        empirical = np.array(doc["marginals"]["empirical"])
        assert np.abs(empirical[:, 0] - 2 / 7).max() < 0.05


class TestCmdVerify:
    def test_all_checks_pass_on_valid_model(self):
        doc = cmd_verify(run_config())
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {
            "irreducible",
            "oracle_equivalence",
            "detailed_balance",
            "reversed_rates_general",
            "reversed_rates_rate_symmetric",
            "flux_identity",
            "littles_law_identity",
            "uniformity",
            "delta_independence",
            "boundary_hop_independence",
            "kolmogorov_cycles",
        } <= names

    def test_rate_symmetric_model_runs_conditional_checks(self):
        doc = cmd_verify(run_config(alpha=[1.0], beta=[1.0]))
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["uniformity"]["status"] == "pass"
        assert by_name["reversed_rates_rate_symmetric"]["status"] == "pass"
        assert "alpha == beta" in by_name["reversed_rates_rate_symmetric"]["note"]

    def test_general_model_skips_conditional_checks(self):
        doc = cmd_verify(run_config())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["uniformity"]["status"] == "skipped"
        assert by_name["reversed_rates_rate_symmetric"]["status"] == "skipped"
        assert by_name["reversed_rates_general"]["status"] == "pass"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_sites": 3},
            # 1024 states: a cycle check that sampled above 729 states missed this edge.
            {"n_sites": 5, "n_types": 3, "alpha": [1.0, 2.0, 0.5], "beta": [2.0, 1.0, 1.0],
             "delta": [1.0, 1.0, 1.0]},
        ],
        ids=["n3k1", "n5k3"],
    )
    def test_negative_control_fails_balance_checks(self, overrides):
        doc = cmd_verify(run_config(**overrides), negative_control=True)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert doc["passed"] is False
        assert by_name["detailed_balance"]["status"] == "fail"
        assert by_name["kolmogorov_cycles"]["status"] == "fail"
        assert by_name["flux_identity"]["status"] == "pass"


class TestCmdReport:
    def test_combined_document(self):
        doc = cmd_report(run_config(max_events=20_000, replicas=2))
        assert doc["command"] == "report"
        assert doc["exact"]["state_space_size"] == 4
        assert doc["simulation"]["event_count"] == 40_000
        comparison = doc["comparison"]
        assert comparison["joint_tv_distance"] is not None
        assert comparison["joint_tv_distance"] < 0.05
        assert comparison["marginal_max_abs_diff"] < 0.05


class TestMainEntry:
    def test_exact_to_stdout(self, config_path, capsys):
        assert main(["exact", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "exact"

    def test_cap_exceeded_structured_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, n_sites=30)))
        assert main(["exact", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CapExceededError"
        assert err["error"]["requested"] == 2**30
        assert "cap" in err["error"]["message"]

    def test_invalid_config_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, alpha=[-1.0])))
        assert main(["exact", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["exact", "--config", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_simulate_reports_are_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", config_path, "--output", str(out1)]) == 0
        assert main(["simulate", "--config", config_path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_the_report(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", config_path, "--output", str(out1)])
        main(["simulate", "--config", config_path, "--seed", "12", "--output", str(out2)])
        doc1, doc2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert doc1["sim"]["seed"] == 11 and doc2["sim"]["seed"] == 12
        assert doc1["total_time"] != doc2["total_time"]

    def test_events_and_replicas_overrides(self, config_path, capsys):
        assert main([
            "simulate", "--config", config_path, "--events", "1000", "--replicas", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sim"]["max_events"] == 1000
        assert doc["sim"]["replicas"] == 3
        assert doc["event_count"] == 3000

    def test_verify_pass_and_negative_control_exit_codes(self, config_path, capsys):
        assert main(["verify", "--config", config_path]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", config_path, "--negative-control"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_report_command_runs(self, config_path, tmp_path):
        out = tmp_path / "r.json"
        assert main(["report", "--config", config_path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "report"


class TestCsvOutput:
    def test_exact_tables(self, config_path, tmp_path):
        base = tmp_path / "out"
        assert main([
            "exact", "--config", config_path, "--format", "csv", "--output", str(base),
        ]) == 0
        dist_lines = (tmp_path / "out.distribution.csv").read_text().splitlines()
        assert dist_lines[0] == "state_index,state,p_closed_form,p_solved"
        assert len(dist_lines) == 5
        assert dist_lines[1].startswith('0,"0,0",0.44444444444444442,')
        marg_lines = (tmp_path / "out.marginals.csv").read_text().splitlines()
        assert marg_lines[0] == "site,state,probability"
        assert len(marg_lines) == 5  # two sites x two occupancy values

    def test_simulate_tables(self, config_path, tmp_path):
        base = tmp_path / "sim"
        assert main([
            "simulate", "--config", config_path, "--format", "csv", "--output", str(base),
        ]) == 0
        flux_lines = (tmp_path / "sim.flux.csv").read_text().splitlines()
        assert flux_lines[0] == "type,j_closed,j_boundary,j_empirical,stderr,zscore"
        assert len(flux_lines) == 2
        sojourn_lines = (tmp_path / "sim.sojourn.csv").read_text().splitlines()
        assert sojourn_lines[0] == "type,u_closed,u_littles_law,u_empirical,stderr,sample_count"
        assert (tmp_path / "sim.marginals_empirical.csv").exists()

    def test_csv_to_stdout_has_section_headers(self, config_path, capsys):
        assert main(["exact", "--config", config_path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "# distribution" in out
        assert "# marginals" in out

    def test_verify_checks_table(self, config_path, tmp_path):
        base = tmp_path / "v"
        assert main([
            "verify", "--config", config_path, "--format", "csv", "--output", str(base),
        ]) == 0
        lines = (tmp_path / "v.checks.csv").read_text().splitlines()
        assert lines[0] == "name,status,residual,tolerance,note"

    def test_seventeen_significant_digits(self, config_path, tmp_path):
        base = tmp_path / "p"
        main(["exact", "--config", config_path, "--format", "csv", "--output", str(base)])
        text = (tmp_path / "p.distribution.csv").read_text()
        assert f"{4/9:.17g}" in text
