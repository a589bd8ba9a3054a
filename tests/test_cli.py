import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepsim.cli
import sepsim.exact
from sepsim import SimConfig, decode
from sepsim.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    cmd_exact,
    cmd_report,
    cmd_simulate,
    cmd_verify,
    _csv_cell,
    _dumps,
    _json,
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
        # An infinite tolerance would give a check that cannot fail.
        for value in (0.0, True, "1e-3", float("inf"), float("nan")):
            with pytest.raises(ValueError):
                run_config(tolerances={"oracle_equivalence": value})
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

    def test_state_labels_decode_the_state_index(self):
        config = run_config(n_sites=3, n_types=2, alpha=[1.0, 2.0], beta=[2.0, 1.0], delta=[1.0, 1.0])
        labels = cmd_exact(config)["distribution"]["state"]
        assert labels == [",".join(map(str, decode(i, config.model))) for i in range(27)]

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
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # Stiff rates on which the solver used to fail inside verify.
            {"n_sites": 5, "n_types": 2, "alpha": [1e-6, 1e3], "beta": [1e3, 1e-3],
             "delta": [1.0, 1.0]},
            {"n_sites": 7, "n_types": 2, "alpha": [1e-4, 30.0], "beta": [5.0, 0.1],
             "delta": [1.0, 1.0]},
        ],
        ids=["n2k1", "stiff5", "stiff7"],
    )
    def test_all_checks_pass_on_valid_model(self, overrides):
        doc = cmd_verify(run_config(**overrides))
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {
            "irreducible",
            "oracle_equivalence",
            "detailed_balance",
            "reversed_rates_general",
            "flux_identity",
            "littles_law_identity",
            "uniformity",
            "delta_independence",
            "boundary_hop_independence",
            "kolmogorov_cycles",
        } <= names

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"n_sites": 8, "n_types": 2, "alpha": [1.0, 2.0], "beta": [2.0, 1.0],
              "delta": [1.0, 1.0]}],
        ids=["n2k1", "n8k2"],
    )
    @pytest.mark.parametrize("negative_control, factorizations", [(False, 1), (True, 2)],
                             ids=["clean", "negative-control"])
    def test_factors_once_and_certifies_the_variants(self, monkeypatch, overrides,
                                                       negative_control, factorizations):
        # The hop-rate and boundary-flag variants are certified, not solved:
        # only the model itself (and its perturbed copy) is solved.
        solve = sepsim.cli.solve_stationary
        calls = []

        def counting_solve(gen):
            calls.append(gen.dim)
            return solve(gen)

        monkeypatch.setattr(sepsim.cli, "solve_stationary", counting_solve)
        doc = cmd_verify(run_config(**overrides), negative_control=negative_control)
        assert len(calls) == factorizations
        assert doc["passed"] is not negative_control
        by_name = {c["name"]: c for c in doc["checks"]}
        for name in ("delta_independence", "boundary_hop_independence"):
            assert by_name[name]["status"] == "pass"

    @pytest.mark.parametrize("negative_control", [False, True], ids=["clean", "negative-control"])
    def test_builds_one_generator(self, monkeypatch, negative_control):
        # The variants are certified on the probability tensor, so only the
        # model's own generator is built.
        build = sepsim.cli.build_generator
        calls = []

        def counting_build(params, **kwargs):
            calls.append(params)
            return build(params, **kwargs)

        monkeypatch.setattr(sepsim.cli, "build_generator", counting_build)
        config = run_config(n_sites=4, n_types=2, alpha=[1.0, 2.0], beta=[2.0, 1.0], delta=[1.0, 1.0])
        cmd_verify(config, negative_control=negative_control)
        assert calls == [config.model]

    @pytest.mark.parametrize("negative_control, potentials", [(False, 1), (True, 2)],
                             ids=["clean", "negative-control"])
    def test_builds_the_tree_potential_once_per_generator(self, monkeypatch, negative_control,
                                                          potentials):
        # The solve and the cycle check read the same memoised potential; the
        # negative control's perturbed copy builds its own, once.
        forest = sepsim.exact._forest_potential
        calls = []

        def counting_forest(gen, log_ratio):
            calls.append(gen)
            return forest(gen, log_ratio)

        monkeypatch.setattr(sepsim.exact, "_forest_potential", counting_forest)
        config = run_config(n_sites=4, n_types=2, alpha=[1.0, 2.0], beta=[2.0, 1.0], delta=[1.0, 1.0])
        doc = cmd_verify(config, negative_control=negative_control)
        assert doc["passed"] is not negative_control
        assert len(calls) == len({id(gen) for gen in calls}) == potentials

    def test_oracle_equivalence_notes_the_relative_deviation(self):
        config = run_config(n_sites=5, n_types=2, alpha=[1e-6, 1e3], beta=[1e3, 1e-3], delta=[1.0, 1.0])
        oracle = {c["name"]: c for c in cmd_verify(config)["checks"]}["oracle_equivalence"]
        prefix = "max relative deviation "
        assert oracle["note"].startswith(prefix)
        assert float(oracle["note"][len(prefix):]) <= 1e-10
        assert oracle["status"] == "pass"

    def test_rate_symmetric_model_runs_conditional_checks(self):
        doc = cmd_verify(run_config(alpha=[1.0], beta=[1.0]))
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["uniformity"]["status"] == "pass"

    def test_general_model_skips_conditional_checks(self):
        doc = cmd_verify(run_config())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["uniformity"]["status"] == "skipped"
        general = by_name["reversed_rates_general"]
        assert general["status"] == "pass"
        # Detailed balance holds for alpha != beta too; the note names the paper's case.
        assert general["note"].startswith("detailed balance holds for every alpha and beta")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_sites": 3},
            # 1024 states: a cycle check that sampled above 729 states missed this edge.
            {"n_sites": 5, "n_types": 3, "alpha": [1.0, 2.0, 0.5], "beta": [2.0, 1.0, 1.0],
             "delta": [1.0, 1.0, 1.0]},
            {"n_sites": 3, "alpha": [1.0], "beta": [1.0]},
        ],
        ids=["n3k1", "n5k3", "n3k1-symmetric"],
    )
    def test_negative_control_fails_balance_checks(self, overrides):
        config = run_config(**overrides)
        doc = cmd_verify(config, negative_control=True)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert doc["passed"] is False
        assert by_name["detailed_balance"]["status"] == "fail"
        assert by_name["kolmogorov_cycles"]["status"] == "fail"
        assert by_name["flux_identity"]["status"] == "pass"
        general = by_name["reversed_rates_general"]
        assert general["status"] == "fail" and general["residual"] is None
        assert general["note"].startswith("distribution is not stationary")


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

    def test_sections_equal_the_single_command_documents(self):
        config = run_config(
            n_sites=3, n_types=2, alpha=[1.0, 2.0], beta=[2.0, 1.0], delta=[1.0, 0.5],
            max_events=5000, replicas=2,
        )
        report = cmd_report(config)
        dropped = {"artifact", "model", "seed", "tolerances", "command", "irreducible"}

        def section(doc):
            return {key: value for key, value in doc.items() if key not in dropped}

        assert report["exact"] == section(cmd_exact(config))
        assert report["simulation"] == section(cmd_simulate(config))


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

    @pytest.mark.parametrize(
        "document",
        [
            dict(BASE_CONFIG, alpha=[-1.0]),
            5,
            None,
            dict(BASE_CONFIG, alpha=1),
            dict(BASE_CONFIG, alpha=[None]),
            dict(BASE_CONFIG, warmup_fraction="x"),
            dict(BASE_CONFIG, tolerances=[1]),
            dict(BASE_CONFIG, tolerances={"detailed_balance": None}),
            dict(BASE_CONFIG, boundary_hops="false"),
            dict(BASE_CONFIG, record_trajectory=False),
            dict(BASE_CONFIG, output=5),
            dict(BASE_CONFIG, max_events=True),
            # json writes and reads this as the non-standard `Infinity`.
            dict(BASE_CONFIG, tolerances={"detailed_balance": float("inf")}),
            dict(BASE_CONFIG, alpha="1"),
            dict(BASE_CONFIG, delta=[True]),
            # Integers too large for a float.
            dict(BASE_CONFIG, alpha=[10**400]),
            dict(BASE_CONFIG, beta=[10**400]),
            dict(BASE_CONFIG, delta=[10**400]),
        ],
        ids=["negative-alpha", "number", "null", "scalar-alpha", "null-alpha",
             "string-warmup", "list-tolerances", "null-tolerance",
             "string-boundary-hops", "removed-record-trajectory", "number-output",
             "bool-max-events", "infinite-tolerance", "string-alpha", "bool-rate",
             "overflow-alpha", "overflow-beta", "overflow-delta"],
    )
    def test_invalid_config_is_an_error(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
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

    def test_one_parser_serves_every_call(self, config_path, monkeypatch, capsys):
        parser = sepsim.cli._parser()
        assert sepsim.cli._parser() is parser
        parse = parser.parse_args
        parsed = []

        def recording_parse(argv=None):
            parsed.append(parse(argv))
            return parsed[-1]

        monkeypatch.setattr(parser, "parse_args", recording_parse)
        assert main(["verify", "--config", config_path, "--negative-control"]) == 1
        capsys.readouterr()
        assert main(["exact", "--config", config_path]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "exact"
        verify_args, exact_args = parsed
        assert verify_args.command == "verify" and verify_args.negative_control is True
        # A flag of one command does not carry over to the next parse.
        assert exact_args.command == "exact" and not hasattr(exact_args, "negative_control")

    def test_report_command_runs(self, config_path, tmp_path):
        out = tmp_path / "r.json"
        assert main(["report", "--config", config_path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "report"


    def test_commands_on_a_model_leave_scipy_unloaded(self, tmp_path):
        # A model's generator is spanned by the irreducibility lemma's tree,
        # so only the negative control's perturbed copy reaches scipy's LU.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, n_sites=3, n_types=2, alpha=[1.0, 2.0],
                                          beta=[2.0, 1.0], delta=[1.0, 1.0], max_events=2000,
                                          replicas=1)))
        runs = [("simulate",), ("exact",), ("report",), ("verify",), ("verify", "--negative-control")]
        script = (
            "import json, sys\n"
            "from sepsim.cli import main\n"
            "config, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
            "codes, loaded = [], []\n"
            "for i, args in enumerate(runs):\n"
            "    codes.append(main([args[0], '--config', config, '--output', f'{out}/{i}.json', *args[1:]]))\n"
            "    loaded.append('scipy' in sys.modules)\n"
            "print(json.dumps([codes, loaded]))\n"
        )
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(sepsim.cli.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script, str(config), str(fresh), json.dumps(runs)],
                                env=env, capture_output=True, text=True, check=True)
        codes, loaded = json.loads(result.stdout)
        assert codes == [0, 0, 0, 0, 1]
        assert loaded == [False, False, False, False, True]
        # The same documents as from this process, where scipy is loaded.
        for i, args in enumerate(runs):
            assert main([args[0], "--config", str(config), "--output", str(here / f"{i}.json"),
                         *args[1:]]) == codes[i]
            assert (fresh / f"{i}.json").read_bytes() == (here / f"{i}.json").read_bytes()

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

    def test_report_tables(self, config_path, tmp_path):
        base = tmp_path / "r"
        assert main([
            "report", "--config", config_path, "--format", "csv", "--output", str(base),
        ]) == 0
        tables = {  # name: (header, rows) for two sites and one type
            "distribution": ("state_index,state,p_closed_form,p_solved", 4),
            "marginals": ("site,state,probability", 4),
            "flux": ("type,j_closed,j_boundary,j_empirical,stderr,zscore", 1),
            "sojourn": ("type,u_closed,u_littles_law,u_empirical,stderr,sample_count", 1),
            "marginals_empirical": ("site,state,probability", 4),
        }
        assert sorted(p.name for p in tmp_path.glob("r.*")) == sorted(f"r.{t}.csv" for t in tables)
        for name, (header, rows) in tables.items():
            lines = (tmp_path / f"r.{name}.csv").read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + rows

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

    def test_every_cell_is_the_json_value_it_projects(self, tmp_path):
        # The projections are written out here, apart from the emitter's own
        # table list, so that two swapped columns fail.
        columns = {
            "distribution": ("exact", "distribution", {
                "state_index": "state_index", "state": "state",
                "p_closed_form": "p_closed_form", "p_solved": "p_solved"}),
            "flux": ("simulation", "flux", {
                "type": "type", "j_closed": "closed_form", "j_boundary": "boundary_form",
                "j_empirical": "empirical", "stderr": "stderr", "zscore": "zscore"}),
            "sojourn": ("simulation", "sojourn", {
                "type": "type", "u_closed": "closed_form", "u_littles_law": "littles_law",
                "u_empirical": "empirical_mean", "stderr": "stderr",
                "sample_count": "sample_count"}),
        }
        matrices = {
            "marginals": ("exact", "site_marginals", "from_solved"),
            "marginals_empirical": ("simulation", "marginals", "empirical"),
        }
        # j_closed and j_boundary are equal by the paper's identity; at these
        # rates they still differ in the last bit.
        path = tmp_path / "k2.json"
        path.write_text(json.dumps(dict(
            BASE_CONFIG, n_sites=3, n_types=2, alpha=[1.3, 1.7], beta=[2.0, 1.0],
            delta=[1.0, 0.5], max_events=5000,
        )))
        for command, single_section in (("exact", "exact"), ("simulate", "simulation"),
                                        ("report", None), ("verify", None)):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--output", f"{out}.json"]) == 0
            assert main([command, "--config", str(path), "--format", "csv", "--output", str(out)]) == 0
            doc = json.loads((tmp_path / f"{command}.json").read_text())
            sections = {single_section: doc} if single_section else doc
            written = sorted(p.name for p in tmp_path.glob(f"{command}.*.csv"))
            assert written, command
            for name in written:
                table = name[len(command) + 1:-len(".csv")]
                with open(tmp_path / name, newline="", encoding="utf-8") as handle:
                    header, *rows = list(csv.reader(handle))
                if table == "checks":
                    expected = [[_csv_cell(c.get(key, "")) for key in header]
                                for c in doc["checks"]]
                elif table in matrices:
                    section, block, key = matrices[table]
                    assert header == ["site", "state", "probability"]
                    expected = [[_csv_cell(site0 + 1), _csv_cell(state), _csv_cell(p)]
                                for site0, row in enumerate(sections[section][block][key])
                                for state, p in enumerate(row)]
                else:
                    section, block, keys = columns[table]
                    assert header == list(keys)
                    values = sections[section][block]
                    expected = [[_csv_cell(v) for v in row]
                                for row in zip(*(values[keys[h]] for h in header))]
                assert rows == expected, (command, table)


def _stdlib_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    # Both zeros in one list, floats on both sides of repr's switch to
    # exponent form (1e16, 1e-5), subnormals, empty containers, non-ASCII and
    # control characters, bools and big ints among ints, NaN and infinities.
    # tests/test_json_writer.py draws many more such documents.
    @pytest.mark.parametrize("doc", [
        [0.0, -0.0, 0.5, 0.0, -0.0],
        {"a": [], "b": {}, "c": [[], {}], "": [1e16, 1e-5, 5e-324, 1e16]},
        ["\u00e9\u0001\"\\\n", "\U0001f600", "\x7f"],
        [True, 1, False, 0, 2**100, -(2**64)],
        [float("nan"), float("inf"), -float("inf"), 1.0, float("nan")],
        ({"x": (1.5, None, "y")}, [], [[2.5, 2.5, 0.1]]),
    ], ids=["zeros", "empty-and-exponents", "strings", "ints-and-bools", "nonfinite", "nested"])
    def test_writer_is_stdlib_indent_two_sorted(self, doc):
        assert _dumps(doc) == _stdlib_text(doc)

    @pytest.mark.parametrize("argv", [
        ["exact"], ["simulate"], ["verify"], ["verify", "--negative-control"], ["report"],
    ], ids=["exact", "simulate", "verify", "verify-negative-control", "report"])
    def test_every_command_writes_the_stdlib_text(self, tmp_path, argv):
        path = tmp_path / "k2.json"
        path.write_text(json.dumps(dict(
            BASE_CONFIG, n_sites=3, n_types=2, alpha=[1.3, 1.7], beta=[2.0, 1.0],
            delta=[1.0, 0.5], max_events=2000,
        )))
        out = tmp_path / "out.json"
        assert main([argv[0], "--config", str(path), "--output", str(out), *argv[1:]]) in (0, 1)
        text = out.read_text(encoding="utf-8")
        assert text == _stdlib_text(json.loads(text))

    def test_error_payload_is_the_stdlib_text(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, n_sites=30, output="\u00e9")))
        assert main(["exact", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == _stdlib_text(json.loads(err))

    def test_emit_config_is_the_stdlib_text(self):
        config = run_config(output="r\u00e9sultat.json", tolerances={"uniformity": 1e-5})
        assert emit_config(config) == _stdlib_text(config.to_dict())

    @pytest.mark.parametrize("array, expected", [
        (np.array([0.5, np.nan, np.inf, -np.inf, -0.0]), [0.5, None, None, None, -0.0]),
        (np.array([[1.5, np.nan], [np.inf, 2.0]], dtype=np.float32), [[1.5, None], [None, 2.0]]),
        (np.array([[1, -2], [3, 2**40]], dtype=np.int64), [[1, -2], [3, 2**40]]),
        (np.array([0, 255], dtype=np.uint8), [0, 255]),
        (np.array([[True, False]]), [[True, False]]),
        (np.arange(3), [0, 1, 2]),
    ], ids=["float-nonfinite", "float32-nonfinite", "int64", "uint8", "bool", "arange"])
    def test_arrays_become_json_values(self, array, expected):
        converted = _json(array)
        assert converted == expected
        assert _dumps(converted) == _stdlib_text(expected)

        def kinds(value):
            return [kinds(v) for v in value] if isinstance(value, list) else type(value)

        assert kinds(converted) == kinds(expected)
