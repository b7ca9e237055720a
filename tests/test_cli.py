import hashlib
import json
import subprocess
import sys

import pytest

from delib.cli import main

WIDE = "p,a,b,c\n0,1,,0\n1,1,1,\n2,,0,1\n3,0,1,1\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "delib.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def matrix_csv(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(WIDE)
    return str(path)


def test_slate_outputs_schema(matrix_csv):
    result = run_cli("slate", "--k", "2", "--rule", "harmonic", "--exact", "--input", matrix_csv)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) >= {"ideas", "score", "rule", "violations"}
    assert payload["rule"] == "harmonic"
    assert len(payload["ideas"]) == 2


def test_slate_greedy_matches_exact_here(matrix_csv):
    exact = json.loads(run_cli("slate", "--k", "2", "--exact", "--input", matrix_csv).stdout)
    greedy = json.loads(run_cli("slate", "--k", "2", "--greedy", "--input", matrix_csv).stdout)
    assert greedy["score"] <= exact["score"] + 1e-9


def test_rank_proportional(matrix_csv):
    result = run_cli("rank", "--mode", "proportional", "--input", matrix_csv)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    order = [row["idea"] for row in payload]
    assert sorted(order) == [0, 1, 2]
    assert all("provenance" in row for row in payload)


def test_rank_elicitation(matrix_csv):
    result = run_cli("rank", "--mode", "elicitation", "--input", matrix_csv)
    assert result.returncode == 0


def test_rank_csv_format(matrix_csv):
    result = run_cli("rank", "--mode", "proportional", "--format", "csv", "--input", matrix_csv)
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "position,idea,provenance"
    assert len(lines) == 4


def test_route_deterministic_per_seed(matrix_csv):
    a = run_cli("route", "--policy", "uniform", "--budget", "3", "--seed", "42", "--input", matrix_csv)
    b = run_cli("route", "--policy", "uniform", "--budget", "3", "--seed", "42", "--input", matrix_csv)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    plan = json.loads(a.stdout)
    assert (plan["policy"], plan["seed"], plan["shortfall"]) == ("uniform", 42, 0)
    assert len(plan["pairs"]) == 3
    assert all(len(pair) == 2 for pair in plan["pairs"])
    c = run_cli("route", "--policy", "uncertainty", "--budget", "2", "--seed", "1", "--input", matrix_csv)
    assert len(json.loads(c.stdout)["pairs"]) == 2


def test_route_requires_seed(matrix_csv):
    result = run_cli("route", "--policy", "uniform", "--budget", "3", "--input", matrix_csv)
    assert result.returncode == 3


def test_landscape_writes_files(tmp_path, matrix_csv):
    out = tmp_path / "scape"
    result = run_cli(
        "landscape", "--k", "2", "--seed", "7", "--input", matrix_csv, "--out", str(out)
    )
    assert result.returncode == 0
    embedding = (out / "embedding.csv").read_text().splitlines()
    assert embedding[0] == "participant,x,y,cluster"
    assert len(embedding) == 5
    assert (out / "components.csv").exists()
    audit = json.loads((out / "audit.json").read_text())
    assert "blocking_coalitions" in audit


def test_audit_subcommand(matrix_csv):
    result = run_cli("audit", "--k", "2", "--input", matrix_csv)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert "violations" in payload


def test_import_polis(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("participant,comment,vote\n0,0,1\n0,1,-1\n1,0,0\n")
    out = tmp_path / "matrix.csv"
    result = run_cli("import-polis", "--input", str(votes), "--out", str(out))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["passes"] == 1
    assert out.exists()


def simulate_config():
    return {
        "population": {
            "n0": 6,
            "approval_radius": 3.0,
            "mixture": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": 1.0}],
            "seed": 1,
        },
        "rounds": 2,
        "query_budget_per_round": 6,
        "initial_ideas": 3,
        "slate_k": 1,
        "landscape_k": 2,
        "seed": 4,
    }


def churn_simulate_config():
    """``simulate_config`` with a partial ``weights`` section, churn, noise and new ideas."""
    config = simulate_config()
    config["population"].update(arrival_rate=1.5, departure_prob=0.2, noise_sigma=0.3)
    config.update(rounds=4, routing_policy="uncertainty", ideas_per_round=1,
                  weights={"c_explore": 0.5, "prior_weight": 2.0})
    return config


def required_simulate_config():
    """``simulate_config`` with every optional field left out, ``mixture`` included."""
    return {"population": {"n0": 6, "approval_radius": 3.0}, "rounds": 2, "query_budget_per_round": 6}


SIMULATE_CONFIGS = {"churn": churn_simulate_config, "required": required_simulate_config}

# SHA-256 of each file ``delib simulate`` writes; the "required" files are
# also those of that config with the default mixture written out.
SIMULATE_FINGERPRINTS = {
    "churn/timeline.csv": "4992398c0dac821df1814d56761ac72777cfc1712ed8f331a2695b210a4502ea",
    "churn/timeline_long.csv": "8ac4faacfb2f27a33d9fe9604c5d095571588824b531687dee9e36a2f9a07920",
    "churn/summary.json": "efebdfec9505e7a6f03cae540b6011f185c35d3487af238c756dcecc5bd5a20b",
    "required/timeline.csv": "c549889928555958657d529f9c3de2966be598da628ff8c54114df68bf03b454",
    "required/timeline_long.csv": "e78ece552dae0799b0fb8e9c7cf4d46177130c5fe9b50bbcaefd0c9d54e0d2b1",
    "required/summary.json": "08fb01aa20f22fdaaf14fe10963f44a4fd26a96ef57db79eb173c37552f8dd25",
}


def simulate_in_process(tmp_path, config, out=None):
    """The exit code of ``delib simulate`` on ``config``, run through ``cli.main``."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return main(["simulate", "--config", str(config_path), "--out", str(out or tmp_path / "run")])


@pytest.mark.parametrize("name", list(SIMULATE_CONFIGS))
def test_simulate_fingerprints(tmp_path, name):
    assert simulate_in_process(tmp_path, SIMULATE_CONFIGS[name]()) == 0
    for file in ("timeline.csv", "timeline_long.csv", "summary.json"):
        digest = hashlib.sha256((tmp_path / "run" / file).read_bytes()).hexdigest()
        assert digest == SIMULATE_FINGERPRINTS[f"{name}/{file}"], file


def run_simulate(tmp_path, config, *extra):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    return run_cli("simulate", "--config", str(config_path), "--out", str(out), *extra), out


def test_simulate_writes_outputs(tmp_path):
    result, out = run_simulate(tmp_path, simulate_config())
    assert result.returncode == 0, result.stderr
    for name in ("timeline.csv", "timeline_long.csv", "summary.json"):
        assert (out / name).exists()


def test_simulate_seed_flag_overrides_config_seed(tmp_path):
    result, out = run_simulate(tmp_path, simulate_config(), "--seed", "9")
    assert result.returncode == 0, result.stderr
    assert json.loads((out / "summary.json").read_text())["seed"] == 9


def test_simulate_missing_field_is_a_format_error(tmp_path):
    config = simulate_config()
    del config["rounds"]
    result, _ = run_simulate(tmp_path, config)
    assert result.returncode == 2
    assert "'rounds'" in result.stderr
    assert "Traceback" not in result.stderr


def test_simulate_non_numeric_field_is_a_format_error(tmp_path):
    config = simulate_config()
    config["population"]["approval_radius"] = "wide"
    result, _ = run_simulate(tmp_path, config)
    assert result.returncode == 2
    assert "'population.approval_radius'" in result.stderr
    assert "Traceback" not in result.stderr


def _set(config, path, value):
    *parents, last = path
    for key in parents:
        config = config[key]
    config[last] = value


@pytest.mark.parametrize(
    "path, name",
    [
        (("slate_kk",), "'slate_kk'"),
        (("population", "seedd"), "'population.seedd'"),
        (("population", "mixture", 0, "covv"), "'population.mixture[0].covv'"),
        (("weights", "c_explor"), "'weights.c_explor'"),
    ],
)
def test_simulate_unknown_field_is_a_format_error(tmp_path, path, name):
    config = simulate_config()
    config["weights"] = {"c_explore": 1.0}
    _set(config, path, 4)
    result, _ = run_simulate(tmp_path, config)
    assert result.returncode == 2
    assert name in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("cov", [[[1.0, 0.0], [0.0]], [[1.0]], -1.0])
def test_simulate_bad_covariance_is_a_parameter_error(tmp_path, cov):
    config = simulate_config()
    config["population"]["mixture"][0]["cov"] = cov
    result, _ = run_simulate(tmp_path, config)
    assert result.returncode == 3
    assert "variance" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])
def test_simulate_covariance_not_symmetric_psd_is_a_parameter_error(tmp_path, cov):
    config = simulate_config()
    config["population"]["mixture"][0]["cov"] = cov
    result, _ = run_simulate(tmp_path, config)
    assert result.returncode == 3
    assert "symmetric positive semi-definite" in result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_exit_code_format_error(tmp_path):
    missing = str(tmp_path / "nope.csv")
    result = run_cli("slate", "--k", "2", "--input", missing)
    assert result.returncode == 2


def test_exit_code_parameter_error(matrix_csv):
    result = run_cli("slate", "--k", "0", "--input", matrix_csv)
    assert result.returncode == 3


def test_exit_code_capacity_error(tmp_path):
    header = "p," + ",".join(f"i{j}" for j in range(60))
    row = "0," + ",".join("1" for _ in range(60))
    path = tmp_path / "big.csv"
    path.write_text(header + "\n" + row + "\n")
    result = run_cli("slate", "--k", "30", "--exact", "--input", str(path))
    assert result.returncode == 4
    assert "cap" in result.stderr


def test_cli_outputs_reproducible(tmp_path, matrix_csv):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_cli("landscape", "--k", "2", "--seed", "3", "--input", matrix_csv, "--out", str(out))
    for name in ("embedding.csv", "components.csv", "audit.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# Files that cannot be read as a matrix or config; the table adds a
# directory and a missing path.
UNREADABLE_FILES = {
    "non-utf8": b"participant,comment,vote\n1,2,\xff\n",
    "huge-field": b"participant,comment,vote\n1,2," + b"1" * 131_073 + b"\n",
    "empty": b"",
}

COMMANDS = {
    "slate": lambda path, out: ["slate", "--k", "2", "--input", path],
    "audit": lambda path, out: ["audit", "--k", "2", "--input", path],
    "rank": lambda path, out: ["rank", "--mode", "proportional", "--input", path],
    "route": lambda path, out: ["route", "--policy", "uniform", "--budget", "3", "--seed", "1", "--input", path],
    "landscape": lambda path, out: ["landscape", "--k", "2", "--seed", "1", "--input", path, "--out", out],
    "import-polis": lambda path, out: ["import-polis", "--input", path, "--out", out],
    "simulate": lambda path, out: ["simulate", "--config", path, "--out", out],
}


@pytest.mark.parametrize("kind", [*UNREADABLE_FILES, "directory", "missing"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_unreadable_input_exits_with_a_format_error(tmp_path, capsys, command, kind):
    # In-process: main() either returns an exit code or lets an exception,
    # and with it a traceback, escape; no subprocess per case is needed.
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind in UNREADABLE_FILES:
        path.write_bytes(UNREADABLE_FILES[kind])
    code = main(COMMANDS[command](str(path), str(tmp_path / "out")))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("format error: ")
    assert "Traceback" not in err


# Seeds the generators refuse end in a parameter error, under every policy;
# ``simulate`` masks its seeds to 63 bits, so a negative one still runs.
SEED_CASES = [
    *[(["route", "--policy", policy, "--budget", "3", "--seed", "-5"], 3) for policy in ("uniform", "ranking",
                                                                                        "uncertainty")],
    (["landscape", "--k", "2", "--seed", "-1"], 3),
    (["landscape", "--k", "2", "--space", "full", "--seed", "-1"], 3),
    (["route", "--policy", "uniform", "--budget", "3", "--seed", "0"], 0),
    (["landscape", "--k", "2", "--seed", str(2**64)], 0),
]


@pytest.mark.parametrize("argv, code", SEED_CASES, ids=repr)
def test_seeds_exit_with_a_documented_code(tmp_path, capsys, matrix_csv, argv, code):
    out = ["--out", str(tmp_path / "out")] if argv[0] == "landscape" else []
    assert main([*argv, "--input", matrix_csv, *out]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("parameter error: seed must be a non-negative integer"), err
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""


def test_out_naming_an_existing_file_exits_with_a_format_error(tmp_path, capsys, matrix_csv):
    existing = tmp_path / "existing"
    existing.write_text("")
    directory = tmp_path / "outdir"
    directory.mkdir()
    codes = [main(["landscape", "--k", "2", "--seed", "1", "--input", matrix_csv, "--out", str(existing)]),
             simulate_in_process(tmp_path, simulate_config(), existing),
             main(["rank", "--mode", "proportional", "--input", matrix_csv, "--out", str(directory)])]
    err = capsys.readouterr().err
    assert codes == [2, 2, 2], err
    assert err.count("format error: ") == 3 and "Traceback" not in err
    assert list(tmp_path.glob("*.tmp")) == []


FLOAT_FIELDS = [
    ("population", "approval_radius"),
    ("population", "noise_sigma"),
    ("population", "arrival_rate"),
    ("population", "departure_prob"),
    ("population", "idea_jitter"),
    ("population", "mixture", 0, "weight"),
    ("population", "mixture", 0, "cov"),
    ("weights", "c_explore"),
    ("weights", "prior_mean"),
    ("weights", "prior_weight"),
]

INT_FIELDS = [
    ("population", "n0"),
    ("population", "latent_dim"),
    ("population", "seed"),
    ("rounds",),
    ("query_budget_per_round",),
    ("initial_ideas",),
    ("ideas_per_round",),
    ("slate_k",),
    ("landscape_k",),
    ("seed",),
]

SECTIONS = [(), ("population",), ("population", "mixture", 0), ("weights",)]

CONFIG_VALUE_CASES = [
    *[(path, value, 3) for path in [*FLOAT_FIELDS, ("population", "mixture", 0, "mean", 1)]
      for value in (float("nan"), float("inf"), float("-inf"))],
    *[(path, value, 2) for path in INT_FIELDS for value in (2.7, True, "3", None, float("nan"), float("inf"))],
    *[(path, value, 2) for path in FLOAT_FIELDS for value in (True, "wide")],
    (("routing_policy",), 5, 2),
    (("scoring",), 5, 2),
    (("landscape_space",), "bogus", 3),
    (("landscape_k",), 11, 3),
    (("population", "arrival_rate"), 1e20, 3),  # above NumPy's Poisson limit
    *[(path, [], 2) for path in SECTIONS],
]


@pytest.mark.parametrize("path, value, code", CONFIG_VALUE_CASES, ids=repr)
def test_config_values_exit_with_a_documented_code(tmp_path, capsys, recwarn, path, value, code):
    # In-process like the table above; pytest records warnings instead of
    # printing them, so RuntimeWarnings are read from ``recwarn``.
    config = simulate_config()
    config["weights"] = {"c_explore": 1.0, "prior_mean": 0.5, "prior_weight": 0.0}
    if path:
        _set(config, path, value)
    else:
        config = value
    assert simulate_in_process(tmp_path, config) == code
    err = capsys.readouterr().err
    assert err.startswith("format error: " if code == 2 else "parameter error: "), err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
