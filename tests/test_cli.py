import csv
import hashlib
import io
import json
import re
import subprocess
import sys

import pytest

import entlab
from entlab import cli
from entlab.channels import build_cluster_noise
from entlab.measures import information_leak
from entlab.zoo import line_edges
from helpers import CLI_ENV, h2


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "entlab.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_measure_leak_report_schema():
    proc = run_cli(
        "measure",
        "--name",
        "leak",
        "--channel",
        '{"family": "dephasing", "epsilon": 0.2}',
        "--qubits",
        "0",
    )
    report = json.loads(proc.stdout)
    assert sorted(report) == ["config", "diagnostics", "results", "version"]
    assert report["version"] == entlab.__version__
    assert report["config"]["command"] == "measure"
    entry = report["results"][0]
    assert entry["measure"] == "leak"
    assert abs(entry["value"] - 0.468996) < 1e-6


def test_measure_assisted_on_bell():
    proc = run_cli(
        "measure",
        "--name",
        "assisted",
        "--state",
        '{"family": "bell"}',
        "--qubits",
        "0,1",
        "--restarts",
        "2",
        "--sweeps",
        "8",
        "--seed",
        "1",
    )
    report = json.loads(proc.stdout)
    entry = report["results"][0]
    assert abs(entry["value"] - 2.0) < 1e-9
    assert "floor" in entry["diagnostics"]


def test_relation_subcommand():
    proc = run_cli(
        "relation",
        "--id",
        "1",
        "--level",
        "0.5",
        "--state",
        '{"family": "bell"}',
        "--channel",
        '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}',
        "--qubits",
        "0,1",
    )
    report = json.loads(proc.stdout)
    entry = report["results"][0]
    assert entry["verdict"] == "satisfied"
    assert abs(entry["k_hat_per_leak"] - 0.5) < 1e-9


def test_censorship_subcommand_frozen_values():
    proc = run_cli(
        "censorship",
        "--family",
        "ghz",
        "--n-min",
        "3",
        "--n-max",
        "4",
        "--truncate",
        "2",
        "--include-full",
        "never",
    )
    report = json.loads(proc.stdout)
    values = [r["value"] for r in report["results"] if r["measure"] == "family-total-defect"]
    assert abs(values[0] - 3.0) < 1e-6
    assert abs(values[1] - 6.0) < 1e-6
    growth = [r for r in report["results"] if r["measure"] == "growth-exponent"][0]
    assert abs(growth["value"] - 2.40942083965) < 1e-6


def test_sync_subcommand():
    proc = run_cli("sync", "--p1", "1e-3", "--p2", "2e-5", "--n", "1000", "--threshold", "10")
    report = json.loads(proc.stdout)
    by_name = {r["measure"]: r for r in report["results"]}
    burst = by_name["mixture-burst-probability"]
    assert abs(burst["value"] - 0.05) < 1e-12
    assert abs(burst["diagnostics"]["in_burst_rate"] - 0.02) < 1e-12
    assert 0.045 < by_name["correlated-tail"]["value"] < 0.05
    assert by_name["independent-tail"]["value"] < 1e-6
    assert abs(by_name["triple-moment-ratio"]["value"] - 400.0) < 1e-6


def test_sync_mean_weight_from_channel():
    proc = run_cli(
        "sync",
        "--channel",
        '{"family": "depolarizing", "p": 0.3}',
    )
    report = json.loads(proc.stdout)
    entry = [r for r in report["results"] if r["measure"] == "mean-error-weight"][0]
    assert abs(entry["value"] - 0.3) < 1e-9


def test_qec_demo_subcommand():
    proc = run_cli("qec-demo", "--epsilon", "0.5", "--logical", "plus")
    report = json.loads(proc.stdout)
    by_name = {r["measure"]: r for r in report["results"]}
    assert abs(by_name["decoded-fidelity"]["value"] - 0.5625) < 1e-9


def test_stochastic_spec_requires_seed():
    proc = run_cli(
        "measure",
        "--name",
        "leak",
        "--state",
        '{"family": "random_circuit", "n": 2, "depth": 3}',
        "--channel",
        '{"family": "dephasing", "epsilon": 0.2}',
        "--qubits",
        "0",
        expect=2,
    )
    assert "seed" in proc.stderr.lower()


def test_unknown_evaluation_kind_is_config_error(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"evaluations": [{"kind": "mystery"}]}))
    proc = run_cli("run", "--config", str(config), expect=2)
    assert "kind" in proc.stderr


def test_csv_format():
    proc = run_cli(
        "measure",
        "--name",
        "mutual-information",
        "--state",
        '{"family": "ghz", "n": 3}',
        "--qubits",
        "0,2",
        "--format",
        "csv",
    )
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows
    assert "index" in rows[0]
    assert abs(float(rows[0]["value"]) - 1.0) < 1e-9


RUN_CONFIG = {
    "seed": 99,
    "evaluations": [
        {
            "kind": "measure",
            "name": "excess-leak",
            "channel": {"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"},
            "qubits": [0, 1],
        },
        {
            "kind": "relation",
            "id": 2,
            "level": 0.5,
            "state": {"family": "bell"},
            "channel": {"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"},
            "qubits": [0, 1],
            "restarts": 2,
            "sweeps": 8,
        },
        {
            "kind": "measure",
            "name": "leak",
            "channel": {"family": "random_unitary", "n": 2, "epsilon": 0.4},
            "qubits": [0],
        },
        {"kind": "sync", "p1": 1e-3, "p2": 2e-5, "n": 1000, "threshold": 10},
        {"kind": "qec_demo", "epsilon": 0.5, "logical": "zero"},
    ],
}


def test_run_is_deterministic(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_CONFIG))
    first = run_cli("run", "--config", str(config), "--out", str(tmp_path / "a.json"))
    second = run_cli("run", "--config", str(config), "--out", str(tmp_path / "b.json"))
    assert "wrote" in first.stdout
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    report = json.loads(a)
    assert report["config"]["seed"] == 99
    assert report["diagnostics"]["result_count"] == len(report["results"])
    # derived seed labels are recorded for reproducibility
    assert any("random_unitary" in s or "relation" in s for s in report["diagnostics"]["seed_labels"])


def test_run_without_seed_fails_on_stochastic_parts(tmp_path):
    config = tmp_path / "config.json"
    body = dict(RUN_CONFIG)
    body = {k: v for k, v in body.items() if k != "seed"}
    config.write_text(json.dumps(body))
    proc = run_cli("run", "--config", str(config), expect=2)
    assert "seed" in proc.stderr.lower()


def run_config(tmp_path, capsys, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    code = cli.main(["run", "--config", str(config)])
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


@pytest.mark.parametrize("seed", [-5, 7.9, 2**64, True, "abc"])
def test_run_config_seed_must_be_u64(seed, tmp_path, capsys):
    body = {"seed": seed, "evaluations": [{"kind": "qec_demo", "epsilon": 0.5}]}
    code, err = run_config(tmp_path, capsys, body)
    assert code == 2
    assert "[seed]" in err


@pytest.mark.parametrize(
    "entry, field",
    [
        ({"kind": "censorship", "family": "ghz", "n_min": "x"}, "n_min"),
        ({"kind": "censorship", "family": "ghz", "include_full": "sometimes"}, "include_full"),
        ({"kind": "sync", "p1": [0.1], "p2": 0.01}, "p1"),
        ({"kind": "qec_demo", "epsilon": {"value": 0.5}}, "epsilon"),
        ({"kind": "measure", "name": "assisted", "restarts": "two"}, "restarts"),
        ({"kind": []}, "kind"),
        ({"kind": "measure", "name": "assisted", "restarts": -4}, "restarts"),
        ({"kind": "measure", "name": "assisted", "sweeps": -1}, "sweeps"),
        ({"kind": "relation", "id": 4, "state": {"family": "ghz", "n": 3},
          "channel": {"family": "identity", "n": 3}, "qubits": [0, 1, 2], "restarts": 0},
         "restarts"),
        # errors the subcommand's reader raises carry the evaluation's index too
        ({"kind": "relation", "id": 1, "state": {"family": "ghz", "n": 3},
          "channel": {"family": "identity", "n": 3}, "qubits": [0, 1, 2]}, "qubits"),
        ({"kind": "measure", "name": "leak", "qubits": [0]}, "channel"),
        ({"kind": "measure", "name": "leak", "qubits": [0], "channel": {
            "family": "product",
            "parts": [{"family": "dephasing", "epsilon": 0.1, "qubits": [0.5]}],
        }}, "channel.parts[0].qubits"),
        ({"kind": "measure", "name": "leak", "qubits": [0], "channel": {
            "family": "product",
            "parts": [{"family": "dephasing", "epsilon": 0.1, "qubits": {"q": 0}}],
        }}, "channel.parts[0].qubits"),
        ({"kind": "measure", "name": "leak", "qubits": [0], "channel": {
            "family": "product",
            "parts": [{"family": "dephasing", "epsilon": 0.1, "qubit": 2, "qubits": None}],
        }}, "channel.parts[0].qubits"),
        ({"kind": "measure", "name": "leak", "qubits": [0],
          "channel": {"family": "depolarizing", "p": 0.1, "qubit": 1.5}}, "channel.qubit"),
        # spec fields follow the flag rules: integers refuse floats, null is absent
        *[({"kind": "measure", "name": "mutual-information", "qubits": [0, 1],
            "state": state}, field) for state, field in [
            ({"family": "ghz", "n": 3.9}, "state.n"),
            ({"family": "ghz", "n": None}, "state.n"),
            ({"family": "ghz", "n": [3]}, "state.n"),
            ({"family": "ghz", "n": "x"}, "state.n"),
            ({"family": "dicke", "n": 3, "excitations": 1.5}, "state.excitations"),
            ({"family": "random_circuit", "n": 2, "depth": 2, "seed": 4.5}, "state.seed"),
            ({"family": "bitflip_code", "logical": [1]}, "state.logical"),
        ]],
        *[({"kind": "measure", "name": "leak", "qubits": [0], "channel": channel}, field)
          for channel, field in [
            ({"family": "dephasing", "epsilon": "abc"}, "channel.epsilon"),
            ({"family": "dephasing", "epsilon": [0.1]}, "channel.epsilon"),
            ({"family": "identity", "n": 2.7}, "channel.n"),
            ({"family": "product", "n": 2.5, "parts": [
                {"family": "dephasing", "epsilon": 0.1, "qubits": [0]}]}, "channel.n"),
            ({"family": "product", "parts": [
                {"family": "identity", "n": 1.5, "qubits": [0]}]}, "channel.parts[0].n"),
        ]],
        *[({"kind": "relation", "id": 2, "state": {"family": "bell"},
            "channel": {"family": "identity", "n": 2}, "qubits": [0, 1], **keys}, field)
          for keys, field in [
            ({"id": 1.7}, "id"),
            ({"id": True}, "id"),
            ({"restarts": 1.9}, "restarts"),
            ({"sweeps": 2.5}, "sweeps"),
        ]],
        ({"kind": "censorship", "family": "ghz", "n_min": 2.5}, "n_min"),
        ({"kind": "censorship", "family": "ghz", "n_max": 3.9}, "n_max"),
        ({"kind": "censorship", "family": "ghz", "truncate": 2.9}, "truncate"),
        ({"kind": "sync", "p1": 1e-3, "p2": 2e-5, "n": 1000.7, "threshold": 10}, "n"),
        ({"kind": "sync", "p1": 1e-3, "p2": 2e-5, "n": 1000, "threshold": 10.2}, "threshold"),
        ({"kind": "qec_demo", "epsilon": 0.5, "logical": "a,b"}, "logical"),
        ({"kind": "censorship", "family": "ghz", "truncate": 1}, "truncate"),
        ({"kind": "measure", "name": "total-defect", "state": {"family": "bell"},
          "truncate": 1}, "truncate"),
        # an unknown measure is refused before its specs are read
        ({"kind": "measure", "name": "bogus", "state": {"family": "nope"}}, "name"),
        # a JSON true or false is not a qubit position
        ({"kind": "measure", "name": "mutual-information", "state": {"family": "ghz", "n": 3},
          "qubits": [True, 0]}, "qubits"),
        ({"kind": "measure", "name": "leak", "qubits": [0], "channel": {
            "family": "product",
            "parts": [{"family": "dephasing", "epsilon": 0.1, "qubits": [False]}],
        }}, "channel.parts[0].qubits"),
    ],
)
def test_run_config_bad_value_names_field(entry, field, tmp_path, capsys):
    body = {"evaluations": [{"kind": "qec_demo", "epsilon": 1}, entry]}
    code, err = run_config(tmp_path, capsys, body)
    assert code == 2
    assert f"[evaluations[1].{field}]" in err


def test_run_config_non_integer_qubits_is_config_error(tmp_path, capsys):
    """A float position is refused, not truncated to a register index."""
    entry = {"kind": "relation", "id": 1, "state": {"family": "bell"},
             "channel": {"family": "identity", "n": 2}, "qubits": [0.5, 1]}
    code, err = run_config(tmp_path, capsys, {"evaluations": [entry]})
    assert code == 2
    assert "config error [evaluations[0].qubits]: qubit positions must be integers" in err


@pytest.mark.parametrize("flag, value", [("--restarts", "-4"), ("--sweeps", "-1")])
def test_search_budget_flag_is_config_error(flag, value, capsys):
    code = cli.main(["--seed", "1", "measure", "--name", "assisted", "--qubits", "0,1",
                     "--state", '{"family": "bell"}', flag, value])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"config error [{flag[2:]}]" in err


_DEPHASING = '{"family": "dephasing", "epsilon": 0.2}'
_FLIP_ZZ = '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}'
_BELL = '{"family": "bell"}'
# every measure with all of its inputs
_MEASURE_INPUTS = {
    "leak": {"channel": _DEPHASING, "qubits": "0"},
    "environment-info": {"channel": _DEPHASING, "qubits": "0"},
    "mutual-information": {"state": _BELL, "qubits": "0,1"},
    "excess-leak": {"channel": _FLIP_ZZ, "qubits": "0,1"},
    "assisted": {"state": _BELL, "qubits": "0,1"},
    "set-defect": {"state": '{"family": "ghz", "n": 3}', "qubits": "0,1,2"},
    "set-excess-leak": {"channel": _FLIP_ZZ, "qubits": "0,1"},
    "total-defect": {"state": _BELL},
}


@pytest.mark.parametrize(
    "name, missing, needs",
    [
        ("leak", "channel", "a channel spec"),
        ("leak", "qubits", "a qubit set"),
        ("environment-info", "channel", "a channel spec"),
        ("environment-info", "qubits", "a qubit set"),
        ("mutual-information", "state", "a state spec"),
        ("mutual-information", "qubits", "exactly two qubits"),
        ("excess-leak", "channel", "a channel spec"),
        ("excess-leak", "qubits", "exactly two qubits"),
        ("assisted", "state", "a state spec"),
        ("assisted", "qubits", "exactly two qubits"),
        ("set-defect", "state", "a state spec"),
        ("set-defect", "qubits", "a qubit set"),
        ("set-excess-leak", "channel", "a channel spec"),
        ("set-excess-leak", "qubits", "a qubit set"),
        ("total-defect", "state", "a state spec"),
    ],
)
def test_measure_without_an_input_names_its_field(name, missing, needs, capsys):
    inputs = {flag: value for flag, value in _MEASURE_INPUTS[name].items() if flag != missing}
    argv = ["measure", "--name", name]
    for flag, value in inputs.items():
        argv += [f"--{flag}", value]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"config error [{missing}]: measure '{name}' needs {needs}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--name", "total-defect", "--state", _BELL],
        ["censorship", "--family", "ghz", "--n-max", "3"],
    ],
    ids=["measure", "censorship"],
)
def test_truncate_below_two_is_config_error(argv, capsys):
    code = cli.main([*argv, "--truncate", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "config error [truncate]: 'truncate' must be at least 2, got 1" in err


@pytest.mark.parametrize("key, value", [("format", "xml"), ("out", 2)])
def test_run_config_bad_output_key_names_field(key, value, tmp_path, capsys):
    body = {key: value, "evaluations": [{"kind": "qec_demo", "epsilon": 1}]}
    code, err = run_config(tmp_path, capsys, body)
    assert code == 2
    assert f"[{key}]" in err


def test_run_report_shows_the_seed_it_used(tmp_path, capsys):
    leak = {"kind": "measure", "name": "leak", "qubits": [0],
            "channel": {"family": "random_unitary", "n": 2, "epsilon": 0.4}}
    reports = []
    for seed, flags in ((7, ["--seed", "5"]), (5, [])):
        config = tmp_path / f"config{seed}.json"
        config.write_text(json.dumps({"seed": seed, "evaluations": [leak]}))
        assert cli.main([*flags, "run", "--config", str(config)]) == 0
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["config"]["seed"] == 5
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1.7]], "qubit position 1.7 is not an integer"),
        ([[1, 1]], "self-loop on qubit 1"),
        ([[0, 3]], r"edge \(0,3\) outside register of size 3"),
    ],
    ids=["float", "self-loop", "outside-register"],
)
@pytest.mark.parametrize("owner", ["state", "channel"])
def test_bad_spec_edges_are_config_errors(owner, edges, message, capsys):
    """A spec's edges are read like every other field: a bad edge is a
    config error that names the field, not a library error."""
    spec = {"family": "cluster", "n": 3, "edges": edges}
    if owner == "state":
        argv = ["measure", "--name", "mutual-information", "--qubits", "0,1"]
    else:
        spec.update(epsilon=0.2, seed=1)
        argv = ["measure", "--name", "leak", "--qubits", "0"]
    code = cli.main([*argv, f"--{owner}", json.dumps(spec)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"config error [{owner}.edges]" in err
    assert re.search(message, err)


def test_total_defect_echoes_the_truncation_it_ran_at(capsys):
    """Without --truncate, total-defect runs at total_defect's default of 4
    and its config says so; another measure echoes the unset flag as null,
    and a given flag is echoed as given."""
    ghz5 = '{"family": "ghz", "n": 5}'
    echoes = []
    for argv in (
        ["measure", "--name", "total-defect", "--state", ghz5],
        ["measure", "--name", "total-defect", "--state", ghz5, "--truncate", "3"],
        ["measure", "--name", "set-defect", "--state", ghz5, "--qubits", "0,1,2"],
    ):
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        echoes.append(report["config"]["truncate"])
        if argv[2] == "total-defect":
            assert report["results"][0]["diagnostics"]["included_sizes"] == list(
                range(2, echoes[-1] + 1)
            )
    assert echoes == [4, 3, None]


def _leak_report(capsys, channel, qubits, *flags):
    code = cli.main([*flags, "measure", "--name", "leak", "--qubits", qubits,
                     "--channel", json.dumps(channel)])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def test_compose_spec_chains_its_stages(capsys):
    """A unitary after dephasing leaves the one-qubit leak at H2(0.1); the
    unseeded stage draws its seed under its own owner name."""
    channel = {"family": "compose", "stages": [
        {"family": "dephasing", "epsilon": 0.2},
        {"family": "random_unitary", "n": 1, "epsilon": 0.5},
    ]}
    report = _leak_report(capsys, channel, "0", "--seed", "4")
    assert report["results"][0]["value"] == 0.468995593589
    assert report["diagnostics"]["seed_labels"] == ["channel.stages[1].random_unitary:0"]


def test_compose_spec_without_stages_is_config_error(capsys):
    code = cli.main(["measure", "--name", "leak", "--qubits", "0",
                     "--channel", json.dumps({"family": "compose", "stages": []})])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "config error [channel.stages]" in err


@pytest.mark.parametrize("edges", [None, [[0, 2], [1, 2]]], ids=["line", "given"])
def test_cluster_spec_is_the_seeded_builder(edges, capsys):
    """An unseeded cluster spec builds build_cluster_noise at the seed that
    sha256("<root>:channel.cluster:0") derives, on a line without edges."""
    channel = {"family": "cluster", "n": 3, "epsilon": 0.6}
    if edges is not None:
        channel["edges"] = edges
    report = _leak_report(capsys, channel, "0,2", "--seed", "3")
    seed = int.from_bytes(hashlib.sha256(b"3:channel.cluster:0").digest()[:8], "big")
    built = build_cluster_noise(3, line_edges(3) if edges is None else edges, 0.6, seed)
    assert report["results"][0]["value"] == float(f"{information_leak(built, (0, 2)):.12g}")
    assert report["diagnostics"]["seed_labels"] == ["channel.cluster:0"]


@pytest.mark.parametrize(
    "rid, qubits, needs",
    [
        (1, "0", "exactly two qubits"),
        (2, "0,1,2", "exactly two qubits"),
        (3, "0", "two or more qubits"),
        (4, "", "two or more qubits"),
    ],
)
def test_relation_without_its_qubits_names_the_field(rid, qubits, needs, capsys):
    """A relation reads its inputs through the measures' reader, so a
    qubit list of the wrong size is a config error naming `qubits`."""
    code = cli.main(["relation", "--id", str(rid), "--state", '{"family": "ghz", "n": 3}',
                     "--channel", _FLIP_ZZ, "--qubits", qubits])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"config error [qubits]: relation {rid} needs {needs}"]


def test_bitflip_code_amplitude_of_three_entries_is_config_error(capsys):
    state = json.dumps({"family": "bitflip_code", "logical": [1, [0, 1, 2]]})
    code = cli.main(["measure", "--name", "set-defect", "--state", state, "--qubits", "0,1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("config error [state.logical]: ")
    assert "amplitude [0, 1, 2] should be a number or [re, im]" in err


def test_channel_spec_file_reads_as_the_inline_spec(tmp_path, capsys):
    """A spec read from a file gives the inline spec's report byte for
    byte; a file that is not JSON is a config error naming `channel`."""
    path = tmp_path / "flip.json"
    path.write_text(_FLIP_ZZ, encoding="utf-8")
    reports = []
    for channel in (_FLIP_ZZ, str(path)):
        code = cli.main(["measure", "--name", "excess-leak", "--channel", channel,
                         "--qubits", "0,1"])
        out, err = capsys.readouterr()
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]
    path.write_text("{nope", encoding="utf-8")
    code = cli.main(["measure", "--name", "leak", "--channel", str(path), "--qubits", "0"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("config error [channel]: bad JSON in channel file: ")


def _refuse_constant(name):
    raise AssertionError(f"bare {name} in the report")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_infinite_k_hat_renders_as_a_string(fmt, capsys):
    """Relation 1 on |+>|+> under a ZZ flip: the term is 0 and the excess
    H2(0.2), so k_hat is infinite and renders as the string "inf", never
    as a bare Infinity that strict JSON readers refuse."""
    code = cli.main(["relation", "--id", "1", "--state", '{"family": "plus_all", "n": 2}',
                     "--channel", _FLIP_ZZ, "--qubits", "0,1", "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 0, err
    if fmt == "json":
        result = json.loads(out, parse_constant=_refuse_constant)["results"][0]
    else:
        (result,) = csv.DictReader(io.StringIO(out))
    assert float(result["term"]) == 0.0
    assert float(result["excess_leak"]) == float(f"{h2(0.2):.12g}")
    assert (result["k_hat"], result["k_hat_per_leak"]) == ("inf", "inf")


@pytest.mark.parametrize("command", [
    ["measure", "--name", "leak", "--channel", _DEPHASING, "--qubits", "0"],
    ["relation", "--id", "1", "--channel", _FLIP_ZZ, "--qubits", "0,1"],
], ids=["measure", "relation"])
def test_an_empty_state_spec_is_built_and_refused(command, capsys):
    """Every spec that is given is built, so an empty one is refused by the
    spec reader, not taken for a missing input or ignored."""
    code = cli.main([*command, "--state", "{}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == ["config error [state.family]: 'family' is required"]
