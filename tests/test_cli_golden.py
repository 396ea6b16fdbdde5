"""Golden CLI reports: every subcommand's output is pinned byte for byte.

The files under tests/data/golden/ were written by the CLI before it was
driven from its parameter table; a refactor of the front end must leave
each report, and each error path's exit code, exactly as it was. The CLI
runs in-process through ``cli.main`` so no case pays interpreter start-up.
"""

import json
from pathlib import Path

import pytest

from entlab import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "measure-leak": [
        "measure", "--name", "leak",
        "--channel", '{"family": "dephasing", "epsilon": 0.2}', "--qubits", "0",
    ],
    "measure-environment-info": [
        "measure", "--name", "environment-info", "--state", '{"family": "ghz", "n": 2}',
        "--channel", '{"family": "correlated_flip", "epsilon": 0.3, "pauli": "ZZ"}',
        "--qubits", "0",
    ],
    "measure-mutual-information": [
        "measure", "--name", "mutual-information",
        "--state", '{"family": "ghz", "n": 3}', "--qubits", "0,2",
    ],
    "measure-excess-leak": [
        "measure", "--name", "excess-leak",
        "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}',
        "--qubits", "0,1",
    ],
    "measure-assisted": [
        "--seed", "5", "measure", "--name", "assisted",
        "--state", '{"family": "dicke", "n": 3, "excitations": 1}', "--qubits", "0,1",
        "--restarts", "2", "--sweeps", "4",
    ],
    "measure-set-defect": [
        "measure", "--name", "set-defect",
        "--state", '{"family": "bitflip_code", "logical": [1, [0, 1]]}', "--qubits", "0,1,2",
    ],
    "measure-set-excess-leak": [
        "measure", "--name", "set-excess-leak",
        "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZZ"}',
        "--qubits", "0,1,2",
    ],
    "measure-total-defect": [
        "measure", "--name", "total-defect", "--state", '{"family": "cluster", "n": 4}',
        "--truncate", "2", "--include-full", "always",
    ],
    "relation-1": [
        "relation", "--id", "1", "--level", "0.5", "--state", '{"family": "bell"}',
        "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}',
        "--qubits", "0,1",
    ],
    "relation-2": [
        "relation", "--id", "2", "--seed", "3", "--state", '{"family": "bell"}',
        "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}',
        "--qubits", "0,1", "--restarts", "2", "--sweeps", "8",
    ],
    "relation-3": [
        "relation", "--id", "3", "--level", "2", "--state", '{"family": "plus_all", "n": 3}',
        "--channel", '{"family": "pairwise_correlated", "n": 3, "p1": 0.1, "p2": 0.02}',
        "--qubits", "0,1,2",
    ],
    "relation-4": [
        "relation", "--id", "4", "--seed", "3", "--state", '{"family": "ghz", "n": 3}',
        "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZZ"}',
        "--qubits", "0,1,2", "--restarts", "2", "--sweeps", "4",
    ],
    "censorship-ghz": [
        "censorship", "--family", "ghz", "--n-min", "3", "--n-max", "4", "--truncate", "2",
    ],
    "censorship-random-circuit": [
        "censorship", "--family", "random-circuit", "--n-max", "3", "--depth", "3",
        "--include-full", "always", "--seed", "4",
    ],
    "sync-moments": [
        "sync", "--p1", "1e-3", "--p2", "2e-5", "--n", "1000", "--threshold", "10",
        "--p3", "1e-6",
    ],
    "sync-channel": [
        "sync", "--channel",
        '{"family": "product", "n": 2, "parts": ['
        '{"family": "depolarizing", "p": 0.3, "qubits": [0]},'
        '{"family": "dephasing", "epsilon": 0.1, "qubits": [1]}]}',
    ],
    "qec-demo-named": ["qec-demo", "--epsilon", "0.5", "--logical", "plus"],
    "qec-demo-amplitudes": ["qec-demo", "--epsilon", "0.3", "--logical", "0.6,0.8"],
    "qec-demo-default": ["qec-demo", "--epsilon", "0.7"],
    "run-config": ["run", "--config", str(DATA / "run_config.json")],
    "csv-measure": [
        "measure", "--name", "mutual-information", "--state", '{"family": "ghz", "n": 3}',
        "--qubits", "0,2", "--format", "csv",
    ],
    "csv-run": ["--format", "csv", "run", "--config", str(DATA / "run_config.json")],
}

RELATION_ARGS = [
    "--state", '{"family": "bell"}',
    "--channel", '{"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"}',
    "--qubits", "0,1",
]

# (argv, exit code) of error paths; argparse errors exit through SystemExit
EXIT_CASES = {
    "no-command": ([], 2),
    "measure-without-name": (["measure", "--qubits", "0"], 2),
    "measure-unknown-name": (["measure", "--name", "bogus"], 2),
    "measure-needs-channel": (["measure", "--name", "leak", "--qubits", "0"], 2),
    "measure-needs-pair": (
        ["measure", "--name", "mutual-information", "--state", '{"family": "bell"}',
         "--qubits", "0"],
        2,
    ),
    "measure-bad-inline-json": (
        ["measure", "--name", "leak", "--channel", "{bad", "--qubits", "0"], 2,
    ),
    "measure-missing-spec-file": (
        ["measure", "--name", "leak", "--channel", "no-such-spec.json", "--qubits", "0"], 2,
    ),
    "measure-bad-include-full": (
        ["measure", "--name", "total-defect", "--state", '{"family": "bell"}',
         "--include-full", "sometimes"],
        2,
    ),
    "measure-bad-int": (
        ["measure", "--name", "assisted", "--state", '{"family": "bell"}',
         "--qubits", "0,1", "--restarts", "two"],
        2,
    ),
    "relation-bad-id": (["relation", "--id", "5", *RELATION_ARGS], 2),
    "relation-without-state": (
        ["relation", "--id", "1", *RELATION_ARGS[2:]], 2,
    ),
    "relation-one-qubit": (["relation", "--id", "1", *RELATION_ARGS[:4], "--qubits", "0"], 2),
    "censorship-bad-family": (["censorship", "--family", "w"], 2),
    "censorship-bad-range": (["censorship", "--family", "ghz", "--n-min", "1"], 2),
    "censorship-bad-int": (["censorship", "--family", "ghz", "--n-max", "x"], 2),
    "sync-nothing": (["sync"], 2),
    "sync-unpaired-moments": (["sync", "--p1", "0.1"], 2),
    "sync-unpaired-tail": (["sync", "--p1", "0.1", "--p2", "0.02", "--n", "10"], 2),
    "sync-infeasible-moments": (["sync", "--p1", "1e-3", "--p2", "2e-3"], 1),
    "qec-demo-without-epsilon": (["qec-demo"], 2),
    "qec-demo-zero-amplitudes": (["qec-demo", "--epsilon", "0.5", "--logical", "0,0"], 2),
    "qec-demo-three-amplitudes": (["qec-demo", "--epsilon", "0.5", "--logical", "1,0,0"], 2),
    "qec-demo-bad-epsilon": (["qec-demo", "--epsilon", "1.5"], 1),
    "seed-negative": (["--seed", "-5", "qec-demo", "--epsilon", "0.5"], 2),
    "seed-too-large": (["qec-demo", "--epsilon", "0.5", "--seed", str(2**64)], 2),
    "stochastic-spec-without-seed": (
        ["measure", "--name", "leak", "--state",
         '{"family": "random_circuit", "n": 2, "depth": 3}',
         "--channel", '{"family": "dephasing", "epsilon": 0.2}', "--qubits", "0"],
        2,
    ),
    "run-without-config": (["run"], 2),
    "run-missing-config-file": (["run", "--config", "no-such-config.json"], 2),
}

# the stderr line of the error cases whose message is pinned too
EXIT_MESSAGES = {
    "sync-unpaired-moments": "config error [p1]: p1 and p2 must be given together",
    "sync-unpaired-tail": "config error [n]: n and threshold must be given together",
}

BELL_FLIP = {
    "state": {"family": "bell"},
    "channel": {"family": "correlated_flip", "epsilon": 0.2, "pauli": "ZZ"},
}

# run config bodies (JSON text or a JSON value) and the exit code each gives
RUN_EXIT_CASES = {
    "not-json": ("{nope", 2),
    "not-an-object": ([1, 2], 2),
    "no-evaluations": ({"seed": 1}, 2),
    "empty-evaluations": ({"evaluations": []}, 2),
    "evaluation-not-object": ({"evaluations": [3]}, 2),
    "unknown-kind": ({"evaluations": [{"kind": "mystery"}]}, 2),
    "unhashable-kind": ({"evaluations": [{"kind": []}]}, 2),
    "unknown-format": ({"format": "xml", "evaluations": [{"kind": "qec_demo", "epsilon": 1}]}, 2),
    "out-not-a-path": ({"out": 2, "evaluations": [{"kind": "qec_demo", "epsilon": 1}]}, 2),
    "subcommand-spelling-of-kind": ({"evaluations": [{"kind": "qec-demo", "epsilon": 1}]}, 2),
    "measure-unknown-name": ({"evaluations": [{"kind": "measure", "name": "bogus"}]}, 2),
    "state-not-object": (
        {"evaluations": [{"kind": "measure", "name": "mutual-information", "state": 5,
                          "qubits": [0, 1]}]},
        2,
    ),
    "relation-without-state": (
        {"evaluations": [{"kind": "relation", "id": 1, "channel": BELL_FLIP["channel"],
                          "qubits": [0, 1]}]},
        2,
    ),
    "relation-bad-id": (
        {"evaluations": [{"kind": "relation", "id": 7, "qubits": [0, 1], **BELL_FLIP}]}, 2,
    ),
    "relation-without-qubits": ({"evaluations": [{"kind": "relation", "id": 1, **BELL_FLIP}]}, 2),
    "censorship-unknown-family": ({"evaluations": [{"kind": "censorship", "family": "w"}]}, 2),
    "measure-bad-include-full": (
        {"evaluations": [{"kind": "measure", "name": "total-defect", "include_full": "x",
                          "state": {"family": "bell"}}]},
        2,
    ),
    "qec-demo-without-epsilon": ({"evaluations": [{"kind": "qec_demo"}]}, 2),
    "sync-infeasible-moments": ({"evaluations": [{"kind": "sync", "p1": 1e-3, "p2": 2e-3}]}, 1),
    "stochastic-without-seed": (
        {"evaluations": [{"kind": "measure", "name": "leak", "qubits": [0],
                          "channel": {"family": "random_unitary", "n": 2, "epsilon": 0.4}}]},
        2,
    ),
}


def run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys):
    code, out, err = run_main(CASES[name], capsys)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(EXIT_CASES))
def test_error_exit_code(name, capsys):
    argv, want = EXIT_CASES[name]
    code, out, err = run_main(argv, capsys)
    assert code == want, err
    assert out == ""


@pytest.mark.parametrize("name", sorted(EXIT_MESSAGES))
def test_error_message(name, capsys):
    argv, want = EXIT_CASES[name]
    code, out, err = run_main(argv, capsys)
    assert code == want
    assert err.splitlines() == [EXIT_MESSAGES[name]]


@pytest.mark.parametrize("name", sorted(RUN_EXIT_CASES))
def test_run_config_exit_code(name, tmp_path, capsys):
    body, want = RUN_EXIT_CASES[name]
    config = tmp_path / "config.json"
    config.write_text(body if isinstance(body, str) else json.dumps(body), encoding="utf-8")
    code, out, err = run_main(["run", "--config", str(config)], capsys)
    assert code == want, err
    assert out == ""
