"""Command line front end.

Subcommands build states and channels from small JSON specs, evaluate
measures and relations, scan state families for censorship growth, and
write structured reports. Every stochastic ingredient draws its seed from
the root --seed value through a labeled hash, so rerunning a command with
identical arguments produces a byte-identical report body.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import operator
import os
import sys
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .channels import (
    QuantumChannel,
    build_cluster_noise,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    build_random_unitary_noise,
    combine,
    compose,
    identity_channel,
)
from .conjectures import (
    censorship_scan,
    eval_relation1,
    eval_relation2,
    eval_relation34,
)
from .errors import ConfigError
from .measures import (
    INCLUDE_FULL,
    MAX_SET_SIZE,
    assisted_mutual_information,
    environment_information,
    excess_leak,
    excess_leak_set,
    information_leak,
    max_entropy_defect,
    mutual_information,
    total_defect,
)
from .sync import (
    binomial_tail,
    fit_mixture,
    quantum_randomization_demo,
    tail_probability,
    triple_moment,
    weight_distribution,
)
from .zoo import (
    _validate_edges,
    bell,
    bitflip_code_encode,
    cluster_state,
    dicke_state,
    ghz,
    line_edges,
    plus_all,
    random_circuit_state,
)


class SeedStream:
    """Per-use seeds derived from one root by hashing a label and index.

    The derivation is the documented contract: the seed handed to a
    component is the first 8 bytes of sha256("{root}:{label}:{index}").
    Asking for a seed without a root is a configuration error.
    """

    def __init__(self, root):
        self.root = root
        self.labels = []

    def derive(self, label: str, index: int = 0) -> int:
        if self.root is None:
            raise ConfigError(
                f"'{label}' uses randomness; a root seed is required (pass --seed)",
                field="seed",
            )
        self.labels.append(f"{label}:{index}")
        digest = hashlib.sha256(f"{self.root}:{label}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big")


class Param(NamedTuple):
    """One field: a subcommand parameter (flag ``--name``, underscores
    spelled as dashes, on the command line; key ``name`` in a ``run``
    evaluation) or a key of a state or channel spec.

    ``type`` casts a given value; None keeps it as given and ``load_spec``
    reads a JSON spec. A missing or null value takes ``default``. A given
    value below ``minimum`` is a config error.
    """

    name: str
    type: Callable | None = None
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None
    minimum: int | None = None


def _integer(value) -> int:
    """A JSON integer or a flag's digits; a bool or a float is refused, not truncated."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return int(value) if isinstance(value, str) else operator.index(value)


def _resolve(param: Param, value, field: str):
    """``value`` with the default filled in, cast and checked; a missing
    required or a bad value raises ConfigError."""
    if value is None:
        if param.required:
            raise ConfigError(f"'{param.name}' is required", field=field)
        value = param.default
    elif param.type is load_spec:
        value = load_spec(value, field)
    elif param.type is not None:
        try:
            value = param.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad value {value!r} for '{param.name}': {exc}", field=field)
    if param.choices is not None and value not in param.choices:
        raise ConfigError(f"'{param.name}' must be one of {list(param.choices)}", field=field)
    if param.minimum is not None and value is not None and value < param.minimum:
        raise ConfigError(
            f"'{param.name}' must be at least {param.minimum}, got {value}", field=field
        )
    return value


def _amplitude(x) -> complex:
    # scalars are real amplitudes; [re, im] pairs select a phase
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"amplitude {x!r} should be a number or [re, im]")
        return complex(float(x[0]), float(x[1]))
    return complex(float(x), 0.0)


def _logical(amps) -> tuple[complex, complex]:
    """Two logical amplitudes, scaled to unit norm."""
    if not isinstance(amps, (list, tuple)) or len(amps) != 2:
        raise ValueError("logical amplitudes must be two numbers")
    a, b = (_amplitude(x) for x in amps)
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm < 1e-12:
        raise ValueError("logical amplitudes are all zero")
    return a / norm, b / norm


def _product(parts, n, seeds: SeedStream, owner: str) -> QuantumChannel:
    built = []
    for i, part in enumerate(parts):
        sub_owner = f"{owner}.parts[{i}]"
        channel = build_channel(part, seeds, sub_owner)
        qubits = _resolve(_PART_QUBITS, part.get("qubits"), f"{sub_owner}.qubits")
        built.append((channel, _parse_qubits(qubits, f"{sub_owner}.qubits")))
    return combine(built, n=n)


def _compose(stages, seeds: SeedStream, owner: str) -> QuantumChannel:
    if not stages:
        raise ConfigError("'stages' must be non-empty", field=f"{owner}.stages")
    out = build_channel(stages[0], seeds, f"{owner}.stages[0]")
    for i, stage in enumerate(stages[1:], start=1):
        out = compose(build_channel(stage, seeds, f"{owner}.stages[{i}]"), out)
    return out


# a spec without a seed derives one under the label "<owner>.<family>"
_SEED = Param("seed", _integer)
_N = Param("n", _integer, required=True)
_EPSILON = Param("epsilon", float, required=True)
_QUBIT = Param("qubit", _integer, default=0)
_EDGES = Param("edges")
_PART_QUBITS = Param("qubits", required=True)
_LOGICAL = Param("logical", _logical, default=(1.0, 0.0))

# family -> (builder, the spec keys passed to it in order)
STATE_FAMILIES = {
    "product": (plus_all, (_N,)),
    "plus_all": (plus_all, (_N,)),
    "bell": (bell, ()),
    "ghz": (ghz, (_N,)),
    "cluster": (
        lambda n, edges, graph: cluster_state(n, line_edges(n) if edges is None else edges),
        (_N, _EDGES, Param("graph", default="line", choices=("line",))),
    ),
    "dicke": (dicke_state, (_N, Param("excitations", _integer, required=True))),
    "random_circuit": (
        random_circuit_state, (_N, Param("depth", _integer, required=True), _SEED)
    ),
    "bitflip_code": (lambda logical: bitflip_code_encode(*logical), (_LOGICAL,)),
}

CHANNEL_FAMILIES = {
    "identity": (identity_channel, (Param("n", _integer, default=1),)),
    "depolarizing": (build_depolarizing, (Param("p", float, required=True), _QUBIT)),
    "dephasing": (build_dephasing, (_EPSILON, _QUBIT)),
    "correlated_flip": (build_correlated_flip, (_EPSILON, Param("pauli", str, required=True))),
    "pairwise_correlated": (build_pairwise_correlated, (
        _N, Param("p1", float, required=True), Param("p2", float, required=True),
        Param("basis", str, default="X"),
    )),
    "random_unitary": (build_random_unitary_noise, (_N, _EPSILON, _SEED)),
    "cluster": (
        lambda n, edges, eps, seed: build_cluster_noise(
            n, line_edges(n) if edges is None else edges, eps, seed
        ),
        (_N, _EDGES, _EPSILON, _SEED),
    ),
    # the nested families build each part or stage under its own owner name
    "product": (_product, (Param("parts", list, required=True), Param("n", _integer))),
    "compose": (_compose, (Param("stages", list, required=True),)),
}


def _read_spec(families: dict, spec, seeds: SeedStream, owner: str):
    """The builder of ``spec``'s family and its arguments, each key read by
    ``_resolve`` under the field ``<owner>.<key>``."""
    if not isinstance(spec, dict):
        raise ConfigError(
            f"{owner} spec must be an object with a 'family' tag", field=f"{owner}.family"
        )
    family_param = Param("family", required=True, choices=tuple(families))
    family = _resolve(family_param, spec.get("family"), f"{owner}.family")
    builder, params = families[family]
    args = {}
    for param in params:
        if param is _EDGES:
            # edges are checked against the register size read before them
            param = param._replace(type=partial(_validate_edges, args["n"]))
        value = _resolve(param, spec.get(param.name), f"{owner}.{param.name}")
        if param is _SEED and value is None:
            value = seeds.derive(f"{owner}.{family}")
        args[param.name] = value
    return builder, list(args.values())


def build_state(spec: dict, seeds: SeedStream, owner: str = "state"):
    """PureState from a declarative spec like {"family": "ghz", "n": 3}."""
    builder, args = _read_spec(STATE_FAMILIES, spec, seeds, owner)
    return builder(*args)


def build_channel(spec: dict, seeds: SeedStream, owner: str = "channel") -> QuantumChannel:
    """QuantumChannel from a declarative spec; seeded builders pull from
    the stream unless the spec pins its own seed."""
    builder, args = _read_spec(CHANNEL_FAMILIES, spec, seeds, owner)
    if builder in (_product, _compose):
        return builder(*args, seeds, owner)
    return builder(*args)


def load_spec(text, field: str):
    """Parse inline JSON, or read a JSON file when given a path; a value
    that is not a string is already a spec and is returned as given."""
    if not isinstance(text, str):
        return text
    s = text.strip()
    if s.startswith("{"):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad inline JSON for {field}: {exc}", field=field)
    try:
        with open(s, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {field} spec: {exc}", field=field)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {field} file: {exc}", field=field)


def _parse_qubits(value, field="qubits"):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        try:
            return tuple(_integer(q) for q in value)
        except (TypeError, ValueError):
            raise ConfigError(f"qubit positions must be integers, got {value!r}", field=field)
    try:
        return tuple(int(part) for part in str(value).split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"cannot parse qubit list {value!r}", field=field)


def _measure_entry(name, result, qubits=None, diagnostics=None):
    """One report entry. A result object gives its ``value``, and its
    diagnostics are its ``diagnostics`` plus every other field but the
    ``decomposition`` and the per-subset ``terms``."""
    if is_dataclass(result):
        diagnostics = dict(result.diagnostics)
        for f in fields(result):
            if f.name not in ("value", "diagnostics", "decomposition", "terms"):
                diagnostics[f.name] = getattr(result, f.name)
        result = result.value
    return {
        "measure": name,
        "value": result,
        "qubits": list(qubits) if qubits is not None else None,
        "diagnostics": {} if diagnostics is None else diagnostics,
    }


def _search_budget(params: dict) -> dict:
    return {key: params[key] for key in ("restarts", "sweeps") if params[key] is not None}


# measure -> (the inputs it needs, checked in order, and its library call
# on (state, channel, qubits, params, seeds))
MEASURES = {
    "leak": (
        ("channel", "set"), lambda s, c, q, p, seeds: information_leak(c, q, input_state=s)
    ),
    "environment-info": (
        ("channel", "set"), lambda s, c, q, p, seeds: environment_information(c, q, input_state=s)
    ),
    "mutual-information": (("pair", "state"), lambda s, c, q, p, seeds: mutual_information(s, *q)),
    "excess-leak": (
        ("pair", "channel"), lambda s, c, q, p, seeds: excess_leak(c, *q, input_state=s)
    ),
    "assisted": (("pair", "state"), lambda s, c, q, p, seeds: assisted_mutual_information(
        s, *q, seed=seeds.derive("measure.assisted"), **_search_budget(p)
    )),
    "set-defect": (("state", "set"), lambda s, c, q, p, seeds: max_entropy_defect(s, q)),
    "set-excess-leak": (
        ("channel", "set"), lambda s, c, q, p, seeds: excess_leak_set(c, q, input_state=s)
    ),
    "total-defect": (("state",), lambda s, c, q, p, seeds: total_defect(
        s, p["truncate"], p["include_full"]
    )),
}


def measure_results(params: dict, seeds: SeedStream) -> list:
    name = params["name"]
    needs, call = MEASURES[name]
    if name == "total-defect" and params["truncate"] is None:
        # total_defect's default, set here so that the report echoes it
        params["truncate"] = MAX_SET_SIZE
    state = build_state(params["state"], seeds) if params["state"] else None
    channel = build_channel(params["channel"], seeds) if params["channel"] else None
    qubits = _parse_qubits(params["qubits"])
    # input -> (whether it is given, the field that names it, what is needed)
    inputs = {
        "channel": (channel is not None, "channel", "a channel spec"),
        "state": (state is not None, "state", "a state spec"),
        "pair": (qubits is not None and len(qubits) == 2, "qubits", "exactly two qubits"),
        "set": (bool(qubits), "qubits", "a qubit set"),
    }
    for need in needs:
        given, field, what = inputs[need]
        if not given:
            raise ConfigError(f"measure '{name}' needs {what}", field=field)
    return [_measure_entry(name, call(state, channel, qubits, params, seeds), qubits)]


def relation_results(params: dict, seeds: SeedStream) -> list:
    rid = params["id"]
    state = build_state(params["state"], seeds)
    channel = build_channel(params["channel"], seeds)
    qubits = _parse_qubits(params["qubits"])
    level = params["level"]
    budget = _search_budget(params)

    if rid in (1, 2) and len(qubits) != 2:
        raise ConfigError("relations 1 and 2 need exactly two qubits", field="qubits")
    if rid in (3, 4) and len(qubits) < 2:
        raise ConfigError("relations 3 and 4 need a qubit set", field="qubits")
    if rid == 1:
        verdict = eval_relation1(state, channel, *qubits, level)
    elif rid == 2:
        verdict = eval_relation2(
            state, channel, *qubits, level, seed=seeds.derive("relation.2"), **budget
        )
    elif rid == 3:
        verdict = eval_relation34(state, channel, qubits, level, mode="marginal")
    else:
        seed = seeds.derive("relation.4")
        verdict = eval_relation34(
            state, channel, qubits, level, mode="decomposed", seed=seed, **budget
        )
    return [verdict.to_dict()]


_FAMILY_BUILDERS = {
    "product": lambda n, params, seeds: plus_all(n),
    "ghz": lambda n, params, seeds: ghz(n),
    "cluster-line": lambda n, params, seeds: cluster_state(n, line_edges(n)),
    "dicke-half": lambda n, params, seeds: dicke_state(n, n // 2),
    "random-circuit": lambda n, params, seeds: random_circuit_state(
        n, params["depth"], seeds.derive("censorship.family", n)
    ),
}


def censorship_results(params: dict, seeds: SeedStream) -> list:
    family = params["family"]
    n_min = params["n_min"]
    n_max = params["n_max"]
    if n_min < 2 or n_max < n_min:
        raise ConfigError(f"bad size range [{n_min}, {n_max}]", field="n_min")
    builder = _FAMILY_BUILDERS[family]
    report = censorship_scan(
        lambda n: builder(n, params, seeds),
        range(n_min, n_max + 1),
        truncation=params["truncate"],
        include_full=params["include_full"],
    )
    results = [
        _measure_entry(
            "family-total-defect", value, None, {"n": n, "family": family, "method": method}
        )
        for n, value, method in zip(report.sizes, report.values, report.methods)
    ]
    results.append(
        _measure_entry(
            "growth-exponent",
            report.exponent,
            None,
            {
                "family": family,
                "growth": report.growth,
                "truncation": report.truncation,
                "include_full": report.include_full,
            },
        )
    )
    return results


def _given_together(params: dict, first: str, second: str) -> bool:
    """Whether both of two paired parameters are given; one alone is a config error."""
    if (params[first] is None) != (params[second] is None):
        raise ConfigError(f"{first} and {second} must be given together", field=first)
    return params[first] is not None


def sync_results(params: dict, seeds: SeedStream) -> list:
    results = []
    if _given_together(params, "p1", "p2"):
        p1, p2 = params["p1"], params["p2"]
        model = fit_mixture(p1, p2)
        base_diag = {"p1": p1, "p2": p2, "in_burst_rate": model.h}
        results.append(
            _measure_entry("mixture-burst-probability", model.pi, None, dict(base_diag))
        )
        if _given_together(params, "n", "threshold"):
            n, threshold = params["n"], params["threshold"]
            diag = dict(base_diag, n=n, threshold=threshold)
            results.append(
                _measure_entry(
                    "correlated-tail", tail_probability(model, n, threshold), None, diag
                )
            )
            results.append(
                _measure_entry(
                    "independent-tail", binomial_tail(n, threshold, p1), None, dict(diag)
                )
            )
        tm = triple_moment(model, params["p3"])
        results.append(
            _measure_entry(
                "triple-moment-ratio",
                tm.ratio,
                None,
                {
                    "implied_p3": tm.implied_p3,
                    "independent_p3": tm.independent_p3,
                    "target_p3": tm.target_p3,
                    "target_ratio": tm.target_ratio,
                },
            )
        )
    if params["channel"] is not None:
        dist = weight_distribution(build_channel(params["channel"], seeds))
        results.append(
            _measure_entry(
                "mean-error-weight",
                dist.mean_weight(),
                None,
                {
                    "conditional_mean_weight": dist.conditional_mean_weight(),
                    "probabilities": [float(x) for x in dist.probabilities],
                },
            )
        )
    if not results:
        raise ConfigError("sync needs --p1/--p2 or a channel spec", field="p1")
    return results


_NAMED_LOGICAL = {
    "zero": [1.0, 0.0],
    "one": [0.0, 1.0],
    "plus": [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
}


def qec_results(params: dict, seeds: SeedStream) -> list:
    logical = params["logical"]
    if isinstance(logical, str):
        named = _NAMED_LOGICAL.get(logical)
        logical = named or [part for part in logical.split(",") if part.strip() != ""]
    a, b = _resolve(_LOGICAL, logical, "logical")
    demo = quantum_randomization_demo(params["epsilon"], (a, b))
    diag = {"epsilon": demo.epsilon, "logical": [[a.real, a.imag], [b.real, b.imag]]}
    return [
        _measure_entry("decoded-fidelity", demo.fidelity_after_decode, None, dict(diag)),
        _measure_entry(
            "majority-readout-success", demo.classical_majority_success, None, dict(diag)
        ),
    ]


class Subcommand(NamedTuple):
    reader: Callable[[dict, SeedStream], list]
    help: str
    params: tuple


# the one declaration of every subcommand parameter; a run evaluation's
# kind is the subcommand name with "-" spelled "_"
SUBCOMMANDS = {
    "measure": Subcommand(measure_results, "evaluate one measure", (
        Param("name", required=True, choices=tuple(MEASURES), help="which measure to evaluate"),
        Param("state", load_spec, help="state spec (inline JSON or a path)"),
        Param("channel", load_spec, help="channel spec (inline JSON or a path)"),
        Param("qubits", help="comma-separated register positions"),
        Param("truncate", _integer, help="subset-size cap for total-defect", minimum=2),
        Param("include_full", default="auto", choices=INCLUDE_FULL),
        Param("restarts", _integer, help="search restarts for assisted", minimum=1),
        Param("sweeps", _integer, help="search sweeps for assisted", minimum=0),
    )),
    "relation": Subcommand(relation_results, "check one relation at a level", (
        Param("id", _integer, required=True, choices=(1, 2, 3, 4)),
        Param("level", float, default=1.0),
        Param("state", load_spec, required=True, help="state spec (inline JSON or a path)"),
        Param("channel", load_spec, required=True, help="channel spec (inline JSON or a path)"),
        Param("qubits", required=True, help="comma-separated register positions"),
        Param("restarts", _integer, help="search restarts for relations 2 and 4", minimum=1),
        Param("sweeps", _integer, help="search sweeps for relations 2 and 4", minimum=0),
    )),
    "censorship": Subcommand(censorship_results, "total-defect growth over a family", (
        Param("family", required=True, choices=tuple(sorted(_FAMILY_BUILDERS))),
        Param("n_min", _integer, default=2),
        Param("n_max", _integer, default=6),
        Param("truncate", _integer, default=3, minimum=2),
        Param("include_full", default="never", choices=INCLUDE_FULL),
        Param("depth", _integer, default=2, help="depth for random-circuit"),
    )),
    "sync": Subcommand(sync_results, "classical tails and error-weight statistics", (
        Param("p1", float, help="single-bit hit probability"),
        Param("p2", float, help="pair hit probability"),
        Param("n", _integer, help="number of bits for the tail"),
        Param("threshold", _integer, help="tail cut: P(hits > threshold)"),
        Param("p3", float, help="optional observed triple moment"),
        Param("channel", load_spec, help="channel spec for the weight distribution"),
    )),
    "qec-demo": Subcommand(qec_results, "repetition code under randomizing noise", (
        Param("epsilon", float, required=True, help="survival probability"),
        Param("logical", default="1,0", help="a,b amplitudes or zero/one/plus"),
    )),
}


def resolve_params(command: str, values: dict, owner: str = "") -> dict:
    """The table's parameters of ``command`` taken from ``values``, in
    table order; other keys of ``values`` are ignored."""
    return {
        param.name: _resolve(param, values.get(param.name), owner + param.name)
        for param in SUBCOMMANDS[command].params
    }


def run_experiment(config: dict, seeds: SeedStream) -> list:
    evaluations = config.get("evaluations")
    if not isinstance(evaluations, list) or not evaluations:
        raise ConfigError("config needs a non-empty 'evaluations' list", field="evaluations")
    commands = {command.replace("-", "_"): command for command in SUBCOMMANDS}
    # top-level specs are defaults; an evaluation may override them
    shared = {key: config[key] for key in ("state", "channel") if key in config}
    results = []
    for i, entry in enumerate(evaluations):
        if not isinstance(entry, dict):
            raise ConfigError(f"evaluation {i} is not an object", field=f"evaluations[{i}]")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in commands:
            raise ConfigError(
                f"evaluation {i} has unknown kind {kind!r}; choose from {sorted(commands)}",
                field=f"evaluations[{i}].kind",
            )
        command = commands[kind]
        params = resolve_params(command, {**shared, **entry}, f"evaluations[{i}].")
        try:
            results.extend(SUBCOMMANDS[command].reader(params, seeds))
        except ConfigError as exc:
            field = f"evaluations[{i}]" + (f".{exc.field}" if exc.field else "")
            raise ConfigError(str(exc), field=field) from None
    return results


def _jsonable(obj):
    """Plain JSON types only, floats rounded so reruns are byte-identical."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return bool(obj) if obj is not None else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return repr(value)
        return float(f"{value:.12g}") + 0.0
    if isinstance(obj, str):
        return obj
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


def render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def _flatten(obj, prefix, into):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}{key}.", into)
    elif isinstance(obj, list):
        into[prefix[:-1]] = json.dumps(obj, sort_keys=True)
    else:
        into[prefix[:-1]] = "" if obj is None else obj


def render_csv(report: dict) -> str:
    rows = []
    for result in report["results"]:
        flat = {}
        _flatten(_jsonable(result), "", flat)
        rows.append(flat)
    columns = sorted({key for row in rows for key in row})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index"] + columns)
    for i, row in enumerate(rows):
        writer.writerow([i] + [row.get(col, "") for col in columns])
    return buffer.getvalue()


def assemble_report(config: dict, results: list, seeds: SeedStream) -> dict:
    return {
        "config": config,
        "results": results,
        "diagnostics": {
            "result_count": len(results),
            "seed_labels": list(seeds.labels),
        },
        "version": __version__,
    }


def _u64(value) -> int:
    value = _integer(value)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an integer that fits in 64 unsigned bits")
    return value


# the flags every command takes, before or after its name; a run config's
# keys of the same names set their defaults
_COMMON = (
    Param("seed", _u64, help="root seed (u64)"),
    Param("out", os.fspath, help="write the report here"),
    Param("format", default="json", choices=("json", "csv"), help="report format (default json)"),
)


def _add_flags(parser, params, default=None) -> None:
    for param in params:
        # specs are read after parsing, so their errors name the field
        parser.add_argument(
            "--" + param.name.replace("_", "-"),
            dest=param.name,
            type=None if param.type is load_spec else param.type,
            default=default,
            required=param.required,
            choices=param.choices,
            help=param.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Noise correlation measures, relation checks, and scans.",
    )
    # a flag not given is left unset, so a subparser does not reset the root's
    _add_flags(parser, _COMMON, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")
    for command, spec in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        _add_flags(p, _COMMON, argparse.SUPPRESS)
        _add_flags(p, spec.params)

    p = sub.add_parser("run", help="run an experiment config file")
    _add_flags(p, _COMMON, argparse.SUPPRESS)
    p.add_argument("--config", required=True, help="path to a JSON config")
    return parser


def _dispatch(args, seeds: SeedStream):
    command = args.command
    if command != "run":
        params = resolve_params(command, vars(args))
        results = SUBCOMMANDS[command].reader(params, seeds)
        # formed after the reader, which may fill in a default it ran at
        return {"command": command, "seed": seeds.root, **params}, results
    try:
        with open(args.config, encoding="utf-8") as fh:
            config_body = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="config")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config")
    if not isinstance(config_body, dict):
        raise ConfigError("config must be a JSON object", field="config")
    for param in _COMMON:
        value = _resolve(param, config_body.get(param.name), param.name)
        if getattr(args, param.name, None) is None:
            setattr(args, param.name, value)
    seeds.root = args.seed
    config = {"command": command, **config_body, "seed": seeds.root}
    return config, run_experiment(config_body, seeds)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    seeds = SeedStream(getattr(args, "seed", None))
    try:
        config, results = _dispatch(args, seeds)
        report = assemble_report(config, results, seeds)
        fmt = getattr(args, "format", None)
        text = render_csv(report) if fmt == "csv" else render_json(report)
    except ConfigError as exc:
        field = f" [{exc.field}]" if exc.field else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
