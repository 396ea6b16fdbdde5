"""Span tracer that times entlab's layers from outside the package.

``install`` replaces each traced function with a timing wrapper under every
name that binds it inside ``entlab`` (for example ``apply`` is imported by
name into ``entlab.measures`` and ``entlab.sync``, so patching
``entlab.channels.apply`` alone would miss those callers). Constructors are
traced by patching ``__post_init__`` on the class, which every import site
shares.

Spans are kept in memory as ``[layer, start, end, parent, eval_id]`` and a
layer's self time is its span's duration minus the time its direct child
spans cover. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

import oracles as ref

# layer name -> (module, function names). ``install`` raises when a module
# lacks one of them, so a refactor that renames or moves a traced function
# must update this table rather than have its layer silently read 0.
FUNCTION_LAYERS = {
    "channels.apply": ("entlab.channels", ["apply"]),
    "channels.build": (
        "entlab.channels",
        [
            "build_depolarizing",
            "build_dephasing",
            "build_correlated_flip",
            "build_pairwise_correlated",
            "build_random_unitary_noise",
            "build_cluster_noise",
            "combine",
            "compose",
            "embed",
            "identity_channel",
        ],
    ),
    "channels.pauli": ("entlab.channels", ["pauli_expansion", "pauli_weight_table"]),
    "measures": (
        "entlab.measures",
        [
            "binary_entropy",
            "information_leak",
            "environment_information",
            "mutual_information",
            "excess_leak",
            "assisted_mutual_information",
            "max_entropy_defect",
            "excess_leak_set",
            "total_defect",
        ],
    ),
    "states.partial_trace": ("entlab.states", ["partial_trace"]),
    "states.von_neumann_entropy": ("entlab.states", ["von_neumann_entropy"]),
    "states.other": (
        "entlab.states",
        [
            "pure_marginal",
            "entropy_of_subset",
            "tensor",
            "fidelity",
            "trace_distance",
            "state_distance",
            "purify",
        ],
    ),
    "optim.max_entropy": ("entlab.optim", ["max_entropy_with_marginals"]),
    "optim.decomposition": ("entlab.optim", ["max_avg_pure_decomposition"]),
    "conjectures": (
        "entlab.conjectures",
        [
            "eval_relation1",
            "eval_relation2",
            "eval_relation34",
            "censorship_scan",
            "fit_growth_exponent",
        ],
    ),
    "zoo": (
        "entlab.zoo",
        [
            "plus_all",
            "ghz",
            "bell",
            "cluster_state",
            "line_edges",
            "dicke_state",
            "haar_unitary",
            "random_circuit_state",
            "bitflip_code_encode",
            "all_subsets",
        ],
    ),
    "sync": (
        "entlab.sync",
        [
            "fit_mixture",
            "binomial_tail",
            "tail_probability",
            "triple_moment",
            "weight_distribution",
            "repetition_majority_error",
            "quantum_randomization_demo",
        ],
    ),
    "cli": ("entlab.cli", ["main"]),
    "cli.render_json": ("entlab.cli", ["render_json"]),
}

# layer name -> (module, class, method)
METHOD_LAYERS = {
    "states.DensityMatrix": ("entlab.states", "DensityMatrix", "__post_init__"),
    "states.other": ("entlab.states", "PureState", "__post_init__"),
    "optim.constraints": ("entlab.optim", "MarginalConstraintSet", "__post_init__"),
}

MEMBER_ZERO_BITS = 1e-6


class Tracer:
    """In-memory spans, per-layer call counts and self times, and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []  # open frames: [layer, start, child_seconds, span_index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.eval_id = -1

    def _in_layer(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self.stack)

    def wrap(self, layer: str, fn, name: str):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][3] if tracer.stack else -1
            span = [layer, 0.0, 0.0, parent, tracer.eval_id]
            frame = [layer, time.perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(span)
            tracer.stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[1]
                span[1], span[2] = frame[1], end
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer._count(name, signature, args, kwargs, result, exc)

        return functools.wraps(fn)(traced)

    def _count(self, name, signature, args, kwargs, result, exc):
        c = self.counters
        if name == "apply" and exc is None:
            bound = signature.bind(*args, **kwargs).arguments
            channel, rho = bound["channel"], bound["rho"]
            k = len(channel.kraus)
            d = rho.dim
            c["apply.kraus_terms"] += k
            # each Kraus term reads and writes a d x d complex128 product
            c["apply.bytes_computed"] += k * d * d * 16 * 2
            if self._in_layer("measures"):
                c["measures.outputs"] += 1
        elif name == "max_entropy_with_marginals":
            if exc is None:
                c["max_entropy.iterations"] += result.iterations
                c["max_entropy.worst_residual"] = max(
                    c["max_entropy.worst_residual"], float(result.residual)
                )
            else:
                c["max_entropy.failed"] += 1
                residual = getattr(exc, "residual", None)
                if residual is not None:
                    c["max_entropy.worst_residual"] = max(
                        c["max_entropy.worst_residual"], float(residual)
                    )
        elif name == "max_avg_pure_decomposition" and exc is None:
            c["decomposition.sweeps"] += result.diagnostics.get("sweeps_used", 0)
            c["decomposition.restarts"] += result.diagnostics.get("restarts", 0)
        elif name == "max_entropy_defect" and exc is None and self._in_layer("optim.decomposition"):
            c["member_objective.calls"] += 1
            if result.value < MEMBER_ZERO_BITS:
                c["member_objective.zero"] += 1
        elif name == "assisted_mutual_information" and exc is None:
            c["assisted.calls"] += 1
            c["assisted.certified_bits"] += result.value
            dec = result.decomposition
            members = np.asarray(dec.states) * np.sqrt(np.asarray(dec.weights))[:, None]
            bracket = 2.0 * min(ref.subset_entropy(members, 2, [q]) for q in (0, 1))
            if bracket > 1e-9:
                c["assisted.bracket_ratio_sum"] += result.value / bracket
                c["assisted.bracket_count"] += 1
        elif name == "binomial_tail":
            c["sync.binomial_tail.calls"] += 1
        elif name == "render_json" and exc is None:
            c["cli.report_bytes"] += len(result.encode("utf-8"))

    def begin_eval(self, eval_id: int):
        self.eval_id = eval_id

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced entlab function at all of its import sites."""
    homes = {name: importlib.import_module(name) for name, _ in FUNCTION_LAYERS.values()}
    homes.update((name, importlib.import_module(name)) for name, _, _ in METHOD_LAYERS.values())
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "entlab" or name.startswith("entlab."))
    ]
    for layer, (module_name, names) in FUNCTION_LAYERS.items():
        home = homes[module_name]
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                raise LookupError(f"{module_name} has no {name!r} to trace as {layer!r}")
            wrapper = tracer.wrap(layer, original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    for layer, (module_name, cls_name, method) in METHOD_LAYERS.items():
        cls = getattr(homes[module_name], cls_name, None)
        if cls is None or method not in vars(cls):
            raise LookupError(f"{module_name} has no {cls_name}.{method} to trace as {layer!r}")
        setattr(cls, method, tracer.wrap(layer, vars(cls)[method], f"{cls_name}.{method}"))


def merge(total: dict, part: dict) -> dict:
    """Add one tracer summary into another (used for CLI child processes)."""
    for key in ("calls", "self_s"):
        bucket = total.setdefault(key, {})
        for layer, value in part.get(key, {}).items():
            bucket[layer] = bucket.get(layer, 0) + value
    counters = total.setdefault("counters", {})
    for name, value in part.get("counters", {}).items():
        if name.endswith("worst_residual"):
            counters[name] = max(counters.get(name, 0.0), value)
        else:
            counters[name] = counters.get(name, 0) + value
    return total
