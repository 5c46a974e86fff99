"""Spans and counts around the library's public functions, for the traced run.

``Tracer.install()`` replaces each traced function at every module attribute
that binds it (``lambda_roots.sigma_lambda_upto`` and
``decomposer.sigma_lambda_upto`` alike), so calls between modules are seen
too; ``uninstall()`` puts the originals back. Layer functions get a span per
call (name, start, end, parent span, op index), kept in memory; the hot form
and reflection primitives get counts only, since a span per call would
swamp what it measures. Nothing in the library is edited.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("quiverdec", "quiverdec.quiver_core", "quiverdec.root_system",
           "quiverdec.lambda_roots", "quiverdec.decomposer", "quiverdec.reflection_walk",
           "quiverdec.oracle", "quiverdec.cli")

# (module, attribute) -> layer whose self time the span adds to
SPANNED = {
    ("quiver_core", "parse_quiver_json"): "quiver_core.parse",
    ("root_system", "positive_roots_upto"): "root_system.enumerate",
    ("lambda_roots", "LambdaContext.orthogonal_roots_upto"): "lambda_roots.orthogonal_roots",
    ("lambda_roots", "norm_lambda"): "lambda_roots.norm",
    ("lambda_roots", "in_sigma_lambda"): "lambda_roots.sigma_test",
    ("lambda_roots", "max_proper_sum_p"): "lambda_roots.sigma_test",
    ("lambda_roots", "sigma_lambda_upto"): "lambda_roots.sigma_enum",
    ("lambda_roots", "in_N_R_lambda_plus"): "lambda_roots.membership",
    ("decomposer", "canonical_decompose"): "decomposer.maximize",
    ("decomposer", "kleinian_label"): "decomposer.label",
    ("decomposer", "product_structure_report"): "decomposer.report",
    ("reflection_walk", "normalize_pair"): "reflection_walk.normalize",
    ("reflection_walk", "fundamental_representative"): "reflection_walk.fundamental",
    ("oracle", "check_deltasum"): "oracle.verify",
    ("oracle", "check_dynkvec"): "oracle.verify",
    ("oracle", "check_rootineq"): "oracle.verify",
    ("oracle", "check_maincase"): "oracle.verify",
    ("oracle", "check_support_split"): "oracle.verify",
    ("cli", "main"): "cli.main",
}
COUNTED = {
    ("quiver_core", "bilinear_form"): "quiver_core.form_calls",
    ("quiver_core", "q_form"): "quiver_core.form_calls",
    ("quiver_core", "p_form"): "quiver_core.form_calls",
    ("quiver_core", "pairing_with_simple"): "quiver_core.form_calls",
    ("root_system", "classify_root"): "root_system.classify_calls",
    ("reflection_walk", "reflect_pair"): "reflection_walk.reflect_calls",
}
# counts of calls and of outcomes, taken at a spanned or counted boundary
CALL_COUNTS = {
    ("root_system", "positive_roots_upto"): "root_system.enumerate_calls",
    ("lambda_roots", "LambdaContext.orthogonal_roots_upto"): "lambda_roots.orthogonal_roots_calls",
    ("lambda_roots", "in_sigma_lambda"): "lambda_roots.sigma_test_calls",
}
OUTCOMES = {
    ("root_system", "classify_root"): ("root_system.roots_found", lambda r: r.is_root),
    ("lambda_roots", "in_sigma_lambda"): ("lambda_roots.sigma_members", bool),
    ("decomposer", "kleinian_label"): ("decomposer.label_unresolved", lambda r: r is None),
    ("decomposer", "product_structure_report"): ("decomposer.terms",
                                                 lambda r: len(r.decomposition.terms)),
    ("reflection_walk", "normalize_pair"): ("reflection_walk.exhaustive", lambda r: r.exhaustive),
}


def _owner(module, dotted):
    owner, _, attr = dotted.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def phase(op) -> str:
    return "setup" if op is None else "ops"


class Tracer:
    def __init__(self):
        self.op: int | None = None  # index of the running op; None during set-up
        self.spans: list[tuple] = []  # (layer, start, end, parent index, op)
        self.counts: dict[tuple[str, str], int] = {}  # (phase, counter) -> count
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _count(self, key, n=1):
        k = (phase(self.op), key)
        self.counts[k] = self.counts.get(k, 0) + n

    def _wrap(self, func, where):
        layer, calls = SPANNED.get(where), CALL_COUNTS.get(where) or COUNTED.get(where)
        outcome = OUTCOMES.get(where)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if calls:
                self._count(calls)
            if layer is None:
                result = func(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    spans[index] = (layer, start, clock(), parent, self.op)
                    stack.pop()
            if outcome:
                self._count(outcome[0], int(outcome[1](result)))
            return result

        return traced

    def install(self):
        wrappers = {}  # id of the original -> wrapper
        for where in list(SPANNED) + list(COUNTED):
            owner, attr = _owner(importlib.import_module("quiverdec." + where[0]), where[1])
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(original, where)
            if isinstance(owner, type):  # a method: patch it on its class
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        for module in map(importlib.import_module, MODULES):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, layer) -> summed self time: span time minus its child spans' time."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = {}
        for (layer, start, end, _, op), inner in zip(self.spans, child):
            key = (phase(op), layer)
            out[key] = out.get(key, 0.0) + (end - start - inner)
        return out

    def write(self, path) -> None:
        """One JSON array per span: layer, start, end, parent index, op index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
