"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the package's functions and methods with
wrappers that record a span per call: name, start, end and the enclosing
span.  A function is replaced in every module namespace that binds it, so
callers that imported the name directly (``from .quiver import
find_a_embeddings``) are traced too.  Methods are replaced on their class.
Spans live in flat arrays until ``report`` turns them into per-layer self
times (a span's duration minus the durations of its direct children) and
work counts.  A name the package no longer has is reported as missing, and
so is every metric that depends on it.

Layers are the package modules; ``render`` is not traced.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

LAYERS = ("cli", "qvfile", "algebra", "homology", "quiver", "construct", "oracle", "qh")

# Functions by layer.  "Class.method" names are replaced on the class.
TRACED = {
    "cli": ["main"],
    "qvfile": ["parse", "load", "emit"],
    "algebra": [
        "reduce_relations",
        "RelationSet.__post_init__",
        "Algebra.__init__",
        "Algebra.require_admissible",
        "Algebra._check_admissible",
        "Algebra._enumerate_basis",
        "Algebra.is_zero_word",
        "Algebra.is_zero_path",
        "Algebra._kills_suffix",
        "Algebra.module_basis",
        "Algebra.composition_vector",
    ],
    "homology": [
        "chain_successors",
        "_level_one",
        "_find_cycle",
        "resolve",
        "pdim",
        "pdims_of_simples",
        "gldim",
        "check_euler_identity",
        "verify_local_max_resolution",
    ],
    "quiver": [
        "find_a_embeddings",
        "find_x_embedding",
        "is_extendable",
        "relabel",
        "relabeling_from_embedding",
        "structure_predicates",
    ],
    "construct": [
        "achieve_gldim",
        "gldim2_achievable",
        "local_max_ideal",
        "chain_ideal",
        "chain_cubic_ideal",
        "_pull_back",
        "_certify",
    ],
    "oracle": [
        "rep_of",
        "minimal_resolution",
        "syzygy",
        "top_dims",
        "check_relations",
        "hom_dim",
        "_rref",
        "_nullspace",
        "_radical",
        "_sub_rep",
    ],
    "qh": ["check_strongly_qh", "ringel_bound_check", "verify_sequence_identities"],
}

GENERATORS = {"quiver.find_a_embeddings"}

# Route searches the planner runs, counted where construct looks them up.
ROUTES = ("find_a_embeddings", "find_x_embedding", "gldim2_achievable", "structure_predicates")

# Each derived metric and the traced names it needs.
NEEDS = {
    "algebra.basis_ms": ["algebra.Algebra._enumerate_basis"],
    "algebra.basis_paths": ["algebra.Algebra._enumerate_basis"],
    "algebra.zero_tests": ["algebra.Algebra.is_zero_word", "algebra.Algebra._kills_suffix"],
    "algebra.relations_in": ["algebra.reduce_relations"],
    "algebra.relations_kept": ["algebra.reduce_relations"],
    "algebra.admissibility_ms": ["algebra.Algebra._check_admissible"],
    "algebra.nilpotency_bound_max": ["algebra.Algebra._check_admissible"],
    "homology.successor_calls": ["homology.chain_successors"],
    "homology.chain_nodes": ["homology.chain_successors"],
    "homology.chain_edges": ["homology.chain_successors"],
    "homology.successor_useful_ratio": ["homology.chain_successors"],
    "homology.pdim_calls": ["homology.pdim"],
    "homology.resolve_calls": ["homology.resolve"],
    "construct.routes_tried": [f"construct.{r}" for r in ROUTES],
    "construct.certified": ["construct._certify"],
    "quiver.embeddings_yielded": ["quiver.find_a_embeddings"],
    "quiver.budget_exceeded": ["quiver.find_a_embeddings"],
    "oracle.syzygy_calls": ["oracle.syzygy"],
    "oracle.syzygy_dim": ["oracle.syzygy"],
    "qvfile.bytes": ["qvfile.parse"],
}


PACKAGE = "quiverdim"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._chain_seen: set = set()
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        tracer, name_id = self, self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time each resumption of the generator as one span."""
        tracer, name_id = self, self._name_id(name)
        budget_error = getattr(importlib.import_module(f"{PACKAGE}.quiver"),
                               "SearchBudgetExceeded", ())

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._enter(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except budget_error:
                    tracer.counts["quiver.budget_exceeded"] += 1
                    raise
                finally:
                    tracer._exit(idx)
                tracer.counts["quiver.embeddings_yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        hooks = self._hooks()
        routes = {r: getattr(modules["construct"], r, None) for r in ROUTES}
        for layer, names in TRACED.items():
            for attr in names:
                qualified = f"{layer}.{attr}"
                owner, _, member = attr.rpartition(".")
                holder = getattr(modules[layer], owner, None) if owner else modules[layer]
                original = getattr(holder, member, None) if holder is not None else None
                if original is None:
                    self.missing.append(qualified)
                    continue
                if qualified in GENERATORS:
                    wrapper = self._wrap_generator(qualified, original)
                elif qualified == "algebra.reduce_relations":
                    wrapper = self._wrap(qualified, self._count_relations(original))
                else:
                    wrapper = self._wrap(qualified, original, hooks.get(qualified))
                if owner:
                    self._set(holder, member, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original and not (ns is modules["construct"] and key in routes):
                            self._set(ns, key, wrapper)
        for route, original in routes.items():
            if original is None:
                self.missing.append(f"construct.{route}")
                continue
            home = "quiver" if route in TRACED["quiver"] else "construct"
            traced = (self._wrap_generator if f"{home}.{route}" in GENERATORS else self._wrap)(
                f"{home}.{route}", original
            )
            self._set(modules["construct"], route, self._count("construct.routes_tried", traced))

    def _count_relations(self, reduce_relations):
        """Relations before and after reduction.  The input may be any
        iterable, so it is materialised first."""
        counts = self.counts

        def counted(paths):
            paths = list(paths)
            counts["algebra.relations_in"] += len(paths)
            result = reduce_relations(paths)
            counts["algebra.relations_kept"] += len(result)
            return result

        return counted

    def _count(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, holder, key, value) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def _hooks(self) -> dict:
        counts = self.counts

        def basis(args, result):
            counts["algebra.basis_paths"] += len(result)

        def admissibility(args, result):
            counts["algebra.nilpotency_bound_max"] = max(
                counts["algebra.nilpotency_bound_max"], result.bound or 0
            )

        def successors(args, result):
            # Nodes are distinct per operation; the root span identifies it.
            key = (self.stack[0] if self.stack else -1, id(args[0]), args[1])
            if key not in self._chain_seen:
                self._chain_seen.add(key)
                counts["homology.chain_nodes"] += 1
                counts["homology.chain_edges"] += len(result)

        def syzygy(args, result):
            counts["oracle.syzygy_dim"] += result.total_dim

        def parse(args, result):
            counts["qvfile.bytes"] += len(args[0].encode())

        def certified(args, result):
            counts["construct.certified"] += 1

        return {
            "algebra.Algebra._enumerate_basis": basis,
            "algebra.Algebra._check_admissible": admissibility,
            "homology.chain_successors": successors,
            "oracle.syzygy": syzygy,
            "qvfile.parse": parse,
            "construct._certify": certified,
        }

    # -- report ---------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer self time (ms) and work counts over everything traced."""
        n = len(self.span_start)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_ns = Counter()
        total_ns = Counter()
        calls = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            self_ns[name.split(".", 1)[0]] += dur - child[i]
            total_ns[name] += dur
            calls[name] += 1
        c = self.counts
        metrics = {f"{layer}.self_ms": self_ns[layer] / 1e6 for layer in LAYERS}
        metrics.update(
            {
                "algebra.basis_ms": total_ns["algebra.Algebra._enumerate_basis"] / 1e6,
                "algebra.basis_paths": c["algebra.basis_paths"],
                "algebra.zero_tests": calls["algebra.Algebra.is_zero_word"]
                + calls["algebra.Algebra._kills_suffix"],
                "algebra.relations_in": c["algebra.relations_in"],
                "algebra.relations_kept": c["algebra.relations_kept"],
                "algebra.admissibility_ms": total_ns["algebra.Algebra._check_admissible"] / 1e6,
                "algebra.nilpotency_bound_max": c["algebra.nilpotency_bound_max"],
                "homology.successor_calls": calls["homology.chain_successors"],
                "homology.chain_nodes": c["homology.chain_nodes"],
                "homology.chain_edges": c["homology.chain_edges"],
                "homology.successor_useful_ratio": c["homology.chain_nodes"]
                / calls["homology.chain_successors"]
                if calls["homology.chain_successors"]
                else 0.0,
                "homology.pdim_calls": calls["homology.pdim"],
                "homology.resolve_calls": calls["homology.resolve"],
                "construct.routes_tried": c["construct.routes_tried"],
                "construct.certified": c["construct.certified"],
                "quiver.embeddings_yielded": c["quiver.embeddings_yielded"],
                "quiver.budget_exceeded": c["quiver.budget_exceeded"],
                "oracle.syzygy_calls": calls["oracle.syzygy"],
                "oracle.syzygy_dim": c["oracle.syzygy_dim"],
                "qvfile.bytes": c["qvfile.bytes"],
            }
        )
        for metric, needs in NEEDS.items():
            if any(name in self.missing for name in needs):
                del metrics[metric]
        return metrics
