"""Spans and counters around fiberatlas' public functions.

The tracer rebinds a function's name in the module that calls it, so the
program itself is unchanged; `restore` puts every original back.  Spans
stay in memory until the run ends.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import process_time


class Tracer:
    def __init__(self):
        # (op, span id, parent span id or None, layer, name, start, end)
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.op = None
        self._stack = []
        self._saved = []

    def _rebind(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def span(self, owner, name, layer, count=None):
        """Time every call of owner.name as a span `layer`; `count(tracer,
        result)` records counts from the result."""
        fn = getattr(owner, name)
        label = f"{owner.__name__.rpartition('.')[2]}.{name}"

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                self._stack.pop()
                self.spans[sid] = (self.op, sid, parent, layer, label, start, end)
            if count is not None:
                count(self, result)
            return result

        self._rebind(owner, name, wrapper)

    def count_calls(self, owner, name, key):
        """Count calls of owner.name without a span (hot functions)."""
        fn = getattr(owner, name)
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        self._rebind(owner, name, wrapper)

    def bump(self, key, by=1):
        self.counts[key] += by

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    @contextmanager
    def op_span(self, layer, name):
        """The span of one benchmark operation; its id tags the spans
        below it."""
        sid = len(self.spans)
        self.op = sid
        self.spans.append(None)
        self._stack.append(sid)
        start = process_time()
        try:
            yield
        finally:
            end = process_time()
            self._stack.pop()
            self.spans[sid] = (sid, sid, None, layer, name, start, end)
            self.op = None


def span_times(spans):
    """Inclusive seconds per span name and self seconds per layer: a
    span's self time is its duration minus that of its child spans."""
    inclusive = Counter()
    child = Counter()
    for _, _, parent, _, name, start, end in spans:
        inclusive[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_by_layer = Counter()
    for _, sid, _, layer, _, start, end in spans:
        self_by_layer[layer] += end - start - child[sid]
    return inclusive, self_by_layer


def install(tracer, fiberatlas):
    """Rebind the census pipeline's calls between layers."""
    atlas, eliminate, polycore, cli = (
        fiberatlas.atlas, fiberatlas.eliminate, fiberatlas.polycore, fiberatlas.cli)
    atoms_of = fiberatlas.semialg.atoms_of

    def members(t, closed):
        seen = []
        try:
            for atom in atoms_of(closed.formula):
                if atom.poly not in seen:
                    seen.append(atom.poly)
        except TypeError:  # a constant formula has no atoms
            pass
        t.bump("perturb.members", len(seen))

    def discriminants(t, g):
        t.bump("eliminate.defining", len(g.defining))
        t.bump("eliminate.roots", len(g.roots))
        for p in g.defining:
            t.high("eliminate.max_degree", p.total_degree())

    def calls(key):
        return lambda t, _: t.bump(key)

    def length(key):
        return lambda t, result: t.bump(key, len(result))

    tracer.span(cli, "run_atlas", "atlas")
    tracer.span(atlas, "build_ladder", "perturb", calls("atlas.single_runs"))
    tracer.span(atlas, "construct_S_prime", "perturb", members)
    tracer.span(atlas, "enumerate_strata", "critical", length("critical.strata"))
    tracer.span(atlas, "systems_for_strata", "critical", length("critical.systems"))
    tracer.span(atlas, "assemble_G", "eliminate", discriminants)
    tracer.span(atlas, "components_complement", "atlas", length("atlas.cells"))
    tracer.span(atlas, "fiber_b0", "atlas", calls("atlas.fiber_calls"))
    tracer.span(atlas, "coprime_basis", "polycore")
    tracer.span(atlas, "isolate_basis_roots", "polycore")
    tracer.count_calls(atlas, "ugcd_int", "atlas.fiber_gcd_calls")
    tracer.span(eliminate, "project_system", "eliminate", calls("eliminate.project_calls"))
    tracer.span(eliminate, "resultant", "polycore", calls("eliminate.resultant_calls"))
    tracer.span(eliminate, "isolate_basis_roots", "polycore")
    tracer.count_calls(polycore, "sign_int_at", "polycore.sign_evals")
    tracer.count_calls(atlas, "sign_int_at", "polycore.sign_evals")

