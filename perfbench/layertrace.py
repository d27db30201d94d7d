"""Outside-in layer tracer for hinv.

The tracer wraps the public hinv functions listed in ``TRACED`` from outside
the package and records one span (id, name, start, end, parent) per call.
Nothing under ``src/`` is edited: while ``Tracer.op()`` is active every
``hinv.*`` module attribute that holds a listed function object is rebound to
its wrapper (modules copy references with ``from .certify import ...``, and
the package attribute ``hinv.certify`` is the function, not the module), and
``HMatrix.column_sum`` is replaced on the class.  Everything is restored when
the op ends, so input generation and output checks are never traced.

Each thread keeps its own span stack.  A span opened on a thread with an
empty stack (a ``hinv sweep`` pool worker) is parented to the op's root span,
so a parent's self time is its duration minus the union of its children's
intervals, whichever thread they ran on.
"""

import contextlib
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module under hinv, attribute path); the span name is "<module>.<path>".
TRACED = (
    ("algebra", "HMatrix.column_sum"),
    ("algebra", "p_invariant"),
    ("certify", "invariance_report"),
    ("certify", "certificates"),
    ("certify", "certify"),
    ("worstcase", "suboptimality_witness"),
    ("worstcase", "build_perturbation"),
    ("worstcase", "constraint_matrices"),
    ("worstcase", "gram_g0"),
    ("worstcase", "witness_vectors"),
    ("exactlinalg", "solve_consistent"),
    ("exactlinalg", "leading_principal_minors"),
    ("exactlinalg", "mat_det"),
    ("catalog", "self_dual_mixed"),
    ("catalog", "second_mixed"),
    ("cli", "main"),
    ("serialization", "hmatrix_from_dict"),
    ("serialization", "verdict_to_dict"),
    ("serialization", "witness_to_dict"),
)

CERTIFICATES = "certify.certificates"
WITNESS = "worstcase.suboptimality_witness"
MINORS = "exactlinalg.leading_principal_minors"


def rational_bits(values):
    """Largest numerator or denominator bit length among exact rationals."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class LayerStats:
    """Per-function totals over the traced ops of one run."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.max_bits = defaultdict(int)
        self.pd_attempts = 0

    def per_op(self, table, name):
        return table[name] / self.ops if self.ops else 0.0


class Tracer:
    """Records spans for the listed hinv functions during ``op()`` blocks."""

    def __init__(self):
        self.stats = LayerStats()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans = []
        self._results = []
        self._root = None
        self._patches = []
        self.absent = set()

    @contextlib.contextmanager
    def op(self):
        """Trace one op: bind the wrappers, run the body, restore, fold the spans."""
        self._spans, self._results, self._root = [], [], None
        self._bind()
        try:
            yield
        finally:
            self._unbind()
        self._fold()

    def _wrap(self, name, fn):
        local, ids, spans, results = self._local, self._ids, self._spans, self._results
        keep_result = name in (CERTIFICATES, WITNESS)
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer._root
            if tracer._root is None:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if keep_result:
                results.append((name, result))
            return result

        return traced

    def _bind(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hinv" or key.startswith("hinv."))]
        for module_name, path in TRACED:
            module = importlib.import_module(f"hinv.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            name = f"{module_name}.{path}"
            if owner_name:
                owner = getattr(module, owner_name)
                if attr in vars(owner):
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                else:
                    self.absent.add(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _unbind(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _fold(self):
        stats = self.stats
        stats.ops += 1
        children = defaultdict(list)
        parent_of, name_of = {}, {}
        for sid, name, start, end, parent in self._spans:
            children[parent].append((start, end))
            parent_of[sid] = parent
            name_of[sid] = name
        for sid, name, start, end, _ in self._spans:
            stats.calls[name] += 1
            stats.total_s[name] += end - start
            stats.self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
            if name == MINORS:
                ancestor = parent_of.get(sid)
                while ancestor is not None and name_of.get(ancestor) != WITNESS:
                    ancestor = parent_of.get(ancestor)
                if ancestor is not None:
                    stats.pd_attempts += 1
        for name, result in self._results:
            if name == CERTIFICATES:
                bits = rational_bits(v for _, v in result.items())
            else:
                bits = rational_bits(x for row in result.gram for x in row)
            stats.max_bits[name] = max(stats.max_bits[name], bits)
