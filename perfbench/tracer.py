"""Per-layer tracing installed from outside the kernel.

The tracer replaces public functions of the kernel's modules with wrappers,
in every ``cmtensor`` module namespace (and module-level table) that binds
them, and in the benchmark's ``workloads``, so calls through
``from .groebner import buchberger`` are seen too.
The hottest L0 calls are only counted; every other wrapper records a span
(name, start, end, parent, group) in memory.  Spans of one corpus instance,
bases problem or session statement share a group.

Every counter is exact and independent of PYTHONHASHSEED: distinct-input
ratios count canonical digests of the inputs, never Python hashes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Only counted: hundreds of thousands of calls per pass.  __rmul__ is an
# alias of __mul__ on the class, so it needs its own wrapper.
COUNTED = (
    ("polyring.MonomialOrder.key", "cmtensor.polyring", "MonomialOrder", "key"),
    ("polyring.Polynomial.leading_term", "cmtensor.polyring", "Polynomial", "leading_term"),
    ("polyring.Polynomial.mul", "cmtensor.polyring", "Polynomial", "__mul__"),
    ("polyring.Polynomial.mul", "cmtensor.polyring", "Polynomial", "__rmul__"),
)

# Spanned: (metric prefix, module, class or None, attribute).
SPANNED = (
    ("groebner.buchberger", "cmtensor.groebner", None, "buchberger"),
    ("groebner.normal_form", "cmtensor.groebner", None, "normal_form"),
    ("groebner.IdealPresentation.reduced_basis", "cmtensor.groebner", "IdealPresentation", "reduced_basis"),
    ("groebner.ideal_intersection", "cmtensor.groebner", None, "ideal_intersection"),
    ("groebner.ideal_quotient", "cmtensor.groebner", None, "ideal_quotient"),
    ("groebner.eliminate", "cmtensor.groebner", None, "eliminate"),
    ("algebra.tensor", "cmtensor.algebra", None, "tensor"),
    ("algebra.make_algebra", "cmtensor.algebra", None, "make_algebra"),
    ("algebra.contract", "cmtensor.algebra", None, "contract"),
    ("invariants.grade", "cmtensor.invariants", None, "grade"),
    ("invariants.is_cohen_macaulay", "cmtensor.invariants", None, "is_cohen_macaulay"),
    ("invariants.krull_dim", "cmtensor.invariants", None, "krull_dim"),
    ("invariants.height", "cmtensor.invariants", None, "height"),
    ("invariants.is_regular_sequence", "cmtensor.invariants", None, "is_regular_sequence"),
    ("invariants.validate_grade_certificate", "cmtensor.invariants", None, "validate_grade_certificate"),
    ("theorems.generate_corpus", "cmtensor.theorems", None, "generate_corpus"),
    ("theorems.check_thm_1_1_a", "cmtensor.theorems", None, "check_thm_1_1_a"),
    ("theorems.check_thm_1_1_b", "cmtensor.theorems", None, "check_thm_1_1_b"),
    ("theorems.check_thm_1_1_c", "cmtensor.theorems", None, "check_thm_1_1_c"),
    ("theorems.check_lemma_1_2", "cmtensor.theorems", None, "check_lemma_1_2"),
    ("theorems.check_prop_2_3_a", "cmtensor.theorems", None, "check_prop_2_3_a"),
    ("theorems.check_thm_2_1", "cmtensor.theorems", None, "check_thm_2_1"),
    ("theorems.check_remark_2_5", "cmtensor.theorems", None, "check_remark_2_5"),
    ("frontend.parse_session", "cmtensor.frontend.parser", None, "parse_session"),
    ("frontend.execute", "cmtensor.frontend.executor", None, "execute"),
    ("frontend.RunReport.to_json", "cmtensor.frontend.report", "RunReport", "to_json"),
)


def _poly_key(g) -> tuple:
    return tuple(sorted(g.terms.items()))


def _digest(obj) -> bytes:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).digest()


def _order_key(order) -> tuple:
    return (order.kind, order.front)


def _buchberger_key(bound) -> bytes:
    gens = [g for g in bound["gens"] if g.terms]
    ring = gens[0].ring if gens else None
    return _digest((
        ring and (ring.names, ring.field.p),
        _order_key(bound["order"]),
        sorted({_poly_key(g) for g in gens}),
    ))


def _grade_key(bound) -> bytes:
    A, I = bound["A"], bound["I"]
    rels = A.relations
    return _digest((
        (A.ring.names, A.ring.field.p),
        _order_key(rels.order),
        sorted({_poly_key(g) for g in rels.generators}),
        sorted({_poly_key(g) for g in I.lift.generators}),
    ))


class _Stat:
    __slots__ = ("calls", "self_s", "busy_s", "active", "keys", "hits", "len_max", "terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.active = 0
        self.keys = set()
        self.hits = 0
        self.len_max = 0
        self.terms = 0


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.counts = defaultdict(int)
        self.stats = defaultdict(_Stat)
        self.spans = []
        self.stack = []
        self.group = "setup"
        self.statements = 0
        self._next_id = 0

    def mark(self, group: str):
        self.group = group

    # -- installation ---------------------------------------------------------

    def install(self):
        for name, module, cls, attr in COUNTED:
            owner = getattr(sys.modules[module], cls)
            setattr(owner, attr, self._counted(name, owner.__dict__[attr]))
        for name, module, cls, attr in SPANNED:
            mod = sys.modules[module]
            if cls is not None:
                owner = getattr(mod, cls)
                setattr(owner, attr, self._spanned(name, owner.__dict__[attr]))
            else:
                original = getattr(mod, attr)
                _rebind(original, self._spanned(name, original))
        runner = sys.modules["cmtensor.frontend.executor"]._Runner
        runner.run = self._statement_hook(runner.run)

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _statement_hook(self, fn):
        tracer = self

        def run(runner, stmt, index):
            tracer.statements += 1
            tracer.group = f"statement:{index}"
            return fn(runner, stmt, index)

        return run

    def _spanned(self, name, fn):
        tracer = self
        stat = self.stats[name]
        signature = inspect.signature(fn)
        keyed = {"groebner.buchberger": _buchberger_key, "invariants.grade": _grade_key}.get(name)
        is_basis = name == "groebner.IdealPresentation.reduced_basis"
        is_buchberger = name == "groebner.buchberger"

        def spanned(*args, **kwargs):
            stat.calls += 1
            if keyed is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stat.keys.add(keyed(bound.arguments))
            if is_basis and args[0]._basis is not None:
                stat.hits += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            tracer.stack.append(frame)
            outermost = stat.active == 0
            stat.active += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                stat.active -= 1
                duration = end - start
                stat.self_s += duration - frame[1]
                if outermost:
                    stat.busy_s += duration
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (frame[0], name, start - tracer.t0, end - tracer.t0,
                     parent[0] if parent else None, tracer.group)
                )
            if is_buchberger:
                stat.len_max = max(stat.len_max, len(result))
                stat.terms += sum(len(g.terms) for g in result)
            return result

        return spanned

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {"frontend.statements": self.statements}
        for name, _, _, _ in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        for name, _, _, _ in SPANNED:
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.busy_s"] = stat.busy_s
        bb = self.stats["groebner.buchberger"]
        out["groebner.buchberger.distinct_ratio"] = len(bb.keys) / bb.calls if bb.calls else 0.0
        out["groebner.buchberger.basis_len_max"] = bb.len_max
        out["groebner.buchberger.basis_terms_total"] = bb.terms
        gr = self.stats["invariants.grade"]
        out["invariants.grade.distinct_ratio"] = len(gr.keys) / gr.calls if gr.calls else 0.0
        rb = self.stats["groebner.IdealPresentation.reduced_basis"]
        out["groebner.IdealPresentation.reduced_basis.hit_ratio"] = rb.hits / rb.calls if rb.calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, group in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "group": group}
                ) + "\n")


def _rebind(original, wrapper):
    """Replace `original` wherever a cmtensor module or the benchmark's
    workloads bind it, by name or as a value of a module-level dict (such
    as the executor's check table)."""
    for modname, mod in list(sys.modules.items()):
        if not (modname in ("cmtensor", "workloads") or modname.startswith("cmtensor.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
