"""Regenerate the pinned outputs under ``perfbench/pinned/``.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the repository root.  The pins are what the gate in ``run.py``
compares against, for every seed: the corpus verdicts, the unscaled
reduced bases, and the session's per-statement results plus the digest of
its canonical report at the default seed.  Each basis is cross-checked
against sympy's ``groebner(..., modulus=32003)``, which shares no code with
the kernel; this takes about a minute.  Pinning is a deliberate act: it
only belongs in a change that alters the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import sympy
from sympy.polys.orderings import ProductOrder, grevlex

import workloads as w

DEFAULT_SEED = 20260809


def _write(name: str, data) -> None:
    w.PINNED.mkdir(exist_ok=True)
    text = json.dumps(data, separators=(",", ":"))
    (w.PINNED / name).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {w.PINNED / name}")


def _sympy_basis(gens, order) -> list:
    """The reduced basis from sympy, as kernel term maps."""
    names = gens[0].ring.names
    symbols = sympy.symbols(names)
    exprs = [
        sum(c * sympy.prod(s ** e for s, e in zip(symbols, m)) for m, c in g.terms.items())
        for g in gens
    ]
    if order.kind == "block":
        k = len(order.front)
        sorder = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    else:
        sorder = order.kind
    basis = sympy.groebner(exprs, *symbols, modulus=w.P, order=sorder)
    out = []
    for poly in basis.polys:
        terms = {m: int(c) % w.P for m, c in poly.terms()}
        lead = terms[max(terms, key=order.key)]
        inv = pow(lead, w.P - 2, w.P)
        out.append({m: c * inv % w.P for m, c in terms.items()})
    return out


def pin_bases() -> None:
    pinned = {}
    for name, order, gens in w.bases_problems():
        basis = w.solve(name, order, gens)
        kernel = sorted(sorted(g.terms.items()) for g in basis)
        started = time.perf_counter()
        if name == "cyclic5-eliminate-z0z1":
            front = set(order.front)
            full = _sympy_basis(gens, order)
            reference = [t for t in full if not any(m[i] for m in t for i in front)]
        elif name == "dense6-quotient":
            reference = _sympy_basis(w.dense_quotient()[1], order)
        else:
            reference = _sympy_basis(gens, order)
        same = kernel == sorted(sorted(t.items()) for t in reference)
        print(f"{name}: {len(basis)} elements; sympy agrees: {same} "
              f"({time.perf_counter() - started:.1f} s)")
        if not same:
            raise SystemExit(f"{name}: the kernel and sympy disagree; nothing pinned")
        pinned[name] = w.basis_rows(basis, order)
    _write("bases.json", pinned)


# mark, failures and probe: pinning needs no spans, gate or host samples.
NO_HOOKS = (lambda group: None, w.Failures(), lambda n=1: None)


def pin_corpus() -> None:
    instances = w.corpus_setup(DEFAULT_SEED)
    _, _, outputs = w.corpus_run(instances, DEFAULT_SEED, *NO_HOOKS)
    _write("corpus.json", w.corpus_verdicts(instances, outputs))


def pin_session() -> None:
    inputs = w.session_setup(DEFAULT_SEED)
    _, _, outputs = w.session_run(inputs, DEFAULT_SEED, *NO_HOOKS)
    inputs[0].unlink()
    text = w.session_payload(inputs, outputs)
    _write("session.json", {
        **w.session_verdicts(outputs),
        "digests": {str(DEFAULT_SEED): hashlib.sha256(text.encode()).hexdigest()},
    })


if __name__ == "__main__":
    pin_corpus()
    pin_session()
    pin_bases()
    sys.exit(0)
