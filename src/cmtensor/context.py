"""The work context: how much work a computation may do, and what it may reuse.

One context variable, ``_WORK``, holds one :class:`Work` record: the work
limits and the open memo scope.  Every layer reaches it through the names
here, and :class:`_Working` is the one place it is set and reset.

Other layers keep values in a scope through :func:`scope_cached`.
:func:`memo_scope` opens the scope for the outermost scoped call (a theorem
check, ``grade``, ``is_cohen_macaulay`` or a regular-sequence test) and
drops it when that call returns, so it never outlives one computation;
outside a scope nothing is cached.  Its entries are facts about
computations on immutable objects, keyed by the objects themselves, which
a key pins for the life of the scope: the tensor of two presentations and
the contraction of an ideal to a side (:mod:`cmtensor.algebra`), and the
grade certificate of an ideal for a seed and the next stage of a grade
chain (a stage plus one element, :mod:`cmtensor.invariants`).  So inside
one check, or one ``run_all_checks``, each of them is computed once, and a
stage object shared that way computes its basis once.  What a presentation
knows of itself, its basis, dimension and Hilbert numerator, it keeps on
itself (:class:`~cmtensor.groebner.IdealPresentation`), not here.  A hit
spends no reduction steps, and only successful results are stored: a
``StepBudgetExceeded`` is never kept.  Certificate validation reads no scope entry; it builds every
presentation it uses from raw generators.

The work limits are set by :func:`limits`: every basis and every normal
form of :mod:`cmtensor.groebner` gets a fresh :class:`_StepCounter` whose
limit is the step budget in effect when it starts, and the nonzerodivisor
search of :mod:`cmtensor.invariants` draws at most the retry count in
effect.  Outside every scope the defaults ``DEFAULT_STEP_BUDGET`` and
``NZD_RETRY_CAP`` apply.  Like the memo, the limits are per context: a new
thread starts with the defaults and no scope.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from contextvars import ContextVar
from typing import NamedTuple

from .errors import KernelError, StepBudgetExceeded

DEFAULT_STEP_BUDGET = 1_000_000
NZD_RETRY_CAP = 64


class Work(NamedTuple):
    """The work context in effect: the limits, and the values cached in
    the open memo scope, or ``None`` outside every scope."""

    step_budget: int = DEFAULT_STEP_BUDGET
    nzd_retries: int = NZD_RETRY_CAP
    memo: dict | None = None


_WORK: ContextVar = ContextVar("cmtensor_work", default=Work())
# A key that :func:`scope_cached` has not stored maps to this.
_MISSING = object()


class _Working:
    """A block run in the enclosing work context with `changes` made to
    it, which returns on exit: the one place ``_WORK`` is set and reset."""

    __slots__ = ("changes", "token")

    def __init__(self, **changes):
        self.changes = changes

    def __enter__(self):
        self.token = _WORK.set(_WORK.get()._replace(**self.changes))

    def __exit__(self, *exc):
        _WORK.reset(self.token)


def limits(step_budget: int | None = None, nzd_retries: int | None = None):
    """Bound the kernel work run inside the ``with`` block.

    `step_budget` caps the reduction steps of each Groebner basis and each
    normal form; `nzd_retries` caps the random draws of each
    nonzerodivisor search.  ``None`` keeps the enclosing value; a value
    that is not an ``int`` (a ``bool`` included) or is negative raises
    :class:`KernelError` naming the argument.  The enclosing limits are
    restored on exit.
    """
    changes = {}
    for name, value in (("step_budget", step_budget), ("nzd_retries", nzd_retries)):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise KernelError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise KernelError(f"{name} must be at least 0, got {value}")
        changes[name] = value
    return _Working(**changes)


def current_limits() -> tuple:
    """The limits in effect, ``(step_budget, nzd_retries)``: those of the
    innermost :func:`limits` scope."""
    return _WORK.get()[:2]


def memo_scope():
    """Open a memo scope, or join the one already open.

    The scope holds what :func:`scope_cached` stores in it and is dropped
    when the outermost scope exits.
    """
    if _WORK.get().memo is not None:
        return nullcontext()
    return _Working(memo={})


def scope_cached(key, compute):
    """The value cached under `key` in the current scope, computed on a miss.

    Outside every scope nothing is cached and `compute()` runs each time.
    A hit runs nothing, so it spends no reduction steps.  Only values that
    were computed without raising are stored; ``None`` is a value like any
    other.  Keys hold immutable objects, pinned for the life of the scope,
    and contents such as a polynomial; no key names a basis by its
    generators, since a basis is cached only on its
    :class:`~cmtensor.groebner.IdealPresentation`.
    """
    memo = _WORK.get().memo
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


def memo_scoped(fn):
    """Run `fn` inside a memo scope (joining an open one)."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        with memo_scope():
            return fn(*args, **kwargs)

    return scoped


class _StepCounter:
    __slots__ = ("limit", "used")

    def __init__(self, limit: float | None = None):
        self.limit = _WORK.get().step_budget if limit is None else limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise StepBudgetExceeded(
                f"reduction step budget of {self.limit} exhausted"
            )
