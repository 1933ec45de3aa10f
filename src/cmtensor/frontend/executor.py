"""Execution of parsed sessions against the kernel.

Statements run in source order; assert failures mark the report failed
but never abort the run, and kernel errors are captured per statement.
Statements run over the prime the session was parsed with.  Seeds for the
randomized searches are derived as the configured seed plus the statement
index, so a fixed (session, prime, seed) is reproducible.
The configured limits bound every statement through one
:func:`cmtensor.groebner.limits` scope around the run; ``None`` keeps the
enclosing limits.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from ..algebra import AlgebraIdeal, make_algebra, tensor
from ..errors import KernelError, SessionError
from ..groebner import limits
from ..invariants import dim_quotient, grade, height, is_cohen_macaulay, krull_dim
from ..polyring import Polynomial, PolyRing, PrimeField, map_variables
from .. import theorems
from .parser import (
    CHECK_SIGNATURES,
    AssertStmt,
    BoolLit,
    CallExpr,
    CheckStmt,
    ComputeStmt,
    IdealDecl,
    IntLit,
    RingDecl,
    Session,
)
from .report import CommandResult, RunReport

_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _in_ring(lit: Polynomial, ring: PolyRing) -> Polynomial:
    """Move a parsed literal into a declared ring."""
    for name in lit.ring.names:
        if name not in ring.names:
            raise SessionError(f"unknown variable {name!r}; the ring has {ring.names}")
    return map_variables(lit, ring, [ring.names.index(nm) for nm in lit.ring.names])


class ExecConfig(NamedTuple):
    seed: int = 0
    step_budget: int | None = None
    nzd_retries: int | None = None


class _Runner:
    def __init__(self, config: ExecConfig, prime: int):
        self.config = config
        self.field = PrimeField(prime)
        self.rings = {}
        self.ideals = {}

    # -- resolution -----------------------------------------------------------

    def ring(self, name):
        if name not in self.rings:
            raise SessionError(f"ring {name!r} failed to declare earlier in the run")
        return self.rings[name]

    def ideal(self, name):
        if name not in self.ideals:
            raise SessionError(f"ideal {name!r} failed to declare earlier in the run")
        return self.ideals[name]

    def owned_ideal(self, ring_name, ideal_name):
        alg = self.ring(ring_name)
        ide = self.ideal(ideal_name)
        if ide.owner is not alg:
            raise SessionError(f"{ideal_name!r} is not an ideal of {ring_name!r}")
        return alg, ide

    # -- statement kinds -------------------------------------------------------

    def declare(self, stmt):
        if isinstance(stmt, RingDecl):
            if stmt.kind == "tensor":
                alg = tensor(self.ring(stmt.factors[0]), self.ring(stmt.factors[1]))
            else:
                ring = PolyRing(stmt.vars, self.field)
                rels = [_in_ring(lit, ring) for lit in stmt.relations]
                alg = make_algebra(ring, rels)
            self.rings[stmt.name] = alg
            return CommandResult(command=stmt.render(), status="ok")
        owner = self.ring(stmt.owner)
        gens = [_in_ring(lit, owner.ring) for lit in stmt.gens]
        self.ideals[stmt.name] = AlgebraIdeal(owner, gens)
        return CommandResult(command=stmt.render(), status="ok")

    def evaluate(self, expr, seed):
        if isinstance(expr, IntLit):
            return expr.value, ()
        if isinstance(expr, BoolLit):
            return expr.value, ()
        assert isinstance(expr, CallExpr)
        if expr.fn == "grade":
            alg, ide = self.owned_ideal(*expr.args)
            cert = grade(alg, ide, seed)
            return cert.grade, ({"label": expr.render(), **cert.to_dict()},)
        if expr.fn == "dim":
            if len(expr.args) == 1:
                return krull_dim(self.ring(expr.args[0])), ()
            alg, ide = self.owned_ideal(*expr.args)
            return dim_quotient(alg, ide), ()
        if expr.fn == "height":
            alg, ide = self.owned_ideal(*expr.args)
            return height(alg, ide), ()
        if expr.fn == "is_cm":
            verdict = is_cohen_macaulay(self.ring(expr.args[0]), seed)
            return verdict.is_cm, (
                {"label": expr.render(), **verdict.certificate.to_dict()},
            )
        raise SessionError(f"unknown function {expr.fn!r}")

    def run_assert(self, stmt: AssertStmt, seed):
        lhs, lc = self.evaluate(stmt.lhs, seed)
        rhs, rc = self.evaluate(stmt.rhs, seed)
        ok = _COMPARATORS[stmt.op](lhs, rhs)
        return CommandResult(
            command=stmt.render(),
            status="pass" if ok else "fail",
            lhs=lhs,
            rhs=rhs,
            certificates=lc + rc,
        )

    def run_check(self, stmt: CheckStmt, seed):
        sig = CHECK_SIGNATURES[stmt.check_id]
        # the k-th ideal or polynomial-list argument lives in the k-th ring
        owners = iter([a.name for a, kind in zip(stmt.args, sig) if kind == "ring"])
        values = []
        for arg, kind in zip(stmt.args, sig):
            if kind == "ring":
                values.append(self.ring(arg.name))
            elif kind == "ideal":
                values.append(self.owned_ideal(next(owners), arg.name)[1])
            else:
                ring = self.ring(next(owners)).ring
                values.append(tuple(_in_ring(lit, ring) for lit in arg.polys))
        rep = theorems.CHECKS[stmt.check_id](*values, seed)
        return CommandResult(
            command=stmt.render(),
            status=rep.status,
            lhs=rep.lhs,
            rhs=rep.rhs,
            certificates=tuple(e.to_dict() for e in rep.certificates),
            assumptions=rep.assumptions,
            detail=rep.detail,
        )

    def run(self, stmt, index):
        seed = self.config.seed + index
        if isinstance(stmt, (RingDecl, IdealDecl)):
            return self.declare(stmt)
        if isinstance(stmt, AssertStmt):
            return self.run_assert(stmt, seed)
        if isinstance(stmt, CheckStmt):
            return self.run_check(stmt, seed)
        assert isinstance(stmt, ComputeStmt)
        value, certs = self.evaluate(stmt.expr, seed)
        return CommandResult(
            command=stmt.render(), status="ok", lhs=value, certificates=certs
        )


def execute(session: Session, config: ExecConfig | None = None) -> RunReport:
    """Run a parsed session and collect per-statement results."""
    config = config or ExecConfig()
    runner = _Runner(config, session.prime)
    results = []
    with limits(config.step_budget, config.nzd_retries):
        for index, stmt in enumerate(session.statements):
            started = time.perf_counter()
            try:
                res = runner.run(stmt, index)
            except KernelError as exc:
                res = CommandResult(command=stmt.render(), status="error", error=str(exc))
            res.ms = (time.perf_counter() - started) * 1000.0
            results.append(res)
    return RunReport(prime=session.prime, seed=config.seed, results=tuple(results))
