"""Execution of parsed sessions against the kernel.

Statements run in source order; assert failures mark the report failed
but never abort the run, and kernel errors are captured per statement.
Statements run over the prime the session was parsed with.  Seeds for the
randomized searches are derived as the given seed plus the statement
index, so a fixed (session, prime, seed) is reproducible.
A run takes no limits of its own: every statement runs inside the caller's
:func:`cmtensor.context.limits` scope.
"""

from __future__ import annotations

import time

from ..algebra import AlgebraIdeal, make_algebra, tensor
from ..errors import KernelError, SessionError
from ..invariants import dim_quotient, grade, height, is_cohen_macaulay, krull_dim
from ..polyring import Polynomial, PolyRing, PrimeField, map_variables
from .. import theorems
from .parser import (
    CHECK_SIGNATURES,
    COMPARISONS,
    AssertStmt,
    CallExpr,
    CheckStmt,
    ComputeStmt,
    IdealDecl,
    RingDecl,
    Session,
)
from .report import CommandResult, RunReport


def _in_ring(lit: Polynomial, ring: PolyRing) -> Polynomial:
    """Move a parsed literal into a declared ring."""
    for name in lit.ring.names:
        if name not in ring.names:
            raise SessionError(f"unknown variable {name!r}; the ring has {ring.names}")
    return map_variables(lit, ring, [ring.names.index(nm) for nm in lit.ring.names])


class _Runner:
    def __init__(self, seed: int, prime: int):
        self.seed = seed
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
        if isinstance(stmt, IdealDecl):
            owner = self.ring(stmt.owner)
            gens = [_in_ring(lit, owner.ring) for lit in stmt.gens]
            self.ideals[stmt.name] = AlgebraIdeal(owner, gens)
        elif stmt.kind == "tensor":
            self.rings[stmt.name] = tensor(self.ring(stmt.factors[0]), self.ring(stmt.factors[1]))
        else:
            ring = PolyRing(stmt.vars, self.field)
            rels = [_in_ring(lit, ring) for lit in stmt.relations]
            self.rings[stmt.name] = make_algebra(ring, rels)
        return CommandResult(command=stmt.render(), status="ok")

    def evaluate(self, expr, seed):
        """An expression's value and the certificates behind it."""
        if not isinstance(expr, CallExpr):
            return expr.value, ()
        if len(expr.args) == 1:  # dim(R) or is_cm(R)
            alg = self.ring(expr.args[0])
            if expr.fn == "dim":
                return krull_dim(alg), ()
            verdict = is_cohen_macaulay(alg, seed)
            value, cert = verdict.is_cm, verdict.certificate
        else:
            alg, ide = self.owned_ideal(*expr.args)
            if expr.fn == "dim":
                return dim_quotient(alg, ide), ()
            if expr.fn == "height":
                return height(alg, ide), ()
            cert = grade(alg, ide, seed)
            value = cert.grade
        return value, ({"label": expr.render(), **cert.to_dict()},)

    def run_assert(self, stmt: AssertStmt, seed):
        lhs, lc = self.evaluate(stmt.lhs, seed)
        rhs, rc = self.evaluate(stmt.rhs, seed)
        ok = COMPARISONS[stmt.op](lhs, rhs)
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
        seed = self.seed + index
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


def execute(session: Session, seed: int = 0) -> RunReport:
    """Run a parsed session and collect per-statement results."""
    runner = _Runner(seed, session.prime)
    results = []
    for index, stmt in enumerate(session.statements):
        started = time.perf_counter()
        try:
            res = runner.run(stmt, index)
        except KernelError as exc:
            res = CommandResult(command=stmt.render(), status="error", error=str(exc))
        res.ms = (time.perf_counter() - started) * 1000.0
        results.append(res)
    return RunReport(prime=session.prime, seed=seed, results=tuple(results))
