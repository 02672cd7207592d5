"""RL004 — single factorization authority.

All factorizations/solves of Hessian-shaped state live in
``influence/hessian.py`` (the :class:`HessianSolver` contract: one
factorization per damping, counted, updated through rank-k algebra).  A
``np.linalg.cholesky`` / ``eigh`` / ``solve`` on something Hessian-shaped
anywhere else is a second authority — an uncached O(p³) factorization the
session's exactly-once accounting can't see.

Matched calls: any ``*.linalg.<fn>`` attribute call (or a bare name
imported from ``numpy.linalg`` / ``scipy.linalg``) with ``<fn>`` in the
factorization set, where any argument's source matches the
Hessian-name pattern.  Matrices that are not Hessian-shaped (covariance
matrices, …) are deliberately out of scope.
"""

from __future__ import annotations

import ast
import re

from tools.reprolint.contracts import ContractSet
from tools.reprolint.engine import Finding, Rule
from tools.reprolint.model import Project

_LINALG_FUNCS = frozenset(
    {
        "cholesky",
        "cho_factor",
        "cho_solve",
        "eigh",
        "eigvalsh",
        "eig",
        "eigvals",
        "solve",
        "lstsq",
        "inv",
        "pinv",
    }
)


def _is_linalg_call(node: ast.Call, module_imports: dict[str, str]) -> str | None:
    """The linalg function name when this call is one, else None."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _LINALG_FUNCS:
        chain = ast.unparse(func.value)
        base = chain.split(".")[0].split("(")[0]
        target = module_imports.get(base, base)
        if "linalg" in chain or "linalg" in target:
            return func.attr
        return None
    if isinstance(func, ast.Name) and func.id in _LINALG_FUNCS:
        target = module_imports.get(func.id, "")
        if "linalg" in target:
            return func.id
    return None


def check(project: Project, contracts: ContractSet) -> list[Finding]:
    hessian = re.compile(contracts.hessian_pattern)
    findings: list[Finding] = []
    for module in project.modules.values():
        path_str = str(module.path)
        if any(path_str.endswith(suffix) for suffix in contracts.factorization_authority):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn_name = _is_linalg_call(node, module.imports)
            if fn_name is None:
                continue
            offending = [
                ast.unparse(arg)
                for arg in list(node.args) + [kw.value for kw in node.keywords]
                if hessian.search(ast.unparse(arg))
            ]
            if offending:
                findings.append(
                    Finding(
                        "RL004",
                        module.path,
                        node.lineno,
                        f"linalg.{fn_name} on Hessian-shaped state ({', '.join(offending)}) "
                        "outside the factorization authority "
                        f"({', '.join(contracts.factorization_authority)}); route it "
                        "through HessianSolver",
                    )
                )
    return findings


RULE = Rule(
    id="RL004",
    name="single-factorization-authority",
    description="no linalg factorizations of Hessian-shaped state outside influence/hessian.py",
    check=check,
)
