"""RL002 — counter discipline.

Every registered cache build/patch entry must bump its registered
``stats`` counter (``self.<stats_attr>["<counter>"] += …``) and that
counter key must actually be *declared* somewhere — in a stats dict
literal or a ``stats.setdefault("<counter>", …)`` call — so the dynamic
exactly-once assertions the benchmarks make stay possible.  Registry
drift (a registered method that no longer exists) and exempt entries
without a written reason are also findings.

Caches built on the lazy-build primitive are checked without a registry
entry: the primitive bumps the counter named at construction once per
build, so each ``Lazy(..., counter="…", hits="…")`` must name string
literals that a stats dict declares.
"""

from __future__ import annotations

import ast

from tools.reprolint.contracts import ContractSet
from tools.reprolint.engine import Finding, Rule
from tools.reprolint.model import FunctionInfo, Project, is_lazy_construction

#: The primitive's keyword-only constructor parameters naming stats counters.
_LAZY_COUNTERS = ("counter", "hits")


def _declared_counters(project: Project) -> set[str]:
    """Counter keys declared in stats-dict literals or setdefault calls.

    A dict literal anywhere inside the assigned value counts, so registry-
    backed declarations like ``self.stats = StatsView({"builds": 0}, ...)``
    declare their keys exactly as the plain ``self.stats = {"builds": 0}``
    form always has.
    """
    declared: set[str] = set()
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                if any("stats" in ast.unparse(t).lower() for t in node.targets):
                    for inner in ast.walk(node.value):
                        if isinstance(inner, ast.Dict):
                            for key in inner.keys:
                                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                                    declared.add(key.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "setdefault" and "stats" in ast.unparse(node.func.value).lower():
                    if node.args and isinstance(node.args[0], ast.Constant):
                        if isinstance(node.args[0].value, str):
                            declared.add(node.args[0].value)
    return declared


def _container_matches(container: str, stats_attr: str) -> bool:
    return container == f"self.{stats_attr}" or container.endswith("." + stats_attr)


def _bumps_counter(fn: FunctionInfo, stats_attr: str, counter: str) -> bool:
    """True when the method bumps the counter, by either idiom.

    Both the dict-style ``self.<stats_attr>["<counter>"] += n`` and the
    registry-backed ``self.<stats_attr>.inc("<counter>", ...)`` satisfy the
    discipline: each is an exactly-once, named, observable increment.
    """
    for node in ast.walk(fn.node):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if not isinstance(target, ast.Subscript):
                continue
            key = target.slice
            if not (isinstance(key, ast.Constant) and key.value == counter):
                continue
            if _container_matches(ast.unparse(target.value), stats_attr):
                return True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr != "inc":
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and first.value == counter):
                continue
            if _container_matches(ast.unparse(node.func.value), stats_attr):
                return True
    return False


def _lazy_findings(project: Project, declared: set[str]) -> list[Finding]:
    """Undeclared or non-literal counters named by ``Lazy(...)`` constructions."""
    findings: list[Finding] = []
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not is_lazy_construction(node):
                continue
            for kw in node.keywords:
                if kw.arg not in _LAZY_COUNTERS:
                    continue
                value = kw.value
                if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                    message = f"lazy slot {kw.arg}= must be a string literal counter name"
                elif value.value not in declared:
                    message = (
                        f'lazy slot {kw.arg}="{value.value}" is not declared in any stats '
                        "dict literal or setdefault"
                    )
                else:
                    continue
                findings.append(Finding("RL002", module.path, node.lineno, message))
    return findings


def _find_methods(project: Project, cls_name: str, meth: str) -> list[FunctionInfo]:
    out = []
    for cls in project.classes_by_name.get(cls_name, []):
        if meth in cls.methods:
            out.append(cls.methods[meth])
    return out


def check(project: Project, contracts: ContractSet) -> list[Finding]:
    declared = _declared_counters(project)
    findings = _lazy_findings(project, declared)
    for (cls_name, meth), contract in sorted(contracts.build_methods.items()):
        methods = _find_methods(project, cls_name, meth)
        if not methods:
            # Registry drift is reported against every module defining the
            # class, or as a project-level finding when the class is gone.
            classes = project.classes_by_name.get(cls_name, [])
            for cls in classes:
                findings.append(
                    Finding(
                        "RL002",
                        cls.module.path,
                        cls.node.lineno,
                        f"registry drift: {cls_name}.{meth} is a registered "
                        "build/edit method but the class defines no such method",
                    )
                )
            if not classes:
                first = next(iter(project.modules.values()))
                findings.append(
                    Finding(
                        "RL002",
                        first.path,
                        1,
                        f"registry drift: registered class {cls_name} not found in the tree",
                    )
                )
            continue
        for fn in methods:
            if contract.counter is None:
                if not contract.reason.strip():
                    findings.append(
                        Finding(
                            "RL002",
                            fn.path,
                            fn.node.lineno,
                            f"{fn.qualname} is exempt from counter discipline without a "
                            "written reason in the registry",
                        )
                    )
                continue
            if not _bumps_counter(fn, contract.stats_attr, contract.counter):
                findings.append(
                    Finding(
                        "RL002",
                        fn.path,
                        fn.node.lineno,
                        f"{fn.qualname} is a registered {contract.kind} method but never "
                        f'bumps self.{contract.stats_attr}["{contract.counter}"]',
                    )
                )
            if contract.counter not in declared:
                findings.append(
                    Finding(
                        "RL002",
                        fn.path,
                        fn.node.lineno,
                        f'counter "{contract.counter}" of {fn.qualname} is not declared '
                        "in any stats dict literal or setdefault",
                    )
                )
    return findings


RULE = Rule(
    id="RL002",
    name="counter-discipline",
    description="registered cache builds/patches must bump a declared stats counter",
    check=check,
)
