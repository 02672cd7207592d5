"""The parsed-project model reprolint's rules run against.

Everything is plain stdlib ``ast``: a :class:`Project` owns one
:class:`ModuleInfo` per parsed file, with classes, methods, module
functions, import aliases, and the inheritance links that can be resolved
*within* the parsed tree.  On top of that it offers the one non-local
analysis every contract rule needs — a conservative (over-approximating)
call-graph reachability from a set of root functions.

Resolution strategy
-------------------
Python call targets cannot be resolved exactly without running the
program, so the model deliberately over-approximates by *name*:

* ``self.m(...)`` resolves to every method named ``m`` in the enclosing
  class's family (ancestors and descendants linked by base-class names);
* ``obj.m(...)`` resolves to every method named ``m`` in every parsed
  class — unless the attribute chain is rooted at an alias of an external
  module (``np``, ``linalg``, ``time`` …), which cannot be a project
  method;
* ``f(...)`` resolves through the module's own functions, its imports,
  and class constructors (``__init__`` / ``__post_init__``);
* a bare attribute *load* whose name matches a known ``@property``
  resolves to that property's getter — lazy cache builds hide behind
  property reads, and missing them would miss exactly the writes the
  read-path rule exists to find;
* a bound-method *reference* ``self.m`` resolves to ``m`` — that is how a
  build is handed to a lazy slot (``self._x.get(self._build_x)``).

Slots of the lazy-build primitive are recognised by constructor name
(:data:`LAZY_PRIMITIVE`): :meth:`Project.lazy_slots` lists the ``self``
attributes a class family binds to one.

Over-approximation errs toward *reporting* a shared-state write, which is
the correct direction for a race analyzer: a false reachability edge
costs a pragma with a written justification, a missed one costs a data
race under the worker pool.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Names that never denote project methods even when a parsed class
#: happens to define an attribute of the same name.
_DUNDER_CALLS = frozenset({"__init__", "__post_init__", "__new__"})

#: Constructor name of the lazy-build primitive (``repro.obs.lazy.Lazy``).
LAZY_PRIMITIVE = "Lazy"


def is_lazy_construction(node: ast.AST) -> bool:
    """True for a ``Lazy(...)`` / ``<module>.Lazy(...)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == LAZY_PRIMITIVE


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: "ModuleInfo"
    cls: "ClassInfo | None"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_property: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.cls.name}.{self.name}"
        return self.name

    @property
    def path(self) -> Path:
        return self.module.path

    def __hash__(self) -> int:  # identity semantics for worklists
        return id(self.node)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionInfo) and other.node is self.node


@dataclass
class ClassInfo:
    """One class definition with its directly-declared methods."""

    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def __hash__(self) -> int:
        return id(self.node)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassInfo) and other.node is self.node


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    name: str
    tree: ast.Module
    source: str
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local alias -> dotted import target (``np`` -> ``numpy``).
    imports: dict[str, str] = field(default_factory=dict)


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name for ``path``, stripping ``src``-style layout roots."""
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    parts = list(rel.parts)
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


class Project:
    """All parsed modules plus the cross-module indexes rules query."""

    def __init__(self, files: list[Path], root: Path | None = None) -> None:
        self.root = root if root is not None else Path.cwd()
        self.modules: dict[str, ModuleInfo] = {}
        for path in files:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            module = ModuleInfo(
                path=path, name=_module_name(path, self.root), tree=tree, source=source
            )
            self._index_module(module)
            self.modules[module.name] = module
        # Cross-module indexes.
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.properties_by_name: dict[str, list[FunctionInfo]] = {}
        for module in self.modules.values():
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for fn in cls.methods.values():
                    self.methods_by_name.setdefault(fn.name, []).append(fn)
                    if fn.is_property:
                        self.properties_by_name.setdefault(fn.name, []).append(fn)
        #: Top-level package names of the parsed tree ("repro", …): imports
        #: resolving outside these are external and break method matching.
        self.internal_packages = {name.split(".")[0] for name in self.modules}
        self._family_cache: dict[int, set[ClassInfo]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for dec in node.decorator_list:
            if isinstance(dec, ast.Name) and dec.id in ("property", "cached_property"):
                return True
            if isinstance(dec, ast.Attribute) and dec.attr == "cached_property":
                return True
        return False

    def _index_module(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._index_import(module, node)
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    module=module,
                    node=node,
                    base_names=[self._base_name(b) for b in node.bases],
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[item.name] = FunctionInfo(
                            module=module,
                            cls=cls,
                            node=item,
                            is_property=self._is_property(item),
                        )
                module.classes[cls.name] = cls
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.functions[node.name] = FunctionInfo(module=module, cls=None, node=node)

    @staticmethod
    def _base_name(base: ast.expr) -> str:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        if isinstance(base, ast.Subscript):  # Generic[...] style bases
            return Project._base_name(base.value)
        return ""

    @staticmethod
    def _index_import(module: ModuleInfo, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.imports[local] = alias.name
        else:
            base = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # -- class hierarchy ------------------------------------------------
    def subclasses(self, names: set[str]) -> set[ClassInfo]:
        """All parsed classes whose name is in ``names`` or that (transitively)
        inherit from one that is — matched by base-class *name*."""
        matched: set[ClassInfo] = set()
        known = set(names)
        changed = True
        while changed:
            changed = False
            for classes in self.classes_by_name.values():
                for cls in classes:
                    if cls in matched:
                        continue
                    if cls.name in known or any(b in known for b in cls.base_names):
                        matched.add(cls)
                        known.add(cls.name)
                        changed = True
        return matched

    def family(self, cls: ClassInfo) -> set[ClassInfo]:
        """``cls`` plus every ancestor and descendant reachable by name links."""
        cached = self._family_cache.get(id(cls))
        if cached is not None:
            return cached
        out = {cls}
        # ancestors
        frontier = list(cls.base_names)
        seen = set(frontier)
        while frontier:
            base = frontier.pop()
            for parent in self.classes_by_name.get(base, []):
                if parent not in out:
                    out.add(parent)
                    for grand in parent.base_names:
                        if grand not in seen:
                            seen.add(grand)
                            frontier.append(grand)
        # descendants (of anything already in the family)
        changed = True
        while changed:
            changed = False
            names = {c.name for c in out}
            for classes in self.classes_by_name.values():
                for candidate in classes:
                    if candidate not in out and any(b in names for b in candidate.base_names):
                        out.add(candidate)
                        changed = True
        self._family_cache[id(cls)] = out
        return out

    def lazy_slots(self, cls: ClassInfo) -> frozenset[str]:
        """``self`` attributes the family of ``cls`` binds to a lazy slot."""
        slots: set[str] = set()
        for member in self.family(cls):
            for node in ast.walk(member.node):
                if isinstance(node, ast.Assign) and is_lazy_construction(node.value):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            slots.add(target.attr)
        return frozenset(slots)

    # -- call-target resolution -----------------------------------------
    def _is_external_root(self, node: ast.expr, module: ModuleInfo) -> bool:
        """True when an attribute chain is rooted at an external-module alias."""
        while isinstance(node, ast.Attribute):
            node = node.value
        if isinstance(node, ast.Name):
            target = module.imports.get(node.id)
            if target is not None:
                return target.split(".")[0] not in self.internal_packages
        return False

    def resolve_function_name(self, name: str, module: ModuleInfo) -> list[FunctionInfo]:
        """Targets of a bare-name call ``name(...)`` from ``module``."""
        out: list[FunctionInfo] = []
        if name in module.functions:
            out.append(module.functions[name])
        for cls in self._classes_named(name, module):
            for ctor in ("__init__", "__post_init__"):
                fn = self._family_method(cls, ctor)
                if fn is not None:
                    out.append(fn)
        target = module.imports.get(name)
        if target is not None and target.split(".")[0] in self.internal_packages:
            mod_name, _, leaf = target.rpartition(".")
            imported = self.modules.get(mod_name)
            if imported is not None and leaf in imported.functions:
                out.append(imported.functions[leaf])
        return out

    def _classes_named(self, name: str, module: ModuleInfo) -> list[ClassInfo]:
        if name in module.classes:
            return [module.classes[name]]
        target = module.imports.get(name)
        if target is not None:
            if target.split(".")[0] not in self.internal_packages:
                return []
            leaf = target.rpartition(".")[2]
            return self.classes_by_name.get(leaf, [])
        return self.classes_by_name.get(name, [])

    def _family_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for member in self.family(cls):
            if name in member.methods:
                return member.methods[name]
        return None

    def callees(self, fn: FunctionInfo) -> list[FunctionInfo]:
        """Every project function ``fn`` may call (over-approximated)."""
        out: list[FunctionInfo] = []
        module = fn.module
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if self._is_external_root(func, module):
                        continue
                    if func.attr in _DUNDER_CALLS:
                        continue
                    if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
                        if fn.cls is not None:
                            out.extend(
                                member.methods[func.attr]
                                for member in self.family(fn.cls)
                                if func.attr in member.methods
                            )
                            continue
                    # ClassName.method(...) or obj.method(...)
                    if isinstance(func.value, ast.Name):
                        for cls in self._classes_named(func.value.id, module):
                            target = self._family_method(cls, func.attr)
                            if target is not None:
                                out.append(target)
                                break
                        else:
                            out.extend(self.methods_by_name.get(func.attr, []))
                        continue
                    out.extend(self.methods_by_name.get(func.attr, []))
                elif isinstance(func, ast.Name):
                    out.extend(self.resolve_function_name(func.id, module))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                # Bare attribute loads reach property getters (lazy builds);
                # ``self.m`` loads also reach bound-method references, the
                # builds handed to lazy slots.
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                    and fn.cls is not None
                ):
                    out.extend(
                        member.methods[node.attr]
                        for member in self.family(fn.cls)
                        if node.attr in member.methods
                    )
                    continue
                if node.attr not in self.properties_by_name:
                    continue
                if self._is_external_root(node, module):
                    continue
                out.extend(self.properties_by_name.get(node.attr, []))
        return out

    def reachable_from(
        self, roots: list[FunctionInfo]
    ) -> dict[FunctionInfo, FunctionInfo | None]:
        """Predecessor map of every function reachable from ``roots``.

        ``result[fn]`` is the function through which ``fn`` was first
        reached (``None`` for a root) — enough to render a human-readable
        "via" chain in findings.
        """
        pred: dict[FunctionInfo, FunctionInfo | None] = {fn: None for fn in roots}
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for callee in self.callees(current):
                if callee not in pred:
                    pred[callee] = current
                    frontier.append(callee)
        return pred

    @staticmethod
    def chain(pred: dict[FunctionInfo, FunctionInfo | None], fn: FunctionInfo) -> str:
        """Render the reach chain of ``fn`` back to its root, newest first."""
        parts: list[str] = []
        node: FunctionInfo | None = pred.get(fn)
        while node is not None and len(parts) < 4:
            parts.append(node.qualname)
            node = pred.get(node)
        return " <- ".join(parts) if parts else "declared read root"


def collect_python_files(paths: list[Path]) -> list[Path]:
    """Every ``*.py`` file under the given files/directories, sorted."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)
