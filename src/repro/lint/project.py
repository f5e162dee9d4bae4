"""Project model: parsed modules plus a resolved import graph.

The engine parses every ``*.py`` under the lint root exactly once and
hands rules a :class:`Project`:

* per-file: the :class:`ModuleInfo` (dotted name, AST, source,
  suppression map) for single-file rules;
* whole-project: :attr:`Project.imports` — every import statement each
  module makes, resolved to a dotted target and tagged with whether it
  executes at import time (module/class level) or lazily (inside a
  function) or never (under ``if TYPE_CHECKING:``).

Resolution is purely static: ``from repro.serving import service`` is an
edge to ``repro.serving.service`` when that module exists in the tree,
else to the package ``repro.serving``; relative imports resolve against
the importing module's package.  External imports keep their dotted name
(``scipy.special``) — dependency rules key on the top-level package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import parse_suppressions


@dataclass(frozen=True)
class ImportRecord:
    """One import statement, resolved."""

    target: str           # dotted module, best-effort resolved
    lineno: int
    lazy: bool            # inside a function body (runs on call, not import)
    type_checking: bool   # under `if TYPE_CHECKING:` (never runs)

    @property
    def top_level(self) -> str:
        return self.target.split(".", 1)[0]

    @property
    def at_import_time(self) -> bool:
        return not self.lazy and not self.type_checking


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path            # absolute
    relpath: str          # posix, relative to the lint root
    name: str             # dotted module name ("repro.serving.service")
    tree: ast.Module
    source: str
    is_package: bool      # an __init__.py
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module lives in (itself, for ``__init__``)."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


class ProjectError(ValueError):
    """The lint root is unusable (missing, or a file fails to parse)."""


@dataclass
class Project:
    """Everything the rules need, parsed once."""

    root: Path
    modules: list[ModuleInfo]
    by_name: dict[str, ModuleInfo]
    imports: dict[str, list[ImportRecord]]

    def modules_under(self, prefix: str) -> list[ModuleInfo]:
        """Modules whose dotted name equals or lives under ``prefix``."""
        return [m for m in self.modules
                if m.name == prefix or m.name.startswith(prefix + ".")]


def _module_name(relpath: Path) -> tuple[str, bool]:
    parts = list(relpath.with_suffix("").parts)
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


class _ImportVisitor(ast.NodeVisitor):
    """Collect imports with laziness / TYPE_CHECKING context."""

    def __init__(self, module: ModuleInfo, project_modules: set[str]):
        self.module = module
        self.known = project_modules
        self.records: list[ImportRecord] = []
        self._function_depth = 0
        self._type_checking_depth = 0

    # -- context tracking ----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- import statements ---------------------------------------------------

    def _record(self, target: str, lineno: int) -> None:
        self.records.append(ImportRecord(
            target=target, lineno=lineno,
            lazy=self._function_depth > 0,
            type_checking=self._type_checking_depth > 0,
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record(alias.name, node.lineno)

    def _base_package(self, level: int) -> str | None:
        """The package a relative import resolves against."""
        package = self.module.package
        # level 1 = the containing package; each extra level climbs one.
        for _ in range(level - 1):
            if "." not in package:
                return package or None
            package = package.rsplit(".", 1)[0]
        return package or None

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._base_package(node.level)
            if base is None:
                return
            prefix = f"{base}.{node.module}" if node.module else base
        else:
            prefix = node.module or ""
        if not prefix:
            return
        for alias in node.names:
            # `from pkg import sub` names the module pkg.sub when it is
            # one; otherwise the dependency is on pkg itself.
            candidate = f"{prefix}.{alias.name}"
            target = candidate if candidate in self.known else prefix
            self._record(target, node.lineno)


def load_project(root: str | Path) -> Project:
    """Parse every ``*.py`` under ``root`` into a :class:`Project`.

    ``root`` is the directory *containing* the top-level package(s) —
    e.g. ``src``.  Passing a package directory (one with ``__init__.py``)
    transparently lints from its parent, so ``repro lint src/repro`` and
    ``repro lint src`` agree.
    """
    root = Path(root).resolve()
    if root.is_file():
        raise ProjectError(f"lint root {root} is a file, not a directory")
    if not root.is_dir():
        raise ProjectError(f"lint root {root} does not exist")
    if (root / "__init__.py").exists():
        root = root.parent

    modules: list[ModuleInfo] = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root)
        if "__pycache__" in relpath.parts:
            continue
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            raise ProjectError(f"cannot parse {relpath}: {exc}") from exc
        name, is_package = _module_name(relpath)
        if not name:
            continue  # a stray top-level __init__.py directly under root
        modules.append(ModuleInfo(
            path=path, relpath=relpath.as_posix(), name=name, tree=tree,
            source=source, is_package=is_package,
            suppressions=parse_suppressions(source),
        ))

    by_name = {module.name: module for module in modules}
    imports: dict[str, list[ImportRecord]] = {}
    known = set(by_name)
    for module in modules:
        visitor = _ImportVisitor(module, known)
        visitor.visit(module.tree)
        imports[module.name] = visitor.records
    return Project(root=root, modules=modules, by_name=by_name,
                   imports=imports)


__all__ = ["ImportRecord", "ModuleInfo", "Project", "ProjectError",
           "load_project"]
