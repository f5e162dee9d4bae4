"""WIRE — drift between code and the wire contract.

Two contracts are easy to break without failing any unit test:

* **WIRE001** — every ``GatewayFault(code, ...)`` raised in
  ``repro.gateway`` must use a code registered in
  ``repro/gateway/schema.py``'s ``ERROR_CODES``.  The schema module
  formerly enforced this with a runtime ``assert`` — stripped under
  ``python -O``, and firing only when the buggy path executes.  This
  checker proves it statically: the schema file's ``E_* = "..."``
  constants and the ``ERROR_CODES = frozenset({...})`` literal are read
  from its AST, then every construction site is resolved.  String
  literals are checked against the code values, ``E_*`` names against
  the registered constants; dynamic first arguments (e.g. re-wrapping
  ``fault.code``) are skipped — they carry an already-validated code.
* **WIRE002** — metric names registered through ``.counter(...)``/
  ``.counter_fn(...)``/``.histogram(...)``/``.gauge(...)``/``.gauge_fn(...)``
  must follow the conventions the dashboards scrape by: snake_case,
  counters end ``_total``, duration histograms end ``_seconds``, gauges
  must *not* end ``_total`` (a gauge that looks like a counter breaks
  rate() queries).  f-string names are checked by their literal suffix.
  Subsystems with a reserved series prefix (``repro.signals`` →
  ``signal_*``) must register every metric under it, so their dashboards
  can scrape one namespace and other subsystems cannot squat on it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, Project

_SCHEMA_MODULE = "repro.gateway.schema"
_GATEWAY_PREFIX = "repro.gateway"

_SNAKE = re.compile(r"^[a-z][a-z0-9_]*$")

_METRIC_METHODS = ("counter", "counter_fn", "gauge", "gauge_fn",
                   "histogram")

#: Subsystems whose metric series live under a reserved name prefix.
_SERIES_PREFIXES = {"repro.signals": "signal_"}


def _schema_registry(module: ModuleInfo) -> tuple[dict[str, str], set[str]]:
    """(constant name -> code string, registered constant names)."""
    constants: dict[str, str] = {}
    registered: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id.startswith("E_") and isinstance(node.value,
                                                     ast.Constant) \
                and isinstance(node.value.value, str):
            constants[target.id] = node.value.value
        elif target.id == "ERROR_CODES":
            for name_node in ast.walk(node.value):
                if isinstance(name_node, ast.Name) \
                        and name_node.id.startswith("E_"):
                    registered.add(name_node.id)
                elif isinstance(name_node, ast.Constant) \
                        and isinstance(name_node.value, str):
                    # literal codes registered directly
                    registered.add(name_node.value)
    return constants, registered


class WireContractRule:
    id = "WIRE"
    ids = ("WIRE001", "WIRE002")
    summary = "error codes and metric names must match the wire contract"

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._error_codes(project)
        yield from self._metric_names(project)

    # -- WIRE001 -------------------------------------------------------------

    def _error_codes(self, project: Project) -> Iterator[Finding]:
        schema = project.by_name.get(_SCHEMA_MODULE)
        if schema is None:
            return
        constants, registered = _schema_registry(schema)
        valid_codes = {constants[name] for name in registered
                       if name in constants}
        valid_codes |= {code for code in registered
                        if not code.startswith("E_")}
        for module in project.modules_under(_GATEWAY_PREFIX):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if callee != "GatewayFault":
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str):
                    if arg.value not in valid_codes:
                        yield Finding(
                            path=module.relpath, line=node.lineno,
                            rule="WIRE001",
                            message=f"error code {arg.value!r} is not in "
                                    f"schema.ERROR_CODES; register it in "
                                    f"repro/gateway/schema.py before "
                                    f"raising it on the wire",
                        )
                elif isinstance(arg, ast.Name) and arg.id.startswith("E_"):
                    if arg.id not in registered:
                        yield Finding(
                            path=module.relpath, line=node.lineno,
                            rule="WIRE001",
                            message=f"error constant {arg.id} is not "
                                    f"registered in schema.ERROR_CODES",
                        )
                # anything else (fault.code re-wraps, variables) is a
                # code that already passed through GatewayFault: skip.

    # -- WIRE002 -------------------------------------------------------------

    @staticmethod
    def _literal_name(arg: ast.expr) -> tuple[str | None, str | None]:
        """(full name or None, literal suffix or None).

        A plain string gives both; an f-string gives only the trailing
        literal part (enough to check the suffix conventions).
        """
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, arg.value
        if isinstance(arg, ast.JoinedStr) and arg.values:
            last = arg.values[-1]
            if isinstance(last, ast.Constant) \
                    and isinstance(last.value, str):
                return None, last.value
        return None, None

    def _metric_names(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute) \
                        or func.attr not in _METRIC_METHODS:
                    continue
                kind = func.attr
                full, suffix = self._literal_name(node.args[0])
                if full is None and suffix is None:
                    continue  # dynamic name: out of static reach
                if full is not None and not _SNAKE.match(full):
                    yield Finding(
                        path=module.relpath, line=node.lineno,
                        rule="WIRE002",
                        message=f"metric name {full!r} is not snake_case "
                                f"([a-z][a-z0-9_]*)",
                    )
                    continue
                if full is not None:
                    for owner, prefix in _SERIES_PREFIXES.items():
                        if (module.name == owner
                                or module.name.startswith(owner + ".")) \
                                and not full.startswith(prefix):
                            yield Finding(
                                path=module.relpath, line=node.lineno,
                                rule="WIRE002",
                                message=f"metric {full!r} registered in "
                                        f"{owner} must use the reserved "
                                        f"series prefix {prefix!r}",
                            )
                checked = full if full is not None else suffix or ""
                if kind in ("counter", "counter_fn") \
                        and not checked.endswith("_total"):
                    yield Finding(
                        path=module.relpath, line=node.lineno,
                        rule="WIRE002",
                        message=f"counter {checked!r} must end in "
                                f"'_total' (rate() convention)",
                    )
                elif kind == "histogram" \
                        and not checked.endswith("_seconds"):
                    yield Finding(
                        path=module.relpath, line=node.lineno,
                        rule="WIRE002",
                        message=f"histogram {checked!r} must end in "
                                f"'_seconds' (duration convention; name "
                                f"the unit)",
                    )
                elif kind in ("gauge", "gauge_fn") \
                        and checked.endswith("_total"):
                    yield Finding(
                        path=module.relpath, line=node.lineno,
                        rule="WIRE002",
                        message=f"gauge {checked!r} must not end in "
                                f"'_total': that suffix promises a "
                                f"monotonic counter",
                    )


__all__ = ["WireContractRule"]
