"""Repo-specific AST lint rules (``reprolint``).

The PR-1 architecture has contracts that generic linters cannot see: one
:class:`~repro.sim.runtime.EngineRuntime` owns the simulation substrate,
all disk traffic goes through the cost-charging :class:`SimDisk` API, and
background maintenance registers with the :class:`BackgroundScheduler`
instead of running inline.  Simulated runs must also be bit-for-bit
deterministic, which bans the wall clock and unseeded randomness outright.
Each rule below mechanically enforces one of those contracts over
``src/repro``.

Rules:

=======  ==============================================================
RL001    raw-substrate: ``SimClock`` / ``SimDisk`` / ``StatCounters``
         may only be constructed inside ``repro/sim`` (components receive
         them from an ``EngineRuntime``).
RL002    disk-bypass: no access to ``SimDisk`` internals (``_blobs``,
         offset cursors, direct ``busy_ns`` writes) outside ``repro/sim``
         — all I/O must pay the cost model through ``read``/``write``.
RL003    inline-background: maintenance entry points may only be invoked
         from their owner modules; everyone else submits to the
         ``BackgroundScheduler``.  Real threads are banned entirely.
RL004    wall-clock: no ``time`` / ``datetime`` imports — simulated code
         reads time only from ``SimClock``.
RL005    unseeded-random: no module-global ``random`` functions and no
         seedless ``random.Random()`` — every RNG carries an explicit
         seed so runs reproduce.
RL006    mutable-default: no mutable default argument values.
RL007    hot-path-overhead: inside the hot packages (``art/``, ``lsm/``,
         ``sim/``, ``diskbtree/``) no function-local imports and no
         attribute-chain calls (``self.clock.charge_cpu(...)``) inside
         loops — hoist the import to module top and bind the method to a
         local before the loop.  These patterns are semantically fine but
         cost real wall-clock time per call on the simulator's hottest
         paths (PR 3's profiles showed them dominating).
RL009    policy-determinism: inside ``cache/`` modules, no ``time`` /
         ``random`` / ``os`` imports and no iteration over bare ``set``
         values (set literals, set comprehensions, ``set()`` /
         ``frozenset()`` calls).  Eviction decisions must be a pure
         function of the hook-call sequence — hash-order iteration or
         environmental input would silently break the byte-identical
         results contract for every system the policy serves.
=======  ==============================================================

A finding on a given line is suppressed by the inline pragma
``# reprolint: allow[RL00X]`` (comma-separated ids, or ``allow[*]`` for
all rules); pragmas document *why* at the call site, like ``noqa`` but
scoped to this linter.  Files under a ``tests`` directory are never
linted: the contracts bind the library, and tests must be free to build
corrupted or standalone fixtures.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "allowed_rules",
    "filter_findings",
    "iter_pragmas",
    "lint_source",
    "lint_paths",
    "module_rel_path",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule (for ``--list-rules``)."""

    rule_id: str
    name: str
    summary: str
    #: where the rule applies — module prefixes, a construct, or a runtime
    #: oracle; shown by ``--list-rules`` and the generated DESIGN.md table.
    scope: str = "src/repro (tests excluded)"


RULES: tuple[Rule, ...] = (
    Rule(
        "RL001",
        "raw-substrate",
        "construct SimClock/SimDisk/StatCounters only in repro/sim",
        scope="everywhere outside sim/",
    ),
    Rule(
        "RL002",
        "disk-bypass",
        "no SimDisk internals access outside repro/sim",
        scope="everywhere outside sim/",
    ),
    Rule(
        "RL003",
        "inline-background",
        "maintenance runs via the BackgroundScheduler",
        scope="maintenance entry points (curated owner table)",
    ),
    Rule(
        "RL004",
        "wall-clock",
        "no time/datetime imports in simulated code",
        scope="everywhere outside bench/ and check/",
    ),
    Rule(
        "RL005",
        "unseeded-random",
        "all randomness comes from an explicitly seeded RNG",
        scope="src/repro (tests excluded)",
    ),
    Rule(
        "RL006",
        "mutable-default",
        "no mutable default argument values",
        scope="src/repro (tests excluded)",
    ),
    Rule(
        "RL007",
        "hot-path-overhead",
        "no function-local imports or in-loop attribute-chain calls in hot modules",
        scope="hot modules (art/ lsm/ sim/ diskbtree/)",
    ),
    Rule(
        "RL009",
        "policy-determinism",
        "cache-policy modules: no time/random/os imports, no bare-set iteration",
        scope="cache/ policy modules",
    ),
)

#: substrate classes whose construction is reserved to ``repro/sim``.
_SUBSTRATE_NAMES = frozenset({"SimClock", "SimDisk", "StatCounters"})

#: ``SimDisk`` internals that bypass cost-model charging when touched.
_DISK_INTERNALS = frozenset({"_blobs", "_next_offset", "_last_read_end", "_last_write_end"})

#: maintenance entry points and the modules allowed to call them inline
#: (their owners plus the scheduler-runner modules that register them).
_MAINTENANCE_OWNERS: dict[str, tuple[str, ...]] = {
    "note_inserts": ("core/precleaner.py",),
    "run_pass": ("core/precleaner.py", "core/indexy.py"),
    "release_cycle": ("core/indexy.py",),
    "_maybe_compact": ("lsm/store.py",),
    "_proactive_writeback_pass": ("diskbtree/bufferpool.py",),
}

#: modules whose import means the code can observe the wall clock.
_WALL_CLOCK_MODULES = frozenset({"time", "datetime"})

#: ``random``-module functions that use the process-global, OS-seeded RNG.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "seed",
        "getrandbits",
    }
)

#: constructors whose results are mutable (beyond the literal displays).
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "Counter", "defaultdict", "deque", "OrderedDict"}
)

#: packages forming the simulator's hot paths; RL007 polices wall-clock
#: overhead patterns in these modules only.
_HOT_PREFIXES = ("art/", "lsm/", "sim/", "diskbtree/")

#: imports that would let a cache policy observe anything beyond its
#: hook-call sequence (RL009).
_POLICY_BANNED_IMPORTS = frozenset({"time", "random", "os"})

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([^\]]*)\]")


def module_rel_path(path: str | Path) -> str:
    """Path of ``path`` relative to the ``repro`` package root.

    Files outside the package (lint fixtures, ad-hoc scripts) fall back to
    their bare filename, so the module-scoped allowances never match them.
    """
    posix = Path(path).as_posix()
    marker = "/repro/"
    if posix.startswith("repro/"):
        return posix[len("repro/") :]
    idx = posix.rfind(marker)
    if idx >= 0:
        return posix[idx + len(marker) :]
    return Path(posix).name


def _in_sim(rel: str) -> bool:
    return rel.startswith("sim/")


def _is_hot(rel: str) -> bool:
    return rel.startswith(_HOT_PREFIXES)


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: list[tuple[int, int, str, str]] = []
        self._hot = _is_hot(rel)
        self._policy = rel.startswith("cache/")
        self._func_depth = 0
        self._loop_depth = 0

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), rule, message)
        )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _callee_name(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    @staticmethod
    def _dotted(node: ast.expr) -> str | None:
        """Render an attribute chain rooted at a plain name (``a.b.c``)."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(cur.id)
        return ".".join(reversed(parts))

    # -- RL009: bare-set iteration in policy modules -------------------
    @staticmethod
    def _is_bare_set(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    def _check_policy_iteration(self, iter_expr: ast.expr) -> None:
        if self._policy and self._is_bare_set(iter_expr):
            self._add(
                iter_expr,
                "RL009",
                "iteration over a bare set is hash-order-dependent; policy "
                "decisions must iterate insertion-ordered dicts or lists",
            )

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_policy_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    # -- RL007: loop / function-scope tracking -------------------------
    def _visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self._check_policy_iteration(node.iter)
        # The iterator expression runs once, outside the per-iteration
        # cost, so it is visited at the enclosing loop depth.
        self.visit(node.iter)
        self._loop_depth += 1
        self.visit(node.target)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_for(node)

    def visit_While(self, node: ast.While) -> None:
        # Unlike a for-iterator, the while-test re-evaluates every
        # iteration, so it counts as loop-body code.
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    # -- RL001 / RL003 / RL005: calls ----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = self._callee_name(node.func)
        if name in _SUBSTRATE_NAMES and not _in_sim(self.rel):
            self._add(
                node,
                "RL001",
                f"direct {name}() construction outside repro/sim; "
                "take the instance from an EngineRuntime",
            )
        if name in _MAINTENANCE_OWNERS and self.rel not in _MAINTENANCE_OWNERS[name]:
            self._add(
                node,
                "RL003",
                f"inline call to maintenance entry point {name}(); "
                "submit the work to the BackgroundScheduler instead",
            )
        if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            base = node.func.value.id
            if base == "random":
                if node.func.attr in _GLOBAL_RANDOM_FUNCS:
                    self._add(
                        node,
                        "RL005",
                        f"random.{node.func.attr}() uses the process-global RNG; "
                        "use an explicitly seeded random.Random(seed)",
                    )
                elif node.func.attr == "Random" and not node.args and not node.keywords:
                    self._add(
                        node,
                        "RL005",
                        "random.Random() without a seed is OS-seeded; pass an explicit seed",
                    )
            elif base == "threading" and node.func.attr == "Thread":
                self._add(
                    node,
                    "RL003",
                    "real threads are banned; register a task on the BackgroundScheduler",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "Random":
            if not node.args and not node.keywords:
                self._add(
                    node,
                    "RL005",
                    "Random() without a seed is OS-seeded; pass an explicit seed",
                )
        if (
            self._hot
            and self._loop_depth > 0
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
        ):
            # Only chains rooted at ``self`` are flagged: those are
            # loop-invariant by construction (``self`` cannot rebind),
            # so the bound method can always be hoisted.  A chain rooted
            # at a loop variable usually cannot.
            chain = self._dotted(node.func)
            if chain is not None and chain.startswith("self."):
                self._add(
                    node,
                    "RL007",
                    f"attribute-chain call {chain}() inside a loop on a hot "
                    "path; bind the method to a local before the loop",
                )
        self.generic_visit(node)

    # -- RL002: disk internals -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _DISK_INTERNALS and not _in_sim(self.rel):
            self._add(
                node,
                "RL002",
                f"access to SimDisk internal '{node.attr}' bypasses cost-model "
                "charging; use disk.read()/disk.write()",
            )
        self.generic_visit(node)

    def _check_busy_ns_write(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "busy_ns" and not _in_sim(self.rel):
            self._add(
                target,
                "RL002",
                "writing busy_ns directly forges disk time; only SimDisk may charge it",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_busy_ns_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_busy_ns_write(node.target)
        self.generic_visit(node)

    # -- RL003 / RL004: imports ----------------------------------------
    def _check_import(self, node: ast.Import | ast.ImportFrom, module: str) -> None:
        root = module.split(".")[0]
        if self._policy and root in _POLICY_BANNED_IMPORTS:
            self._add(
                node,
                "RL009",
                f"import of '{root}' in a cache-policy module; eviction "
                "decisions must be a pure function of the hook-call sequence",
            )
            return
        if root in _WALL_CLOCK_MODULES:
            self._add(
                node,
                "RL004",
                f"import of '{root}' reads the wall clock; simulated code uses SimClock",
            )
        elif root == "threading":
            self._add(
                node,
                "RL003",
                "import of 'threading': background work registers with the "
                "BackgroundScheduler, it does not spawn threads",
            )
        elif root == "concurrent":
            self._add(
                node,
                "RL003",
                "import of 'concurrent': real thread pools are banned in "
                "simulated code",
            )

    def _check_local_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if self._hot and self._func_depth > 0:
            self._add(
                node,
                "RL007",
                "function-local import on a hot path pays the import-machinery "
                "lookup on every call; hoist it to module top",
            )

    def visit_Import(self, node: ast.Import) -> None:
        self._check_local_import(node)
        for alias in node.names:
            self._check_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_local_import(node)
        if node.module:
            self._check_import(node, node.module)
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM_FUNCS:
                        self._add(
                            node,
                            "RL005",
                            f"'from random import {alias.name}' pulls in the "
                            "process-global RNG; use random.Random(seed)",
                        )

    # -- RL006: mutable defaults ---------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults: list[ast.expr] = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
            )
            if isinstance(default, ast.Call):
                callee = self._callee_name(default.func)
                mutable = callee in _MUTABLE_CONSTRUCTORS
            if mutable:
                self._add(
                    default,
                    "RL006",
                    f"mutable default argument in {node.name}(); default to None "
                    "and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1


def allowed_rules(line: str) -> frozenset[str] | None:
    """Rule ids the line's pragma allows, or None when there is no pragma.

    Shared by the shallow rules here and the deep RL1xx rules in
    :mod:`repro.check.deepcheck` — one ``# reprolint: allow[...]`` pragma
    grammar suppresses findings from either layer.
    """
    match = _PRAGMA_RE.search(line)
    if match is None:
        return None
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


def iter_pragmas(source: str) -> list[tuple[int, frozenset[str]]]:
    """Every ``allow[...]`` pragma in ``source`` as ``(lineno, rule ids)``.

    The stale-pragma audit (``--unused-pragmas``) compares these against
    the raw findings each line would produce without suppression.  Only
    genuine ``#`` comments count — the tokenizer distinguishes a real
    pragma from a docstring that merely *mentions* the pragma grammar.
    """
    import io
    import tokenize

    out: list[tuple[int, frozenset[str]]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, SyntaxError):
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        allowed = allowed_rules(token.string)
        if allowed is not None:
            out.append((token.start[0], allowed))
    return out


def filter_findings(
    findings: Iterable[Finding], lines_by_path: dict[str, list[str]]
) -> list[Finding]:
    """Drop findings suppressed by a same-line ``allow[...]`` pragma.

    One filter serves every rule layer (shallow RL0xx, deep RL1xx,
    charge RL3xx) so the pragma grammar cannot drift between them.
    """
    kept: list[Finding] = []
    for finding in findings:
        lines = lines_by_path.get(finding.path, [])
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        allowed = allowed_rules(text)
        if allowed is not None and (finding.rule in allowed or "*" in allowed):
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str, path: str | Path, *, apply_pragmas: bool = True
) -> list[Finding]:
    """Lint one module's source text; returns findings sorted by location.

    ``apply_pragmas=False`` returns the raw findings including suppressed
    ones — the substrate of the stale-pragma audit.
    """
    rel = module_rel_path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(str(path), exc.lineno or 1, exc.offset or 0, "RL000", f"syntax error: {exc.msg}")
        ]
    visitor = _Visitor(rel)
    visitor.visit(tree)
    raw = [
        Finding(str(path), line, col, rule, message)
        for line, col, rule, message in sorted(visitor.findings)
    ]
    if not apply_pragmas:
        return raw
    return filter_findings(raw, {str(path): source.splitlines()})


def _iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "tests" in sub.parts:
                    continue
                yield sub
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[str | Path], *, apply_pragmas: bool = True
) -> list[Finding]:
    """Lint every ``*.py`` file under ``paths`` (test directories excluded)."""
    findings: list[Finding] = []
    for path in _iter_py_files(paths):
        findings.extend(
            lint_source(
                path.read_text(encoding="utf-8"), path, apply_pragmas=apply_pragmas
            )
        )
    return findings
