"""CLI entry point: ``python -m repro.check [paths...]``.

Runs the reprolint AST rules over the given files/directories (default:
the installed ``repro`` package source) and exits non-zero when any
finding survives the inline pragmas.  ``--deep`` adds the RL1xx
CFG/dataflow/call-graph rules (see :mod:`repro.check.deepcheck`) and the
RL3xx charge-effect rules (see :mod:`repro.check.chargecheck`);
``--rules RL30x,RL101`` restricts the run to a rule subset (a trailing
``x`` is a prefix wildcard); ``--unused-pragmas`` audits ``allow[...]``
pragmas that no longer suppress anything; ``--list-rules`` prints the
rule catalogue (``--format markdown`` emits the DESIGN.md table);
``--format json|sarif`` emits machine-readable output for CI upload.
"""

from __future__ import annotations

import argparse
import json
import sys

# Wall-clock only: measures the analyzer's own runtime for the CI budget
# gate; no simulated component ever sees this clock.
import time  # reprolint: allow[RL004]
from pathlib import Path
from typing import Optional, Sequence

from repro.check.chargecheck import CHARGE_RULES, charge_lint_paths
from repro.check.deepcheck import DEEP_RULES, deep_lint_paths
from repro.check.reprolint import RULES, Finding, Rule, iter_pragmas, lint_paths

#: SARIF 2.1.0 is the smallest schema GitHub code scanning ingests.
_SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

#: rule family names keyed by id prefix, embedded in SARIF rule metadata
#: so code-scanning UIs can group the three layers.
_FAMILIES = (
    ("RL3", "charge"),
    ("RL1", "deep"),
    ("RL0", "shallow"),
)

#: every rule across the three layers, in catalogue order.
ALL_RULES: tuple[Rule, ...] = (*RULES, *DEEP_RULES, *CHARGE_RULES)


def _default_target() -> Path:
    # .../src/repro/check/__main__.py -> .../src/repro
    return Path(__file__).resolve().parents[1]


def _family(rule_id: str) -> str:
    for prefix, family in _FAMILIES:
        if rule_id.startswith(prefix):
            return family
    return "shallow"


def _parse_rule_spec(spec: str) -> frozenset[str]:
    """``"RL30x,RL101"`` -> the matching rule ids.

    Each comma-separated part is an exact rule id or a prefix wildcard
    written with trailing ``x`` characters (``RL30x``, ``RL3xx``).
    Unknown parts are an error — a typo must not silently select nothing.
    """
    known = {rule.rule_id for rule in ALL_RULES}
    selected: set[str] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part in known:
            selected.add(part)
            continue
        prefix = part.rstrip("xX")
        matched = {rule_id for rule_id in known if rule_id.startswith(prefix)}
        if part == prefix or not matched:
            raise ValueError(
                f"unknown rule {part!r}; see --list-rules for the catalogue"
            )
        selected.update(matched)
    if not selected:
        raise ValueError("empty --rules selection")
    return frozenset(selected)


def _rule_catalogue_markdown() -> str:
    """The DESIGN.md rule table (kept generated, never hand-edited)."""
    lines = [
        "| Rule | Name | Layer | Scope | Contract |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rule in ALL_RULES:
        lines.append(
            f"| {rule.rule_id} | `{rule.name}` | {_family(rule.rule_id)} "
            f"| {rule.scope} | {rule.summary} |"
        )
    return "\n".join(lines)


def _as_json(findings: list[Finding]) -> str:
    payload = [
        {
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "rule": f.rule,
            "message": f.message,
        }
        for f in findings
    ]
    return json.dumps(payload, indent=2)


def _as_sarif(findings: list[Finding]) -> str:
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": f"{rule.summary} [scope: {rule.scope}]"},
            "defaultConfiguration": {"level": "error"},
            "properties": {"family": _family(rule.rule_id)},
        }
        for rule in ALL_RULES
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line, "startColumn": max(1, f.col)},
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.check",
                        "informationUri": "https://example.invalid/repro-check",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


def _unused_pragmas(targets: list[Path]) -> list[str]:
    """Pragma lines whose ``allow[...]`` suppresses no raw finding.

    Runs all three rule layers with suppression off, then reports every
    pragma line where none of the allowed rule ids (nor ``*`` matching
    anything) actually fires.
    """
    raw = lint_paths(targets, apply_pragmas=False)
    raw += deep_lint_paths(targets, apply_pragmas=False)
    raw += charge_lint_paths(targets, apply_pragmas=False)
    fired: dict[tuple[str, int], set[str]] = {}
    for finding in raw:
        fired.setdefault((finding.path, finding.line), set()).add(finding.rule)

    stale: list[str] = []
    seen: set[Path] = set()
    for entry in targets:
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            if "tests" in file.parts or file.suffix != ".py" or file in seen:
                continue
            seen.add(file)
            source = file.read_text(encoding="utf-8")
            for lineno, allowed in iter_pragmas(source):
                rules_here = fired.get((str(file), lineno), set())
                if "*" in allowed:
                    if rules_here:
                        continue
                    stale.append(f"{file}:{lineno}: stale pragma allow[*]: no rule fires here")
                    continue
                unused = sorted(r for r in allowed if r not in rules_here)
                if unused:
                    stale.append(
                        f"{file}:{lineno}: stale pragma allow[{', '.join(unused)}]: "
                        "the rule no longer fires on this line"
                    )
    return stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="repo-specific AST lint for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package source)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit (--format markdown emits "
        "the DESIGN.md table)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the RL1xx CFG/dataflow/call-graph rules and the RL3xx "
        "charge-effect rules",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="SPEC",
        help="run only these rules: comma-separated ids, trailing 'x' as a "
        "prefix wildcard (e.g. RL30x,RL101); implies the layers it names",
    )
    parser.add_argument(
        "--unused-pragmas",
        action="store_true",
        help="report allow[...] pragmas that no longer suppress any finding "
        "(exit 1 when stale pragmas exist)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "markdown"),
        default="text",
        help="output format (default: text; markdown applies to --list-rules)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="fail (exit 3) if the analysis itself takes longer than S wall seconds",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "markdown":
            print(_rule_catalogue_markdown())
        else:
            for rule in ALL_RULES:
                print(
                    f"{rule.rule_id}  {rule.name:<28} {rule.summary}"
                    f"  [{rule.scope}]"
                )
        return 0
    if args.format == "markdown":
        print("error: --format markdown is only valid with --list-rules", file=sys.stderr)
        return 2

    selected: Optional[frozenset[str]] = None
    if args.rules is not None:
        try:
            selected = _parse_rule_spec(args.rules)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    targets = [Path(p) for p in args.paths] if args.paths else [_default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"error: no such path: {target}", file=sys.stderr)
        return 2

    if args.unused_pragmas:
        stale = _unused_pragmas(targets)
        for line in stale:
            print(line)
        if stale:
            print(f"\n{len(stale)} stale pragma(s)", file=sys.stderr)
        return 1 if stale else 0

    def wants(rules: tuple[Rule, ...]) -> bool:
        """True when the selection touches this layer (default: all)."""
        return selected is None or any(r.rule_id in selected for r in rules)

    # An explicit --rules naming only deep-layer rules runs those layers
    # without requiring --deep; a bare run stays shallow-only.
    deep = args.deep or (
        selected is not None
        and any(not rule_id.startswith("RL0") for rule_id in selected)
    )

    started = time.monotonic()
    findings: list[Finding] = []
    if wants(RULES):
        shallow = lint_paths(targets)
        if selected is not None:
            shallow = [f for f in shallow if f.rule in selected]
        findings += shallow
    if deep:
        if wants(DEEP_RULES):
            findings += deep_lint_paths(targets, rules=selected)
        if wants(CHARGE_RULES):
            findings += charge_lint_paths(targets, rules=selected)
    elapsed = time.monotonic() - started

    if args.format == "json":
        print(_as_json(findings))
    elif args.format == "sarif":
        print(_as_sarif(findings))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"\n{len(findings)} finding(s)", file=sys.stderr)

    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        print(
            f"error: analysis took {elapsed:.2f}s, over the "
            f"{args.budget_seconds:.2f}s budget",
            file=sys.stderr,
        )
        return 3
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
