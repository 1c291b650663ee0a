"""Command-line entry point: ``python -m repro.qa``.

Examples::

    python -m repro.qa                       # lint src/, text report
    python -m repro.qa --strict              # warnings fail too (CI)
    python -m repro.qa --format json         # machine-readable output
    python -m repro.qa --format sarif        # code-scanning annotations
    python -m repro.qa --rules QA001,QA004   # subset of rules
    python -m repro.qa --root other/src      # lint a different tree

Exit codes: 0 clean, 1 findings (errors; with ``--strict`` any finding
that no pragma covers), 2 usage error.

A run is one serial pass: it reads the source root, runs every rule,
builds the whole-program model (QA008–QA010, QA012) from the summaries of that
run, and prints the report.  It keeps no state and writes no files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import QAEngine, Report, all_rules
from .project import Project

__all__ = ["main"]


def _default_root() -> Path:
    """``src/`` when run from a repo checkout, else the working dir."""
    src = Path("src")
    return src if (src / "repro").is_dir() else Path(".")


def _uri_prefix(root: Path) -> str:
    """Repo-relative prefix for SARIF URIs (``src`` in this repo).

    Finding paths are relative to the scanned root; annotations need
    paths relative to the repository checkout, i.e. the working dir.
    """
    try:
        rel = root.resolve().relative_to(Path.cwd())
    except ValueError:
        return ""
    return "" if rel == Path(".") else rel.as_posix()


def _render_text(report: Report) -> str:
    lines = [f.render() for f in report.findings]
    lines.append(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        f" ({len(report.pragma_suppressed)} pragma-suppressed)"
    )
    return "\n".join(lines)


def _render_json(report: Report) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in report.findings],
            "counts": {
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "pragma_suppressed": len(report.pragma_suppressed),
            },
        },
        indent=2,
    )


def main(argv: list[str] | None = None) -> int:
    """Run the lint engine; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Domain lint: determinism, cache-key, and pool-safety "
        "invariants of the EarSonar reproduction.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source root to lint (default: ./src if it contains repro/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings as well as errors (CI mode)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rules and exit",
    )
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id} [{rule.severity.value}] {rule.description}")
        return 0
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [r for r in rules if r.rule_id in wanted]

    root = args.root if args.root is not None else _default_root()
    if not root.exists():
        print(f"source root {root} does not exist", file=sys.stderr)
        return 2

    report = QAEngine(rules=rules).run(Project.scan(root))
    if args.format == "json":
        print(_render_json(report))
    elif args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(report, rules, uri_prefix=_uri_prefix(root)))
    else:
        print(_render_text(report))
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
