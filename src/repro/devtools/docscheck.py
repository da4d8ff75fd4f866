"""docscheck: keep the documentation site honest.

Scans ``docs/**/*.md``, ``README.md``, ``DESIGN.md`` and
``EXPERIMENTS.md`` for three classes of rot:

* **dead relative links** — ``[text](path.md)`` targets that no longer
  exist on disk (external ``http(s)://`` / ``mailto:`` links and pure
  ``#anchor`` fragments are ignored);
* **dead module references** — inline-code mentions of ``repro.*``
  (e.g. ```` `repro.obs.tracer` ````) that resolve to nothing under
  ``src/``.  A reference may end in up to two attribute segments: a
  ``ClassName``/dunder tail is accepted structurally, a lowercase tail
  must appear in the owning module's ``__all__`` (parsed statically, the
  package is never imported);
* **dead repo paths** — inline-code mentions of files under
  ``benchmarks/``, ``scripts/``, ``examples/`` or ``tests/`` (e.g.
  ```` `benchmarks/bench_table06_latent_classes.py` ````) that do not
  exist relative to the repository root.  A pytest node suffix
  (``::TestName``) is dropped first; placeholders and globs (``<id>``,
  ``*``) are not checked.

Fenced code blocks are skipped entirely, so tutorial shell transcripts
and Python examples never trip the checker.  ``python -m repro
docscheck`` exits non-zero on any finding; CI runs it in the docs job so
a renamed module or moved page fails the build instead of shipping a
broken site.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "DocFinding",
    "check_file",
    "check_repo",
    "docs_files",
    "run_docscheck_command",
]

#: Markdown inline link: ``[text](target)``.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)<>\s]+)\)")

#: Inline-code reference to the package: ```` `repro.something[...]` ````.
MODULE_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: Repo path inside an inline-code span: ```` `benchmarks/bench_x.py` ````.
PATH_RE = re.compile(
    r"(?<![\w./-])((?:benchmarks|scripts|examples|tests)/[^\s`'\"),;]*)"
)

#: Inline-code span (single backticks, no nesting).
CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: Characters that mark a path as a placeholder or glob, never checked.
_PLACEHOLDER = set("<>*{}$[]")

#: Top-level files scanned alongside ``docs/``.
_TOP_LEVEL_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Link targets that are never checked against the working tree.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


@dataclass
class DocFinding:
    """One problem in one documentation file."""

    path: str
    line: int
    kind: str  # "dead-link" | "dead-module" | "dead-path"
    detail: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.kind}: {self.detail}"


def _module_exists(parts: Sequence[str], src: str) -> bool:
    """True when ``parts`` names a package directory or module file."""
    path = os.path.join(src, *parts)
    return os.path.isdir(path) or os.path.isfile(path + ".py")


def _module_all(parts: Sequence[str], src: str,
                cache: Dict[str, List[str]]) -> List[str]:
    """Statically parsed ``__all__`` of the module named by ``parts``."""
    key = ".".join(parts)
    if key in cache:
        return cache[key]
    path = os.path.join(src, *parts)
    path = os.path.join(path, "__init__.py") if os.path.isdir(path) else path + ".py"
    names: List[str] = []
    try:
        tree = ast.parse(open(path, "r", encoding="utf-8").read())
    except (OSError, SyntaxError):
        tree = None
    if tree is not None:
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" not in targets:
                continue
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names = [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
    cache[key] = names
    return names


def _module_ref_ok(ref: str, src: str, cache: Dict[str, List[str]]) -> bool:
    """Does ``ref`` (``repro.x.y``) resolve to a module or exported name?"""
    parts = ref.split(".")
    resolved = 0
    for end in range(len(parts), 0, -1):
        if _module_exists(parts[:end], src):
            resolved = end
            break
    if resolved == len(parts):
        return True  # the whole reference is a module/package
    if resolved == 0:
        return False  # not even ``repro`` found — wrong --root
    tail = parts[resolved:]
    if len(tail) > 2:
        return False
    head = tail[0]
    if head.startswith("__") or head != head.lower():
        return True  # ClassName / dunder attribute — structural accept
    if len(tail) == 1 and head in _module_all(parts[:resolved], src, cache):
        return True
    return False


def check_file(path: str, root: str) -> List[DocFinding]:
    """Check one markdown file; paths in findings are root-relative."""
    src = os.path.join(root, "src")
    relative = os.path.relpath(path, root)
    findings: List[DocFinding] = []
    all_cache: Dict[str, List[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    in_fence = False
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0].split("?", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target)
            )
            if not os.path.exists(resolved):
                findings.append(
                    DocFinding(relative, number, "dead-link",
                               f"target does not exist: {target}")
                )
        for match in MODULE_RE.finditer(line):
            reference = match.group(1)
            if not _module_ref_ok(reference, src, all_cache):
                findings.append(
                    DocFinding(relative, number, "dead-module",
                               f"unresolvable reference: {reference}")
                )
        for span in CODE_SPAN_RE.finditer(line):
            for match in PATH_RE.finditer(span.group(1)):
                target = match.group(1).split("::", 1)[0].rstrip(".:")
                if _PLACEHOLDER & set(target):
                    continue
                if not os.path.exists(os.path.join(root, target)):
                    findings.append(
                        DocFinding(relative, number, "dead-path",
                                   f"path does not exist: {target}")
                    )
    return findings


def docs_files(root: str) -> List[str]:
    """Every file docscheck covers: the top-level docs plus ``docs/**/*.md``."""
    found: List[str] = []
    for name in _TOP_LEVEL_DOCS:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            found.append(path)
    docs = os.path.join(root, "docs")
    for base, _dirs, names in os.walk(docs):
        for name in sorted(names):
            if name.endswith(".md"):
                found.append(os.path.join(base, name))
    return found


def check_repo(root: str = ".") -> List[DocFinding]:
    """Run docscheck over the repository rooted at ``root``."""
    findings: List[DocFinding] = []
    for path in docs_files(root):
        findings.extend(check_file(path, root))
    return findings


def run_docscheck_command(args) -> int:
    """Back the ``python -m repro docscheck`` subcommand."""
    root = getattr(args, "root", ".") or "."
    findings = check_repo(root)
    output_format = getattr(args, "format", "text")
    if output_format == "json":
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        checked = len(docs_files(root))
        status = "failed" if findings else "ok"
        print(f"docscheck: {status} — {checked} files, {len(findings)} findings")
    return 1 if findings else 0
