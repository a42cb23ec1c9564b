#!/usr/bin/env python
"""Documentation gate: links resolve, code blocks run, api.md is complete.

Run from anywhere (the repo root is derived from this file's location):

    python tools/check_docs.py

Five checks, any failure exits non-zero with a per-item report:

1. **Links** — every intra-repo markdown link (``[text](relative/path)``)
   in the checked files points at a file that exists, and every anchor
   fragment (``path#section`` or the pure-fragment ``#section``, which
   targets the current file) names an actual heading of the target
   markdown file (GitHub heading-slug rules, duplicate-suffix
   included).  External (``http``/``mailto``) links are skipped.
2. **Code blocks** — every ``python`` fenced block either executes (if
   it is doctest-style, i.e. its first line starts with ``>>>``) or at
   least compiles, and every name a compile-only block imports with
   ``from repro… import …`` resolves as in check 4.  All doctest blocks
   of one markdown file run in a single shared-globals session, so later
   blocks may reuse names bound by earlier ones (the docs are written
   that way on purpose).
3. **API coverage** — every module under ``src/repro`` is mentioned by
   its dotted name in ``docs/api.md``; new modules must be documented
   before CI goes green.
4. **Names** — every ``repro.``-qualified dotted name inside an inline
   code span (``repro.simulation.live.LivePacking.place``, say) imports
   and resolves: the longest importable module prefix is imported and
   the rest looked up attribute by attribute, so no doc can name a
   module or symbol that no longer exists.
5. **Script paths** — every repo-relative ``.py`` path under
   ``benchmarks/``, ``tools/``, ``perfbench/`` or ``examples/`` named
   anywhere in a checked file, code blocks included, exists, so no doc
   can tell a reader to run a deleted script.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Markdown files under the gate.  Driver-owned scratch files (ISSUE,
#: PAPER(S), SNIPPETS, CHANGES) are deliberately out of scope.
CHECKED_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    REPO / "ROADMAP.md",
    *sorted((REPO / "docs").glob("*.md")),
]

LINK_RE = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
REPRO_NAME_RE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
SCRIPT_PATH_RE = re.compile(
    r"(?<![\w./-])(?:benchmarks|tools|perfbench|examples)/[\w./-]*?\.py\b"
)


def heading_slugs(text: str) -> set:
    """GitHub anchor slugs of every markdown heading in ``text``.

    Mirrors GitHub's slugger: formatting stripped, lowercased,
    punctuation (everything but word characters, hyphens, and spaces)
    removed, spaces hyphenated, and duplicate headings suffixed
    ``-1``, ``-2``, ...  Headings inside fenced code blocks (``# shell
    comments``, say) are ignored.
    """
    counts: Dict[str, int] = {}
    slugs = set()
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", m.group(2))
        title = title.replace("`", "").replace("*", "")
        slug = re.sub(r"[^\w\- ]", "", title.lower()).strip().replace(" ", "-")
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def iter_code_blocks(text: str) -> List[Tuple[str, int, str]]:
    """Yield ``(language, start_line, body)`` for each fenced block."""
    blocks = []
    lang, start, buf = None, 0, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = FENCE_RE.match(line)
        if m and lang is None:
            lang, start, buf = m.group(1) or "", lineno, []
        elif line.strip() == "```" and lang is not None:
            blocks.append((lang, start, "\n".join(buf)))
            lang = None
        elif lang is not None:
            buf.append(line)
    return blocks


def check_links(
    path: Path, text: str, errors: List[str], slug_cache: Dict[Path, set]
) -> None:
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        rel, _, frag = target.partition("#")
        dest = (path.parent / rel).resolve() if rel else path
        if rel and not dest.exists():
            errors.append(f"{path.relative_to(REPO)}: broken link -> {target}")
            continue
        if not frag or dest.suffix != ".md":
            continue
        if dest not in slug_cache:
            slug_cache[dest] = heading_slugs(dest.read_text(encoding="utf-8"))
        if frag not in slug_cache[dest]:
            errors.append(
                f"{path.relative_to(REPO)}: broken anchor -> {target} "
                f"(no such heading in {dest.name})"
            )


def check_code_blocks(path: Path, text: str, errors: List[str]) -> int:
    """Run or compile the ``python`` blocks of ``text``; return how many
    ``from repro… import …`` names the compile-only blocks import."""
    doctest_blocks: List[Tuple[int, str]] = []
    n_imports = 0
    for lang, lineno, body in iter_code_blocks(text):
        if lang != "python":
            continue
        stripped = body.lstrip()
        if stripped.startswith(">>>"):
            doctest_blocks.append((lineno, body))
            continue
        try:
            tree = ast.parse(body, f"{path.name}:{lineno}")
            compile(tree, f"{path.name}:{lineno}", "exec")
        except SyntaxError as exc:
            errors.append(
                f"{path.relative_to(REPO)}:{lineno}: block does not "
                f"compile: {exc}"
            )
            continue
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                continue
            for alias in node.names:
                n_imports += 1
                dotted = f"{node.module}.{alias.name}"
                why = unresolved(dotted)
                if why:
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno + node.lineno}: "
                        f"block imports `{dotted}`, which does not resolve ({why})"
                    )
    if not doctest_blocks:
        return n_imports
    # One shared-globals session per file: later blocks reuse earlier names.
    source = "\n".join(body for _, body in doctest_blocks)
    parser = doctest.DocTestParser()
    test = parser.get_doctest(source, {}, path.name, str(path), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS, verbose=False)
    failures: List[str] = []
    runner.run(test, out=failures.append)
    if runner.failures or runner.tries == 0 and doctest_blocks:
        detail = "".join(failures).strip() or "no examples parsed"
        errors.append(
            f"{path.relative_to(REPO)}: doctest session failed "
            f"({runner.failures}/{runner.tries}):\n{detail}"
        )
    return n_imports


def unresolved(dotted: str) -> str:
    """Why ``dotted`` does not resolve, or ``""`` when it does."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        module = ".".join(parts[:k])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name and module.startswith(exc.name):
                continue  # not a module: try the next shorter prefix
            raise
        for i in range(k, len(parts)):
            if not hasattr(obj, parts[i]):
                return f"{'.'.join(parts[:i])} has no attribute {parts[i]!r}"
            obj = getattr(obj, parts[i])
        return ""
    return "no such module"


def check_names(path: Path, text: str, errors: List[str]) -> int:
    """Resolve every ``repro.`` name in the inline code spans of ``text``."""
    lines = text.splitlines()
    in_fence = False
    for i, line in enumerate(lines):  # fenced blocks belong to check 2
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            lines[i] = ""
        elif in_fence:
            lines[i] = ""
    prose = "\n".join(lines)
    count = 0
    for span in CODE_SPAN_RE.finditer(prose):
        for name in REPRO_NAME_RE.findall(span.group(1)):
            count += 1
            why = unresolved(name)
            if why:
                lineno = prose.count("\n", 0, span.start()) + 1
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: `{name}` does not "
                    f"resolve ({why})"
                )
    return count


def check_script_paths(path: Path, text: str, errors: List[str]) -> None:
    """Every script path named in ``text`` must exist in the repo."""
    for m in SCRIPT_PATH_RE.finditer(text):
        if not (REPO / m.group(0)).is_file():
            lineno = text.count("\n", 0, m.start()) + 1
            errors.append(
                f"{path.relative_to(REPO)}:{lineno}: script {m.group(0)} "
                f"does not exist"
            )


def public_modules() -> Dict[str, Path]:
    """Dotted name -> path for every module under ``src/repro``."""
    out: Dict[str, Path] = {}
    for py in sorted((SRC / "repro").rglob("*.py")):
        rel = py.relative_to(SRC)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]  # the package itself
        if not parts or any(
            p.startswith("_") and p != "__main__" for p in parts
        ):
            continue
        out[".".join(parts)] = py
    return out


def check_api_coverage(errors: List[str]) -> int:
    api_text = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
    modules = public_modules()
    for dotted in sorted(modules):
        if dotted == "repro":
            continue
        if dotted not in api_text:
            errors.append(f"docs/api.md: module {dotted} is not documented")
    return len(modules)


def main() -> int:
    sys.path.insert(0, str(SRC))
    errors: List[str] = []
    slug_cache: Dict[Path, set] = {}
    n_names = n_imports = 0
    for path in CHECKED_FILES:
        if not path.exists():
            errors.append(f"missing checked file: {path.relative_to(REPO)}")
            continue
        text = path.read_text(encoding="utf-8")
        slug_cache.setdefault(path.resolve(), heading_slugs(text))
        check_links(path.resolve(), text, errors, slug_cache)
        n_imports += check_code_blocks(path, text, errors)
        n_names += check_names(path, text, errors)
        check_script_paths(path, text, errors)
    n_modules = check_api_coverage(errors)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(
        f"check_docs: OK ({len(CHECKED_FILES)} files, "
        f"{n_modules} modules covered by docs/api.md, "
        f"{n_names} repro names and {n_imports} block imports resolved)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
