#!/usr/bin/env python3
"""ACIC-specific lint gate.

Project rules that generic tooling (clang-tidy, compiler warnings) cannot
express, enforced over `src/acic`:

  raw-mutex        Raw std synchronisation primitives (std::mutex,
                   std::lock_guard, std::unique_lock, std::shared_mutex,
                   std::condition_variable, ...) are banned outside
                   src/acic/common/mutex.{hpp,cpp}.  Everything else must
                   use the annotated acic::Mutex layer so the Clang
                   thread-safety analysis sees every lock in the process.
                   (std::once_flag / std::call_once stay legal: they carry
                   no lock contract.)

  check-side-effect
                   The condition of ACIC_CHECK / ACIC_CHECK_MSG /
                   ACIC_EXPECTS / ACIC_ENSURES / ACIC_DCHECK /
                   ACIC_DCHECK_MSG must be side-effect free: no ++/--, no
                   assignment.  ACIC_DCHECK compiles away in release
                   builds, so a side effect in one changes behaviour
                   between build modes; the same text rule is applied to
                   the always-on macros for consistency.

  metric-registry  Every obs metric name must be (a) registered from
                   exactly one source site and (b) documented in the
                   README.md metrics table (between the
                   `<!-- metrics-table-begin -->` / `-end -->` markers).
                   Dynamically composed names (literal prefix/suffix +
                   runtime fragment) must have every literal fragment of
                   3+ characters appear in the table, where the runtime
                   part is written as a `<placeholder>`.

  raw-io           Naked ::write / ::pwrite / fsync / fdatasync calls are
                   banned outside src/acic/exec/store.cpp and
                   src/acic/common/ — durability lives in the store, and
                   a stray unsynced write elsewhere silently weakens the
                   crash-safety story.

  tsa-suppression  Every ACIC_NO_THREAD_SAFETY_ANALYSIS use must carry a
                   justification comment on the same line or within the
                   two preceding lines.

  plugin-dispatch  Substrate dispatch belongs to the plugin registry
                   (src/acic/plugin/, DESIGN.md §14): `switch`-style
                   `case FileSystemType::...` branching and direct
                   construction of concrete learners
                   (std::make_unique<CartTree/ForestRegressor/
                   KnnRegressor/LinearRegressor>) are banned outside the
                   plugin layer and the substrates' own homes (the
                   learner implementations in src/acic/ml/ construct
                   themselves inside their registration blocks).
                   Everything else resolves substrates by name through
                   acic::plugin so out-of-tree registrations are picked
                   up everywhere at once.

Engines: the primary engine is textual (comment/string-aware token
scanning) and needs nothing beyond the Python standard library.  When the
`clang.cindex` bindings are importable (`--mode libclang`, or `auto` when
available) the tool additionally parses each translation unit from
`compile_commands.json` to cross-check metric-registration sites at the
AST level; without the bindings `auto` silently stays textual, and
`libclang` says so on stderr and falls back.

Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
Findings print as `path:line: rule-id: message` (compiler-style, so
editors and CI annotate them).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

RULE_RAW_MUTEX = "raw-mutex"
RULE_CHECK_SIDE_EFFECT = "check-side-effect"
RULE_METRIC_REGISTRY = "metric-registry"
RULE_RAW_IO = "raw-io"
RULE_TSA_SUPPRESSION = "tsa-suppression"
RULE_PLUGIN_DISPATCH = "plugin-dispatch"

# Files (relative to the repo root, '/' separators) where raw std
# synchronisation primitives are legal: the annotated wrapper itself.
RAW_MUTEX_ALLOWED = {
    "src/acic/common/mutex.hpp",
    "src/acic/common/mutex.cpp",
}

# Files allowed to issue naked write/fsync syscalls.
RAW_IO_ALLOWED_FILES = {"src/acic/exec/store.cpp"}
RAW_IO_ALLOWED_DIRS = ("src/acic/common/",)

# Directories where substrate dispatch / concrete-learner construction is
# legal: the registry layer itself and the learner implementations (each
# constructs itself inside its ACIC_REGISTER_PLUGIN block).
PLUGIN_DISPATCH_ALLOWED_DIRS = ("src/acic/plugin/", "src/acic/ml/")

# `case FileSystemType::kNfs:`-style enum dispatch — the pattern the
# registry refactor removed; a new one means a substrate axis is being
# rewired around the plugin layer.
FS_SWITCH_DISPATCH = re.compile(r"\bcase\s+(?:cloud\s*::\s*)?FileSystemType\s*::")

# Direct construction of a concrete learner outside its home.
LEARNER_CONSTRUCTION = re.compile(
    r"std\s*::\s*make_unique\s*<\s*(?:acic\s*::\s*)?(?:ml\s*::\s*)?"
    r"(?:CartTree|ForestRegressor|KnnRegressor|LinearRegressor)\b")

BANNED_STD_SYNC = re.compile(
    r"std::(?:recursive_timed_mutex|recursive_mutex|timed_mutex|"
    r"shared_timed_mutex|shared_mutex|mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable_any|condition_variable)\b"
)

CHECK_MACROS = (
    "ACIC_CHECK_MSG",
    "ACIC_CHECK",
    "ACIC_DCHECK_MSG",
    "ACIC_DCHECK",
    "ACIC_EXPECTS",
    "ACIC_ENSURES",
)

RAW_IO_CALL = re.compile(r"(?<![\w.:])(?:::\s*)?(?:fsync|fdatasync|pwrite)\s*\(|::\s*write\s*\(")

METRIC_CALL = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(")

STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines
    and column positions so findings keep accurate line numbers."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw_string
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw_string"
                    out.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                mode = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif mode == "raw_string":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def balanced_argument(text: str, open_paren: int) -> Tuple[str, int]:
    """Return (argument text, end offset) for the parenthesised argument
    list opening at `open_paren` (which must index a '(')."""
    depth = 0
    i = open_paren
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i], i
        i += 1
    return text[open_paren + 1 :], n


def split_top_level(arg: str) -> List[str]:
    parts = []
    depth = 0
    cur = []
    for c in arg:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def condition_has_side_effect(cond: str) -> Optional[str]:
    """Return a description when the (comment/string-stripped) condition
    text contains ++/-- or an assignment; None when clean."""
    if re.search(r"\+\+|--", cond):
        return "increment/decrement"
    i = 0
    n = len(cond)
    while i < n:
        if cond[i] != "=":
            i += 1
            continue
        prev = cond[i - 1] if i > 0 else ""
        nxt = cond[i + 1] if i + 1 < n else ""
        if nxt == "=":  # == comparison
            i += 2
            continue
        if prev in "=!<>":  # !=, <=, >=, (=='s tail is skipped above)
            i += 1
            continue
        if prev in "+-*/%&|^":
            return "compound assignment"
        if prev == "[":  # lambda capture [=]
            i += 1
            continue
        return "assignment"
    return None


def iter_source_files(root: str) -> List[str]:
    files = []
    src = os.path.join(root, "src", "acic")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                files.append(os.path.join(dirpath, name))
    # The slap harness ships alongside the library and holds to the same
    # contracts (no raw mutexes, no unregistered metrics, ...).
    slap = os.path.join(root, "bench", "acic_slap.cpp")
    if os.path.isfile(slap):
        files.append(slap)
    return sorted(files)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def readme_metrics_table(root: str, findings: List[Finding]) -> Optional[str]:
    readme = os.path.join(root, "README.md")
    try:
        with open(readme, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        findings.append(Finding("README.md", 1, RULE_METRIC_REGISTRY,
                                "README.md not found; cannot check the metrics table"))
        return None
    begin = text.find("<!-- metrics-table-begin -->")
    end = text.find("<!-- metrics-table-end -->")
    if begin < 0 or end < 0 or end < begin:
        findings.append(Finding(
            "README.md", 1, RULE_METRIC_REGISTRY,
            "metrics table markers (<!-- metrics-table-begin/-end -->) missing"))
        return None
    return text[begin:end]


def check_file_textual(root: str, path: str, table: Optional[str],
                       registrations: Dict[str, List[Tuple[str, int]]],
                       findings: List[Finding]) -> None:
    relpath = rel(root, path)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    stripped = strip_comments_and_strings(raw)

    # --- raw-mutex ---------------------------------------------------
    if relpath not in RAW_MUTEX_ALLOWED:
        for m in BANNED_STD_SYNC.finditer(stripped):
            findings.append(Finding(
                relpath, line_of(stripped, m.start()), RULE_RAW_MUTEX,
                f"raw {m.group(0)} is banned outside common/mutex.*; "
                "use acic::Mutex / acic::MutexLock (common/mutex.hpp)"))

    # --- check-side-effect -------------------------------------------
    for macro in CHECK_MACROS:
        for m in re.finditer(r"\b" + macro + r"\s*\(", stripped):
            # Skip the macro's own definition (`#define ACIC_CHECK(...)`).
            line_start = stripped.rfind("\n", 0, m.start()) + 1
            if stripped[line_start:m.start()].lstrip().startswith("#"):
                continue
            arg, _end = balanced_argument(stripped, m.end() - 1)
            cond = split_top_level(arg)[0]
            why = condition_has_side_effect(cond)
            if why:
                findings.append(Finding(
                    relpath, line_of(stripped, m.start()),
                    RULE_CHECK_SIDE_EFFECT,
                    f"{macro} condition contains {why}; contract "
                    "conditions must be side-effect free (ACIC_DCHECK "
                    "compiles away in release builds) — hoist loops or "
                    "mutation into a named predicate"))

    # --- metric-registry (collection; verdicts happen in the caller) --
    if relpath not in ("src/acic/obs/metrics.hpp", "src/acic/obs/metrics.cpp"):
        for m in METRIC_CALL.finditer(stripped):
            arg_stripped, _ = balanced_argument(stripped, m.end() - 1)
            # Same span in the raw text still holds the string literals.
            arg_raw = raw[m.end() : m.end() + len(arg_stripped)]
            name_arg_len = len(split_top_level(arg_stripped)[0])
            name_raw = arg_raw[:name_arg_len]
            literals = STRING_LITERAL.findall(name_raw)
            lineno = line_of(stripped, m.start())
            if not literals:
                findings.append(Finding(
                    relpath, lineno, RULE_METRIC_REGISTRY,
                    "metric name has no literal fragment; lint cannot tie "
                    "it to the README metrics table — include at least a "
                    "literal prefix"))
                continue
            whole = re.fullmatch(
                r'\s*(?:std::string\s*\(\s*)?"(?:[^"\\\n]|\\.)*"\s*\)?\s*',
                name_raw)
            if whole and len(literals) == 1:
                registrations.setdefault(literals[0], []).append(
                    (relpath, lineno))
            if table is None:
                continue
            for frag in literals:
                if len(frag) < 3:
                    continue
                if frag not in table:
                    findings.append(Finding(
                        relpath, lineno, RULE_METRIC_REGISTRY,
                        f'metric name fragment "{frag}" is not documented '
                        "in the README.md metrics table"))

    # --- raw-io ------------------------------------------------------
    if relpath not in RAW_IO_ALLOWED_FILES and not relpath.startswith(
            RAW_IO_ALLOWED_DIRS):
        for m in RAW_IO_CALL.finditer(stripped):
            findings.append(Finding(
                relpath, line_of(stripped, m.start()), RULE_RAW_IO,
                f"naked {m.group(0).strip()}...) outside exec/store.cpp "
                "and common/ — durability primitives belong to the store"))

    # --- plugin-dispatch ---------------------------------------------
    if not relpath.startswith(PLUGIN_DISPATCH_ALLOWED_DIRS):
        for m in FS_SWITCH_DISPATCH.finditer(stripped):
            findings.append(Finding(
                relpath, line_of(stripped, m.start()), RULE_PLUGIN_DISPATCH,
                "switch dispatch on FileSystemType outside the plugin "
                "layer; resolve the substrate through acic::plugin"
                "::filesystem_for / filesystem_named (plugin/substrates"
                ".hpp) so registered filesystems are honoured everywhere"))
        for m in LEARNER_CONSTRUCTION.finditer(stripped):
            findings.append(Finding(
                relpath, line_of(stripped, m.start()), RULE_PLUGIN_DISPATCH,
                "direct concrete-learner construction outside src/acic/ml/; "
                "use acic::plugin::make_learner(name) so the learner "
                "registry stays the single construction path"))

    # --- tsa-suppression ---------------------------------------------
    if relpath != "src/acic/common/thread_annotations.hpp":
        lines = raw.splitlines()
        for idx, line in enumerate(lines):
            if "ACIC_NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            window = lines[max(0, idx - 2) : idx + 1]
            if not any("//" in w for w in window):
                findings.append(Finding(
                    relpath, idx + 1, RULE_TSA_SUPPRESSION,
                    "ACIC_NO_THREAD_SAFETY_ANALYSIS needs a justification "
                    "comment on the same line or the two lines above"))


def libclang_crosscheck(root: str, compdb_dir: str,
                        registrations: Dict[str, List[Tuple[str, int]]],
                        findings: List[Finding]) -> bool:
    """AST-level confirmation of metric-registration sites.  Returns True
    when the libclang pass actually ran."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return False
    try:
        index = cindex.Index.create()
        db = cindex.CompilationDatabase.fromDirectory(compdb_dir)
    except Exception as err:  # pragma: no cover - environment-specific
        print(f"acic_lint: libclang unavailable ({err}); "
              "textual engine only", file=sys.stderr)
        return False
    ast_names: Dict[str, int] = {}
    for path in iter_source_files(root):
        if not path.endswith(".cpp"):
            continue
        cmds = db.getCompileCommands(path)
        if not cmds:
            continue
        args = [a for a in list(cmds[0].arguments)[1:] if a != path]
        tu = index.parse(path, args=args)
        for cur in tu.cursor.walk_preorder():
            if cur.kind != cindex.CursorKind.CALL_EXPR:
                continue
            if cur.spelling not in ("counter", "gauge", "histogram"):
                continue
            for child in cur.walk_preorder():
                if child.kind == cindex.CursorKind.STRING_LITERAL:
                    name = child.spelling.strip('"')
                    ast_names[name] = ast_names.get(name, 0) + 1
                    break
    for name in registrations:
        if name not in ast_names:
            print(f"acic_lint: note: textual site for \"{name}\" not "
                  "confirmed by libclang (macro or template context)",
                  file=sys.stderr)
    return True


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="ACIC-specific lint gate (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up "
                             "from this script)")
    parser.add_argument("--compdb", default=None,
                        help="directory holding compile_commands.json "
                             "(used by the libclang engine)")
    parser.add_argument("--mode", choices=("auto", "text", "libclang"),
                        default="auto",
                        help="auto: textual plus libclang when the "
                             "bindings import; text: textual only; "
                             "libclang: require/attempt the AST pass")
    args = parser.parse_args(argv)

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(os.path.join(root, "src", "acic")):
        print(f"acic_lint: {root} does not look like the ACIC repo "
              "(no src/acic)", file=sys.stderr)
        return 2

    findings: List[Finding] = []
    table = readme_metrics_table(root, findings)
    registrations: Dict[str, List[Tuple[str, int]]] = {}
    for path in iter_source_files(root):
        check_file_textual(root, path, table, registrations, findings)

    for name, sites in sorted(registrations.items()):
        distinct = sorted(set(sites))
        if len(distinct) > 1:
            first = distinct[0]
            for where in distinct[1:]:
                findings.append(Finding(
                    where[0], where[1], RULE_METRIC_REGISTRY,
                    f'metric "{name}" is registered at more than one '
                    f"source site (also {first[0]}:{first[1]}); hoist the "
                    "registration to a single owner"))

    if args.mode in ("auto", "libclang"):
        compdb = args.compdb or os.path.join(root, "build")
        ran = False
        if os.path.exists(os.path.join(compdb, "compile_commands.json")):
            ran = libclang_crosscheck(root, compdb, registrations, findings)
        if not ran and args.mode == "libclang":
            print("acic_lint: libclang engine requested but python "
                  "clang bindings / compile_commands.json are missing; "
                  "ran the textual engine only", file=sys.stderr)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"acic_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
