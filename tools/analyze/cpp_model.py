"""Shared parsing core for hotman_analyze: a preprocessor-aware model of
the C++ tree built with nothing but the standard library.

This is deliberately not a compiler front end. The repo's style (clang-
formatted, no exotic macros in function position, one class per header)
makes a conservative token-level model reliable enough for whole-program
passes, and keeping the suite dependency-free (no libclang) means it runs
anywhere `python3` does, with nothing to install.

The model provides:

* `strip_source(text)` — comments, string/char literals, raw strings and
  preprocessor directives blanked in place (newlines preserved), so every
  downstream regex sees code only and offsets still map to line numbers;
* `SourceFile` — per-file includes (harvested before blanking, so the
  quoted paths survive), the stripped code, and extracted functions;
* `Function` — qualified name, signature text (annotations included),
  body text and line span, plus the call sites found in the body;
* `Tree` — every SourceFile under the scanned dirs, an include graph with
  transitive closure, and a call-site resolver that only resolves a call to
  definitions whose header is visible through the caller's include
  closure (cuts name-collision edges that a flat name index would add).

Parsing strategy: tokenize the stripped code, then walk it with a small
scope parser that tracks namespace/class/function nesting. A function
definition is an identifier (possibly `A::B`-qualified) followed by a
balanced parameter list, an optional trailer (const/noexcept/override/
HOTMAN_* annotation macros/-> return type), an optional constructor
initializer list, and a `{`. Anything the parser does not understand it
skips conservatively — unknown constructs can hide code from the passes
but never crash them.
"""

import pathlib
import re

# --- source stripping --------------------------------------------------------

_RAW_OPEN = re.compile(r'R"([^()\\ \t\n]{0,16})\(')


def _in_pp_number(text, i):
    """True when the `'` at text[i] is a C++14 digit separator (`1'000`):
    the token it continues starts with a digit. After an identifier
    (`u8'x'`, `L'x'`) or anything else it opens a char literal."""
    k = i
    while k > 0 and (text[k - 1].isalnum() or text[k - 1] in "_.'"):
        k -= 1
    return k < i and text[k].isdigit()


def strip_source(text):
    """Returns (stripped, directives) where `stripped` has the same length
    and newline positions as `text` with comments, string literals, char
    literals and preprocessor directives blanked, and `directives` is a
    list of (lineno, directive_text) for every preprocessor directive
    (continuation lines folded in)."""
    out = list(text)
    directives = []
    i, n = 0, len(text)
    line = 1
    at_line_start = True  # only whitespace seen since last newline

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            at_line_start = True
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            line += text.count("\n", i, j)
            blank(i, j)
            i = j
            at_line_start = False
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: record (folding \-continuations),
            # then blank it so macro bodies never confuse the parser.
            start, start_line = i, line
            j = i
            while j < n:
                eol = text.find("\n", j)
                eol = n if eol < 0 else eol
                if text[eol - 1: eol] == "\\":
                    line += 1
                    j = eol + 1
                    continue
                j = eol
                break
            directive = " ".join(
                text[start:j].replace("\\\n", " ").split())
            directives.append((start_line, directive))
            blank(start, j)
            i = j
            continue
        if c == "R" and text.startswith('R"', i) and (
                i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            m = _RAW_OPEN.match(text, i)
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, m.end())
                j = n if j < 0 else j + len(close)
                line += text.count("\n", i, j)
                blank(i, j)
                i = j
                at_line_start = False
                continue
        if c == '"' or (c == "'" and not _in_pp_number(text, i)):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i, j)
            i = j
            at_line_start = False
            continue
        if not c.isspace():
            at_line_start = False
        i += 1
    return "".join(out), directives


_INCLUDE_DIRECTIVE = re.compile(r'#\s*include\s*["<]([^">]+)[">]')

# --- tokens ------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|[0-9][\w.']*|\S")

_KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "alignof", "alignas", "decltype", "static_assert", "noexcept", "new",
    "delete", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "typeid", "co_await", "co_return", "co_yield", "assert",
    "defined",
}

_SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "enum"}


class Token:
    __slots__ = ("text", "pos", "line")

    def __init__(self, text, pos, line):
        self.text, self.pos, self.line = text, pos, line

    def __repr__(self):
        return f"Token({self.text!r}@{self.line})"


def tokenize(code):
    tokens = []
    line = 1
    last = 0
    for m in _TOKEN.finditer(code):
        line += code.count("\n", last, m.start())
        last = m.start()
        tokens.append(Token(m.group(0), m.start(), line))
    return tokens


# --- functions ---------------------------------------------------------------

_CALL = re.compile(r"((?:\w+\s*::\s*)*~?[A-Za-z_]\w*)\s*\(")


class Function:
    """One function (or method) definition."""

    __slots__ = ("name", "qualname", "class_name", "file", "start_line",
                 "end_line", "signature", "body", "body_line", "calls")

    def __init__(self, name, qualname, class_name, file, start_line,
                 end_line, signature, body, body_line):
        self.name = name              # simple name ("Put", "~LogMessage")
        self.qualname = qualname      # "hotman::cluster::Cluster::Put"
        self.class_name = class_name  # innermost class scope or ""
        self.file = file              # repo-relative posix path
        self.start_line = start_line  # signature start
        self.end_line = end_line      # closing brace
        self.signature = signature    # text between decl start and body {
        self.body = body              # stripped body text (incl. braces)
        self.body_line = body_line    # line of the opening brace
        self.calls = []               # [(simple_name, line)]

    def __repr__(self):
        return f"Function({self.qualname} {self.file}:{self.start_line})"


def _match_group(tokens, i, open_tok, close_tok):
    """tokens[i] is `open_tok`; returns index just past the matching
    `close_tok` (len(tokens) when unbalanced)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def _skip_template_args(tokens, i):
    """tokens[i] is '<'; best-effort skip to just past the matching '>'.
    Treats ';' or '{' as evidence this was a comparison, returning i."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", ")"):
            return i
        j += 1
    return i


def extract_functions(code, rel_path):
    """Parses stripped `code` and returns the function definitions."""
    tokens = tokenize(code)
    functions = []
    _parse_scope(tokens, 0, len(tokens), [], code, rel_path, functions)
    for fn in functions:
        _extract_calls(fn)
    return functions


def _parse_scope(tokens, i, end, scopes, code, rel_path, out):
    """Walks tokens[i:end] at one brace level, recursing into namespace
    and class scopes and recording function definitions."""
    decl_start = i  # first token of the declaration being accumulated
    while i < end:
        t = tokens[i].text
        if t in (";", ","):
            i += 1
            decl_start = i
            continue
        if t == "template" and i + 1 < end and tokens[i + 1].text == "<":
            i = _skip_template_args(tokens, i + 1)
            continue
        if t == "namespace":
            j = i + 1
            names = []
            while j < end and (tokens[j].text == "::"
                               or re.match(r"[A-Za-z_]", tokens[j].text)):
                if tokens[j].text != "::":
                    names.append(tokens[j].text)
                j += 1
            if j < end and tokens[j].text == "{":
                close = _match_group(tokens, j, "{", "}")
                _parse_scope(tokens, j + 1, close - 1,
                             scopes + [("namespace", n) for n in names],
                             code, rel_path, out)
                i = close
            else:  # alias or using-directive: skip the statement
                while j < end and tokens[j].text != ";":
                    j += 1
                i = j + 1
            decl_start = i
            continue
        if t in ("class", "struct", "union"):
            # Find the class body '{' (or ';' for a forward declaration),
            # remembering the last identifier before bases/body as the name.
            j = i + 1
            name = ""
            while j < end and tokens[j].text not in ("{", ";", "("):
                if re.match(r"[A-Za-z_]\w*$", tokens[j].text) and \
                        tokens[j].text not in ("final", "public", "private",
                                               "protected", "virtual"):
                    name = tokens[j].text
                if tokens[j].text == ":":
                    break
                j += 1
            while j < end and tokens[j].text not in ("{", ";"):
                j += 1
            if j < end and tokens[j].text == "{":
                close = _match_group(tokens, j, "{", "}")
                _parse_scope(tokens, j + 1, close - 1,
                             scopes + [("class", name)], code, rel_path, out)
                i = close
            else:
                i = j + 1
            decl_start = i
            continue
        if t == "enum":
            while i < end and tokens[i].text not in ("{", ";"):
                i += 1
            if i < end and tokens[i].text == "{":
                i = _match_group(tokens, i, "{", "}")
            decl_start = i
            continue
        if t == "(":
            close = _match_group(tokens, i, "(", ")")
            fn_body = _try_function(tokens, decl_start, i, close, end,
                                    scopes, code, rel_path, out)
            if fn_body is not None:
                i = fn_body
                decl_start = i
                continue
            i = close
            continue
        if t == "{":
            # Brace without a parameter list: aggregate initializer or an
            # unrecognized construct; skip it wholesale.
            i = _match_group(tokens, i, "{", "}")
            decl_start = i
            continue
        if t == "=":
            # Variable initializer (or `= default`): skip the statement at
            # this level, honoring nested groups.
            while i < end and tokens[i].text != ";":
                if tokens[i].text == "(":
                    i = _match_group(tokens, i, "(", ")")
                elif tokens[i].text == "{":
                    i = _match_group(tokens, i, "{", "}")
                else:
                    i += 1
            continue
        i += 1


_TRAILER_WORDS = {"const", "noexcept", "override", "final", "mutable",
                  "volatile", "try", "&", "&&"}


def _try_function(tokens, decl_start, open_paren, after_params, end,
                  scopes, code, rel_path, out):
    """tokens[open_paren] is '(' with matching ')' at after_params-1. If
    this is a function definition, records it and returns the token index
    just past the body; otherwise returns None."""
    # The token(s) immediately before '(' must form a (possibly qualified)
    # identifier that is not a control keyword.
    k = open_paren - 1
    if k < decl_start or not re.match(r"[A-Za-z_]\w*$|~$", tokens[k].text):
        return None
    if tokens[k].text in _KEYWORDS_NOT_CALLS or \
            tokens[k].text in _SCOPE_KEYWORDS:
        return None
    name_parts = [tokens[k].text]
    k -= 1
    if k >= decl_start and tokens[k].text == "~":
        name_parts.insert(0, "~")
        k -= 1
    quals = []
    while k - 1 >= decl_start and tokens[k].text == "::" and \
            re.match(r"[A-Za-z_]\w*$", tokens[k - 1].text):
        quals.insert(0, tokens[k - 1].text)
        k -= 2
    name = "".join(name_parts)

    # Scan the trailer after the parameter list.
    i = after_params
    while i < end:
        t = tokens[i].text
        if t in _TRAILER_WORDS:
            i += 1
            continue
        if re.match(r"HOTMAN_\w+$", t) or t == "__attribute__":
            i += 1
            if i < end and tokens[i].text == "(":
                i = _match_group(tokens, i, "(", ")")
            continue
        if t == "->":  # trailing return type
            i += 1
            while i < end and tokens[i].text not in ("{", ";"):
                if tokens[i].text == "<":
                    i = _skip_template_args(tokens, i)
                    continue
                if tokens[i].text == "(":
                    i = _match_group(tokens, i, "(", ")")
                    continue
                i += 1
            continue
        if t == ":":  # constructor initializer list
            i += 1
            while i < end and tokens[i].text != "{":
                if tokens[i].text == "(":
                    i = _match_group(tokens, i, "(", ")")
                elif tokens[i].text == "<":
                    j = _skip_template_args(tokens, i)
                    i = j if j > i else i + 1
                elif tokens[i].text == "{":
                    i = _match_group(tokens, i, "{", "}")
                elif tokens[i].text == ";":
                    return None  # lost: bail out conservatively
                else:
                    i += 1
            continue
        break
    if i >= end or tokens[i].text != "{":
        return None

    body_close = _match_group(tokens, i, "{", "}")
    body_start_tok = tokens[i]
    last_tok = tokens[body_close - 1] if body_close - 1 < end else tokens[-1]

    class_name = quals[-1] if quals else ""
    if not class_name:
        for kind, scope_name in reversed(scopes):
            if kind == "class":
                class_name = scope_name
                break
    qual_prefix = [n for _, n in scopes] + quals
    qualname = "::".join(qual_prefix + [name]) if qual_prefix else name

    sig_start = tokens[decl_start].pos if decl_start < len(tokens) else 0
    fn = Function(
        name=name,
        qualname=qualname,
        class_name=class_name,
        file=rel_path,
        start_line=tokens[decl_start].line,
        end_line=last_tok.line,
        signature=code[sig_start:body_start_tok.pos],
        body=code[body_start_tok.pos:last_tok.pos + 1],
        body_line=body_start_tok.line,
    )
    out.append(fn)
    return body_close


def _extract_calls(fn):
    """Populates fn.calls with (simple_name, line) from the body text."""
    base = fn.body_line
    for m in _CALL.finditer(fn.body):
        name = re.sub(r"\s+", "", m.group(1)).split("::")[-1]
        if name in _KEYWORDS_NOT_CALLS or name in _SCOPE_KEYWORDS:
            continue
        line = base + fn.body.count("\n", 0, m.start())
        fn.calls.append((name, line))


# --- files and tree ----------------------------------------------------------

class SourceFile:
    __slots__ = ("rel", "layer", "raw_lines", "code", "includes",
                 "functions", "directives")

    def __init__(self, rel, text):
        self.rel = rel
        parts = pathlib.PurePosixPath(rel).parts
        self.layer = parts[1] if len(parts) >= 2 and parts[0] == "src" else None
        self.raw_lines = text.splitlines()
        self.code, self.directives = strip_source(text)
        self.includes = []
        for lineno, directive in self.directives:
            m = _INCLUDE_DIRECTIVE.match(directive)
            if m:
                self.includes.append((lineno, m.group(1)))
        # Only src/ functions: every whole-program pass skips the other dirs,
        # and a src/ call never resolves into them.
        self.functions = (extract_functions(self.code, rel)
                          if self.layer is not None else [])

    def code_lines(self):
        return self.code.splitlines()


class Tree:
    """Every C++ source under `subdirs` of a repo root, plus derived graphs."""

    def __init__(self, root, subdirs=("src",)):
        self.root = pathlib.Path(root)
        self.files = {}
        for sub in subdirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in (".h", ".cc", ".cpp"):
                    continue
                rel = path.relative_to(self.root).as_posix()
                self.files[rel] = SourceFile(
                    rel, path.read_text(encoding="utf-8"))
        self._closure = {}
        self._build_include_graph()
        self._build_function_index()

    # include graph ----------------------------------------------------------
    def _build_include_graph(self):
        self.include_graph = {}
        for rel, sf in self.files.items():
            edges = []
            for _, inc in sf.includes:
                target = "src/" + inc
                if target in self.files:
                    edges.append(target)
            self.include_graph[rel] = edges

    def include_closure(self, rel):
        """All files transitively included by `rel` (headers only, since
        only headers appear as include targets), memoized."""
        if rel in self._closure:
            return self._closure[rel]
        seen = set()
        stack = [rel]
        while stack:
            cur = stack.pop()
            for nxt in self.include_graph.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        self._closure[rel] = seen
        return seen

    # function index / call resolution ---------------------------------------
    def _build_function_index(self):
        self.functions_by_name = {}
        for sf in self.files.values():
            for fn in sf.functions:
                self.functions_by_name.setdefault(fn.name, []).append(fn)

    def _visible(self, caller_file, def_file):
        """A definition in `def_file` is callable from `caller_file` when
        the definition's file — or its same-stem header — is in the
        caller's include closure (or they share a file/stem)."""
        if caller_file == def_file:
            return True
        closure = self.include_closure(caller_file)
        if def_file in closure:
            return True
        p = pathlib.PurePosixPath(def_file)
        header = p.with_suffix(".h").as_posix()
        return header == caller_file or header in closure

    def resolve_call(self, caller_file, name):
        """Returns the Function definitions a call of `name` from
        `caller_file` may reach, restricted by include visibility."""
        return [fn for fn in self.functions_by_name.get(name, ())
                if self._visible(caller_file, fn.file)]
