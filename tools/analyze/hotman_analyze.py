#!/usr/bin/env python3
"""hotman_analyze: the repo's static analysis, whole-program and per line.

Six passes over one C++ model (cpp_model.py) of src/, tests/, bench/ and
examples/. Run from anywhere:

    python3 tools/analyze/hotman_analyze.py [--root REPO] [--json OUT]

Registered as the `hotman_analyze` ctest (label: lint), so `ctest -L lint`
enforces it. The passes (see DESIGN.md "Static analysis" for the full
inventory and the real bugs that motivated each):

1. transitive-blocking — the event-loop layers (EVENT_LOOP_DIRS) must not
   block, lock, sleep or read wall-clock time *through any call chain*,
   not just directly. The pass computes the call-graph closure of every
   event-loop function and flags the boundary call whose closure (through
   common/, bson/, docstore/, ...) reaches a blocking primitive. Calls
   through the Executor/Transport/Clock seam (Send, ScheduleTimer,
   NowMicros, ...) are not chased: the seam resolves to the simulator in
   replay runs, and the transport-boundary rule (pass 6) polices that
   resolution.

2. lock-order-cycle — harvests HOTMAN_ACQUIRED_BEFORE / _AFTER
   annotations on mutex members plus the lock nesting actually observed
   in function bodies (MutexLock scopes, manual Lock/Unlock,
   HOTMAN_REQUIRES entry sets) into a lock-order graph; any cycle is a
   potential deadlock. Self-edges (re-acquiring a held exclusive lock)
   are reported as immediate self-deadlocks.

3. callback-self-capture — a closure that owns itself never dies: the PR 4
   LeakSanitizer bug class (a retry/pump closure stored in a shared_ptr
   that captures that same shared_ptr), generalized to lambdas capturing
   shared_from_this() stored into members of the same object.

4. determinism — seeded-replay layers (event-loop dirs + workload/) must
   not let hash-table iteration order or heap addresses leak into
   replayed state: flags range-for over unordered containers,
   pointer-keyed ordered/unordered containers, and pointer-identity
   hashing/casting.

5. shard-affinity — functions declared HOTMAN_SHARD_AFFINE touch state
   owned by one shard of a sharded component (net::ShardedExecutor, PR 8)
   and must only run in that shard's execution context. The compiler
   cannot check this (the capability is a thread identity, not a lock),
   so the pass flags any call into an affine function from non-affine
   code unless the call site sits inside a routing closure — an argument
   of Post / PostSync / RunOnShard / ScheduleTimer, which is exactly the
   mailbox hop the contract requires.

6. line rules — what one file shows without a call graph: layering, the
   transport boundary, blocking primitives named in event-loop code, naked
   `new`, thread detach and exclusive locks on docstore read paths.

A finding line may opt out with `// NOLINT(hotman-<rule>) <reason>`; it
silences that rule only, and a NOLINT(hotman-*) without a reason is a
`hotman-nolint` finding itself. Architectural accepts of the
whole-program passes live in tools/analyze/baseline.json keyed by content
fingerprint (no line numbers, so baselines survive unrelated edits); a
per-line finding is never baselined. The tool fails only on findings that
are neither NOLINT-suppressed nor baselined, and warns on stale baseline
entries.
"""

import argparse
import hashlib
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import cpp_model  # noqa: E402

SCAN_DIRS = ("src", "tests", "bench", "examples")

# Deterministic single-threaded event-loop layers: experiments must replay
# bit-identically from a seed, so these may not create threads, take
# locks, block, or read wall-clock time. net/ is deliberately absent: the
# TCP transport owns real threads, locks and sockets; the discipline it
# must honor instead is "handlers fire on one loop thread", which the
# transport-boundary rule keeps at arm's length from the event-loop layers.
EVENT_LOOP_DIRS = {"sim", "cluster", "gossip", "chaos", "rebalance"}

# workload/ drives the seeded experiments and renders History output, so
# its iteration order is replay state too even though it may use threads.
REPLAY_DIRS = EVENT_LOOP_DIRS | {"workload"}

# Virtual calls through the Executor/Transport/Clock seam (PR 4): in
# replay runs these resolve to the simulator, in hotmand to the real
# transport. Chasing every override would flag the deliberate real-time
# implementations, so the closure stops here; the hotman-transport-boundary
# rule polices which implementation an event-loop layer can see.
# PostSync is the sharded-executor side of the same seam (PR 8): inline in
# the deterministic runtime, a deliberate blocking rendezvous on the
# threaded one (setup / stats merges / teardown only — never the hot path).
SEAM_CALLS = {
    "Send", "ScheduleTimer", "CancelTimer", "NowMicros",
    "RegisterEndpoint", "UnregisterEndpoint", "Post", "PostSync",
}

# Function-like macros that hide a call the tokenizer cannot see.
# HOTMAN_LOG constructs a LogMessage whose destructor emits the line.
MACRO_CALLS = {
    "HOTMAN_LOG": ("LogMessage", "~LogMessage"),
}

NOLINT_RE = re.compile(r"//\s*NOLINT\(hotman-([a-z-]+)\)(.*)")

_WEAK_NAME = re.compile(r"weak", re.IGNORECASE)

# Blocking-primitive detectors, category -> list of regexes applied to a
# function's stripped body. A match makes the function a "sink" for the
# transitive pass.
_PRIMITIVE_PATTERNS = {
    "no-mutex": [
        re.compile(r"\b(?:Writer|Reader)?MutexLock\s+\w+\s*\("),
        re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
        re.compile(r"\bpthread_mutex_lock\b"),
    ],
    "no-sleep": [
        re.compile(r"\bsleep_for\b|\bsleep_until\b|\b(?:u|nano)?sleep\s*\("),
    ],
    "no-blocking-io": [
        re.compile(r"\b(?:fopen|fread|fwrite|fprintf|vfprintf|fputs|fgets|"
                   r"fflush|fsync|fdatasync)\s*\("),
        re.compile(r"\bstd::[io]?fstream\b"),
        re.compile(r"\b(?:select|poll|epoll_wait|accept4?|recv|recvmsg|"
                   r"sendmsg|connect)\s*\("),
        re.compile(r"::(?:read|write|send)\s*\("),
    ],
    "no-wall-clock": [
        re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock\b"),
        re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
        re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    ],
    "no-thread": [
        re.compile(r"\bstd::j?thread\b|\bpthread_create\b"),
    ],
    "no-blocking-sync": [
        re.compile(r"\bstd::condition_variable\b"
                   r"|\bstd::(?:future|promise|latch|barrier)\b"),
    ],
}

# `<anything>.lock()` needs care: weak_ptr::lock() is how the PR 4 fix
# pins closures and must not read as a mutex acquisition.
_DOT_LOCK = re.compile(r"(\w+)\s*(?:\.|->)\s*(lock|lock_shared|Lock|LockShared)\s*\(\s*\)")

# A function that aborts is a fatal diagnostic path: the stderr write (or
# whatever else) on the way to std::abort() is program death, not an
# event-loop stall, so its own primitives are not transitive sinks.
_FATAL = re.compile(r"\b(?:std::)?(?:abort|_Exit|quick_exit)\s*\("
                    r"|__builtin_trap\s*\(")


class Finding:
    def __init__(self, rule, file, line, function, message, fp_extra=""):
        self.rule = rule
        self.file = file
        self.line = line
        self.function = function
        self.message = message
        key = "|".join((rule, file, function, fp_extra or message))
        self.fingerprint = hashlib.sha1(key.encode()).hexdigest()[:12]
        self.baselined = False

    def __str__(self):
        return (f"{self.file}:{self.line}: [hotman-{self.rule}] "
                f"{self.message}")

    def as_json(self):
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }


def _line_of(body_line, body, offset):
    return body_line + body.count("\n", 0, offset)


# --- pass 1: transitive event-loop discipline --------------------------------

def _primitive_hits(fn):
    """Categories of blocking primitives `fn` uses directly."""
    hits = {}
    if _FATAL.search(fn.body):
        return hits
    for category, patterns in _PRIMITIVE_PATTERNS.items():
        for pat in patterns:
            m = pat.search(fn.body)
            if m:
                hits[category] = (m.group(0).strip(),
                                  _line_of(fn.body_line, fn.body, m.start()))
                break
    if "no-mutex" not in hits:
        for m in _DOT_LOCK.finditer(fn.body):
            if not _WEAK_NAME.search(m.group(1)):
                hits["no-mutex"] = (m.group(0).strip(),
                                    _line_of(fn.body_line, fn.body, m.start()))
                break
    return hits


def _resolve(tree, caller_file, name):
    targets = list(tree.resolve_call(caller_file, name))
    for mapped in MACRO_CALLS.get(name, ()):
        targets.extend(tree.resolve_call(caller_file, mapped))
    return targets


def _closure_sinks(tree, fn, memo, stack, depth=0):
    """Maps category -> (sink_fn, what, sink_line, path) reachable from
    `fn` through non-event-loop layers. Memoized; cycles break via
    `stack` (in-progress functions contribute nothing, which can only
    under-report inside recursion cycles)."""
    key = (fn.file, fn.qualname, fn.start_line)
    if key in memo:
        return memo[key]
    if key in stack or depth > 24:
        return {}
    if _FATAL.search(fn.body):
        # Fatal diagnostic path (see _primitive_hits): whatever it calls on
        # the way to abort() is program death, not an event-loop stall.
        memo[key] = {}
        return {}
    stack.add(key)
    sinks = {}
    for category, (what, line) in _primitive_hits(fn).items():
        sinks[category] = (fn, what, line, [fn.qualname])
    for name, _ in fn.calls:
        if name in SEAM_CALLS:
            continue
        for target in _resolve(tree, fn.file, name):
            tl = tree.files[target.file].layer
            if tl in EVENT_LOOP_DIRS:
                continue  # callbacks up into the loop layers: not a sink
            for category, (sfn, what, sline, path) in _closure_sinks(
                    tree, target, memo, stack, depth + 1).items():
                if category not in sinks:
                    sinks[category] = (sfn, what, sline,
                                       [fn.qualname] + path)
    stack.discard(key)
    memo[key] = sinks
    return sinks


def pass_transitive_blocking(tree):
    findings = []
    memo, reported = {}, set()
    for sf in tree.files.values():
        if sf.layer not in EVENT_LOOP_DIRS:
            continue
        for fn in sf.functions:
            for name, line in fn.calls:
                if name in SEAM_CALLS:
                    continue
                for target in _resolve(tree, fn.file, name):
                    tlayer = tree.files[target.file].layer
                    if tlayer in EVENT_LOOP_DIRS:
                        continue  # same-discipline helper: it is a root too
                    sinks = _closure_sinks(tree, target, memo, set())
                    for category, (sfn, what, sline, path) in sorted(
                            sinks.items()):
                        dedup = (fn.file, line, category, sfn.qualname)
                        if dedup in reported:
                            continue
                        reported.add(dedup)
                        route = " -> ".join([fn.qualname] + path)
                        findings.append(Finding(
                            "transitive-blocking", fn.file, line, fn.qualname,
                            f"event-loop code reaches `{what}` "
                            f"({category}) at {sfn.file}:{sline} via "
                            f"{route}",
                            fp_extra=f"{name}|{category}|{sfn.qualname}"))
    return findings


# --- pass 2: lock-order cycles -----------------------------------------------

_MUTEX_DECL = re.compile(
    r"\b(?:hotman::)?(?:Shared)?Mutex\s+(\w+)\s+((?:HOTMAN_\w+\s*\([^)]*\)\s*)+);")
_ACQ_ANNOT = re.compile(r"HOTMAN_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
_RAII_LOCK = re.compile(
    r"\b(?:Writer|Reader)?MutexLock\s+\w+\s*\(\s*&?\s*([\w.>-]+?)\s*\)")
_MANUAL_LOCK = re.compile(r"([\w.>-]+?)\s*(?:\.|->)\s*Lock(?:Shared)?\s*\(\s*\)")
_MANUAL_UNLOCK = re.compile(r"([\w.>-]+?)\s*(?:\.|->)\s*Unlock(?:Shared)?\s*\(\s*\)")
_REQUIRES = re.compile(r"HOTMAN_REQUIRES(?:_SHARED)?\s*\(([^)]*)\)")


def _lock_key(file, name):
    """Lock identity: (file stem, member name). Coarse — one lockable
    class per file is the repo norm — but stable across renames of
    locals and across the .h/.cc split."""
    stem = pathlib.PurePosixPath(file).stem
    base = name.replace("->", ".").split(".")[-1]
    return f"{stem}::{base}"


def _body_lock_events(fn):
    """Yields (kind, lock_name, depth, line) for acquisitions/releases in
    body order, where depth is the brace depth at the event."""
    events = []
    for m in _RAII_LOCK.finditer(fn.body):
        events.append((m.start(), "raii", m.group(1),
                       _line_of(fn.body_line, fn.body, m.start())))
    for m in _MANUAL_LOCK.finditer(fn.body):
        name = m.group(1)
        if _WEAK_NAME.search(name):
            continue
        events.append((m.start(), "lock", name,
                       _line_of(fn.body_line, fn.body, m.start())))
    for m in _MANUAL_UNLOCK.finditer(fn.body):
        events.append((m.start(), "unlock", m.group(1),
                       _line_of(fn.body_line, fn.body, m.start())))
    events.sort()
    # Interleave with brace depth.
    out = []
    depth = 0
    ei = 0
    for pos, ch in enumerate(fn.body):
        while ei < len(events) and events[ei][0] == pos:
            _, kind, name, line = events[ei]
            out.append((kind, name, depth, line))
            ei += 1
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            out.append(("scope-close", None, depth, None))
    return out


def _collect_lock_graph(tree):
    """Returns (edges, mutex_files) where edges maps (a, b) -> list of
    provenance strings meaning `a` is acquired before `b`."""
    edges = {}

    def add_edge(a, b, why):
        edges.setdefault((a, b), []).append(why)

    for sf in tree.files.values():
        if sf.layer is None:
            continue
        # Declared order: annotations on the member declaration.
        for m in _MUTEX_DECL.finditer(sf.code):
            name, annots = m.group(1), m.group(2)
            line = 1 + sf.code.count("\n", 0, m.start())
            me = _lock_key(sf.rel, name)
            for am in _ACQ_ANNOT.finditer(annots):
                direction, args = am.group(1), am.group(2)
                for other in [a.strip() for a in args.split(",") if a.strip()]:
                    them = _lock_key(sf.rel, other)
                    if direction == "BEFORE":
                        add_edge(me, them, f"declared at {sf.rel}:{line}")
                    else:
                        add_edge(them, me, f"declared at {sf.rel}:{line}")
        # Observed order: nesting inside function bodies.
        for fn in sf.functions:
            entry_held = []
            for rm in _REQUIRES.finditer(fn.signature):
                for name in [a.strip() for a in rm.group(1).split(",")
                             if a.strip()]:
                    entry_held.append(_lock_key(sf.rel, name))
            held = [(k, -1, "entry") for k in entry_held]
            for kind, name, depth, line in _body_lock_events(fn):
                if kind == "scope-close":
                    held = [h for h in held
                            if not (h[2] == "raii" and h[1] > depth)]
                    continue
                if kind == "unlock":
                    key = _lock_key(sf.rel, name)
                    for idx in range(len(held) - 1, -1, -1):
                        if held[idx][0] == key and held[idx][2] == "lock":
                            del held[idx]
                            break
                    continue
                key = _lock_key(sf.rel, name)
                why = f"observed in {fn.qualname} at {sf.rel}:{line}"
                for hkey, _, _ in held:
                    add_edge(hkey, key, why)
                held.append((key, depth, kind))
    return edges


def _find_cycles(edges):
    graph = {}
    for (a, b) in edges:
        if a == b:
            continue  # self-edges get their own self-deadlock finding
        graph.setdefault(a, set()).add(b)
    cycles = []
    seen_cycles = set()

    def dfs(node, path, on_path, visited):
        visited.add(node)
        on_path.add(node)
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_path:
                cycle = path[path.index(nxt):] + [nxt]
                canon = tuple(sorted(set(cycle)))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(cycle))
            elif nxt not in visited:
                dfs(nxt, path, on_path, visited)
        path.pop()
        on_path.discard(node)

    visited = set()
    for node in sorted(graph):
        if node not in visited:
            dfs(node, [], set(), visited)
    return cycles


def pass_lock_order(tree):
    findings = []
    edges = _collect_lock_graph(tree)
    for (a, b), whys in sorted(edges.items()):
        if a == b:
            where = whys[0]
            m = re.search(r"at ([\w/.]+):(\d+)", where)
            file, line = (m.group(1), int(m.group(2))) if m else ("", 0)
            findings.append(Finding(
                "lock-order-cycle", file, line, a,
                f"lock {a} acquired while already held ({where}): "
                "self-deadlock on a non-recursive mutex",
                fp_extra=f"self|{a}"))
    for cycle in _find_cycles(edges):
        arcs = []
        for i in range(len(cycle) - 1):
            why = edges.get((cycle[i], cycle[i + 1]), ["?"])[0]
            arcs.append(f"{cycle[i]} < {cycle[i + 1]} ({why})")
        first_why = edges.get((cycle[0], cycle[1]), [""])[0]
        m = re.search(r"at ([\w/.]+):(\d+)", first_why)
        file, line = (m.group(1), int(m.group(2))) if m else ("", 0)
        findings.append(Finding(
            "lock-order-cycle", file, line, cycle[0],
            "lock-order cycle (potential deadlock): " + "; ".join(arcs),
            fp_extra="|".join(sorted(set(cycle)))))
    return findings


# --- pass 3: callback self-capture leaks -------------------------------------

_SHARED_FN_DECL = re.compile(
    r"(?:auto|std::shared_ptr<\s*std::function<[^;=]*?>\s*>)\s+(\w+)\s*=\s*"
    r"std::make_shared<\s*std::function<")
_SELF_DECL = re.compile(r"\b(\w+)\s*=\s*(?:this->)?shared_from_this\s*\(\s*\)")
_LAMBDA_ASSIGN = re.compile(r"([*]?)\s*(\w+)\s*=\s*\[([^\]]*)\]")


def _capture_names(capture_list):
    names = set()
    init_exprs = {}
    for part in capture_list.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part and part not in ("=",):
            lhs, _, rhs = part.partition("=")
            lhs, rhs = lhs.strip().lstrip("&*"), rhs.strip()
            if lhs:
                init_exprs[lhs] = rhs
            continue
        names.add(part.lstrip("&*"))
    return names, init_exprs


def pass_callback_leaks(tree):
    findings = []
    for sf in tree.files.values():
        if sf.layer is None:
            continue
        for fn in sf.functions:
            shared_fns = {m.group(1)
                          for m in _SHARED_FN_DECL.finditer(fn.body)}
            self_names = {m.group(1)
                          for m in _SELF_DECL.finditer(fn.body)}
            for m in _LAMBDA_ASSIGN.finditer(fn.body):
                deref, target, captures = m.groups()
                line = _line_of(fn.body_line, fn.body, m.start())
                names, init_exprs = _capture_names(captures)
                # (a) `*p = [..., p]` — the PR 4 retry/pump closure leak:
                # the stored closure owns the shared_ptr that stores it.
                if deref == "*" and target in shared_fns:
                    strong = names & {target}
                    if strong:
                        findings.append(Finding(
                            "callback-self-capture", sf.rel, line,
                            fn.qualname,
                            f"closure stored in shared_ptr `{target}` "
                            f"captures `{target}` by value: the callback "
                            "owns itself and never frees (capture a "
                            "weak_ptr and lock() it instead)",
                            fp_extra=f"shared-fn|{target}"))
                    elif "=" in [p.strip() for p in captures.split(",")] \
                            and re.search(rf"\*\s*{re.escape(target)}\b|"
                                          rf"\b{re.escape(target)}\s*\(",
                                          fn.body[m.end():]):
                        findings.append(Finding(
                            "callback-self-capture", sf.rel, line,
                            fn.qualname,
                            f"closure stored in shared_ptr `{target}` "
                            f"default-captures [=] and references "
                            f"`{target}`: implicit self-ownership cycle",
                            fp_extra=f"shared-fn-implicit|{target}"))
                # (b) member callback capturing shared_from_this() of the
                # same object: member_ = [self](){...} pins the object.
                if target.endswith("_") and deref != "*":
                    hit = names & self_names
                    for lhs, rhs in init_exprs.items():
                        if "shared_from_this" in rhs or \
                                rhs.strip() in self_names:
                            hit = hit | {lhs}
                    if hit:
                        cap = sorted(hit)[0]
                        findings.append(Finding(
                            "callback-self-capture", sf.rel, line,
                            fn.qualname,
                            f"member callback `{target}` captures owning "
                            f"reference `{cap}` (shared_from_this) to its "
                            "own object: reference cycle keeps the object "
                            "alive forever (capture weak_from_this())",
                            fp_extra=f"member|{target}|{cap}"))
    return findings


# --- pass 4: determinism hazards in replay code ------------------------------

_UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s+(\w+)\s*[;{=]")
_RANGE_FOR = re.compile(r"for\s*\(\s*[^;)]*?:\s*(?:\*?)([\w.>-]+)\s*\)")
_PTR_KEYED = re.compile(
    r"std::(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
_PTR_HASH = re.compile(r"std::hash<[^>]*\*\s*>")
_PTR_CAST = re.compile(r"reinterpret_cast<\s*(?:std::)?u?intptr_t\s*>\s*\(")


def pass_determinism(tree):
    findings = []
    for sf in tree.files.values():
        if sf.layer not in REPLAY_DIRS:
            continue
        unordered = {m.group(1) for m in _UNORDERED_DECL.finditer(sf.code)}
        code_lines = sf.code_lines()
        for lineno, line in enumerate(code_lines, start=1):
            m = _PTR_KEYED.search(line)
            if m:
                findings.append(Finding(
                    "pointer-keyed-container", sf.rel, lineno, "",
                    f"container keyed by pointer (`{m.group(0).strip()}...`):"
                    " heap addresses vary run to run, so iteration order is"
                    " not replayable",
                    fp_extra=f"{lineno // 1000}|{m.group(0).strip()}"))
            for pat, what in ((_PTR_HASH, "hashing a pointer"),
                              (_PTR_CAST, "casting a pointer to an integer")):
                pm = pat.search(line)
                if pm:
                    findings.append(Finding(
                        "pointer-identity", sf.rel, lineno, "",
                        f"{what} (`{pm.group(0).strip()}...`) feeds heap "
                        "addresses into replayable state",
                        fp_extra=f"{what}"))
        if not unordered:
            continue
        for fn in sf.functions:
            for m in _RANGE_FOR.finditer(fn.body):
                var = m.group(1).replace("->", ".").split(".")[-1]
                if var in unordered:
                    line = _line_of(fn.body_line, fn.body, m.start())
                    findings.append(Finding(
                        "unordered-iteration", sf.rel, line, fn.qualname,
                        f"iterates unordered container `{var}` in a "
                        "seeded-replay layer: hash order is "
                        "nondeterministic across runs/platforms; use an "
                        "ordered container or sort before emitting",
                        fp_extra=f"{var}"))
    return findings


# --- pass 5: shard affinity --------------------------------------------------

_AFFINE_MACRO = "HOTMAN_SHARD_AFFINE"

# Calls that carry a closure into the owning shard's execution context: a
# call to an affine function from inside their argument list IS the mailbox
# hop the contract asks for, so those spans are exempt.
_ROUTING_OPEN = re.compile(
    r"\b(?:PostSync|Post|RunOnShard|ScheduleTimer)\s*\(")

_TRAILER_BEFORE_AFFINE = {"const", "noexcept", "override", "final"}


def _declared_affine_names(sf):
    """Simple names of functions whose declaration (or inline definition)
    in `sf` carries HOTMAN_SHARD_AFFINE. Token-level backward walk from
    each macro occurrence to the identifier owning the parameter list, so
    multi-line declarations and trailing const/noexcept work."""
    names = set()
    code = sf.code
    for m in re.finditer(r"\b" + _AFFINE_MACRO + r"\b", code):
        i = m.start() - 1
        while i >= 0:
            while i >= 0 and code[i].isspace():
                i -= 1
            j = i
            while j >= 0 and (code[j].isalnum() or code[j] == "_"):
                j -= 1
            word = code[j + 1:i + 1]
            if word in _TRAILER_BEFORE_AFFINE:
                i = j
                continue
            break
        if i < 0 or code[i] != ")":
            continue
        depth = 0
        while i >= 0:
            if code[i] == ")":
                depth += 1
            elif code[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        i -= 1
        while i >= 0 and code[i].isspace():
            i -= 1
        j = i
        while j >= 0 and (code[j].isalnum() or code[j] == "_"):
            j -= 1
        name = code[j + 1:i + 1]
        if name and not name[0].isdigit():
            names.add(name)
    return names


def _routing_spans(body):
    """Body-offset ranges [(start, end)] covered by the argument list of a
    routing call; closures inside them run in the target shard's context."""
    spans = []
    for m in _ROUTING_OPEN.finditer(body):
        depth = 0
        i = m.end() - 1
        while i < len(body):
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        spans.append((m.end(), i))
    return spans


def pass_shard_affinity(tree):
    affine_by_file = {rel: _declared_affine_names(sf)
                      for rel, sf in tree.files.items()}
    findings = []
    for sf in tree.files.values():
        if sf.layer is None:
            continue
        visible = set(affine_by_file.get(sf.rel, ()))
        for dep in tree.include_closure(sf.rel):
            visible |= affine_by_file.get(dep, set())
        if not visible:
            continue
        call_re = re.compile(
            r"\b(" + "|".join(sorted(re.escape(n) for n in visible)) +
            r")\s*\(")
        for fn in sf.functions:
            # The definition of an affine function runs in shard context by
            # contract; its calls into sibling affine functions are fine.
            if _AFFINE_MACRO in fn.signature or fn.name in visible:
                continue
            spans = None
            for m in call_re.finditer(fn.body):
                if spans is None:
                    spans = _routing_spans(fn.body)
                if any(a <= m.start() < b for a, b in spans):
                    continue
                name = m.group(1)
                line = _line_of(fn.body_line, fn.body, m.start())
                findings.append(Finding(
                    "shard-affinity", sf.rel, line, fn.qualname,
                    f"non-affine code calls shard-affine `{name}` outside "
                    "a routing closure: the callee touches single-shard "
                    "state, so hop to the owning shard first (Post / "
                    "PostSync / RunOnShard / ScheduleTimer) or mark the "
                    "caller HOTMAN_SHARD_AFFINE",
                    fp_extra=f"{name}"))
    return findings


# --- pass 6: per-line rules --------------------------------------------------

# Directory -> set of src/ directories it may include.
ALLOWED_DEPS = {
    "common": set(),
    "bson": {"common"},
    "query": {"bson", "common"},
    "hashring": {"common"},
    "docstore": {"bson", "common", "query"},
    # net/executor.h + net/message.h are leaf interface headers the sim
    # loop implements, while net/sim_transport.h adapts the sim network:
    # sim <-> net is a deliberate interface/implementation pair, not a
    # layering accident.
    "sim": {"bson", "common", "docstore", "net"},
    "net": {"bson", "common", "sim"},
    "gossip": {"bson", "common", "net", "sim"},
    "baselines": {"common", "sim"},
    "cache": {"common", "hashring"},
    "rest": {"common", "hashring"},
    # The rebalancer is pure event-loop logic behind the Executor seam:
    # it never names a transport or a store, only the callbacks the node
    # wires into RebalancerEnv.
    "rebalance": {"bson", "common", "hashring", "net"},
    "cluster": {"bson", "common", "docstore", "gossip", "hashring", "net",
                "rebalance", "sim"},
    "core": {"bson", "cache", "cluster", "common", "docstore", "gossip",
             "hashring", "net", "query", "rest", "sim"},
    "workload": {"baselines", "bson", "cache", "cluster", "common", "core",
                 "docstore", "gossip", "hashring", "net", "query", "rest",
                 "sim"},
    # The chaos harness drives a whole simulated cluster and replays its
    # history offline; it sits above everything except the CLI tools. It is
    # deliberately part of EVENT_LOOP_DIRS: runs must replay bit-identically
    # from a seed, so file I/O and wall-clock time live in tools/, not here.
    "chaos": {"bson", "cluster", "common", "core", "docstore", "gossip",
              "hashring", "net", "sim", "workload"},
}

# File-granular exceptions to ALLOWED_DEPS: (directory, included header).
# cluster/ stores core::Record (the paper's record schema); the type lives
# in core/ because the REST facade shares it, and record.h depends only on
# bson/, so the edge does not re-introduce a cycle of behaviour.
INCLUDE_EXCEPTIONS = {("cluster", "core/record.h"),
                      ("rebalance", "core/record.h")}

# Directories written against net::Transport: direct simulator network
# access would silently re-couple them to virtual time. Explicitly
# sim-aware code (sim/, net/sim_transport, the failure injector) is exempt
# by location.
TRANSPORT_CLEAN_DIRS = {"cluster", "gossip", "rebalance"}

_LOCKING_HEADERS = {"common/mutex.h", "mutex", "shared_mutex", "thread"}

# What a line of an event-loop layer may not name, beyond the sinks of the
# transitive pass: any lock type (the transitive pass wants acquisitions,
# and a member or local of such a type is already a lock in the wrong
# place here) and a bare `send(` (the sink table spells it `::send(`).
_LINE_ONLY_PATTERNS = {
    "no-mutex": [re.compile(r"\bstd::\w*mutex\b|\b(?:hotman::|Shared)Mutex\b"
                            r"|\b(?:Reader|Writer)?MutexLock\b")],
    "no-blocking-io": [re.compile(r"\bsend\s*\(")],
}
_LINE_PATTERNS = {category: patterns + _LINE_ONLY_PATTERNS.get(category, [])
                  for category, patterns in _PRIMITIVE_PATTERNS.items()}

_SIM_NETWORK = re.compile(r"\bSimNetwork\b")
_NAKED_NEW = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` = placement, skip
_SMART_WRAP = re.compile(r"make_unique|make_shared|unique_ptr|shared_ptr")
_DETACH = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")
# An exclusive Mutex member (never matches SharedMutex: \b cannot fall
# inside the identifier) and a const method declared to take it.
_EXCLUSIVE_MUTEX_MEMBER = re.compile(r"\bMutex\s+(\w+)\s*;")
_CONST_EXCLUDES = re.compile(r"\bconst\s+HOTMAN_EXCLUDES\(\s*(\w+)\s*\)")

# The rules of this pass. A per-line finding is fixed or NOLINT-ed where it
# stands; it is never baselined.
LINE_RULES = {"layering", "transport-boundary", "naked-new", "no-detach",
              "shared-read", "nolint", *_LINE_PATTERNS}


def pass_line_rules(tree):
    findings = []
    for sf in tree.files.values():
        layer = sf.layer

        def add(rule, line, message):
            findings.append(Finding(rule, sf.rel, line, "", message))

        for line, target in sf.includes:
            target_dir = target.split("/")[0]
            if (layer in ALLOWED_DEPS and "/" in target
                    and target_dir in ALLOWED_DEPS and target_dir != layer
                    and target_dir not in ALLOWED_DEPS[layer]
                    and (layer, target) not in INCLUDE_EXCEPTIONS):
                allowed = ", ".join(sorted(ALLOWED_DEPS[layer])) or "none"
                add("layering", line,
                    f"{layer}/ must not include {target} (allowed: {allowed})")
            if layer in TRANSPORT_CLEAN_DIRS and target == "sim/network.h":
                add("transport-boundary", line,
                    f"{layer}/ must not include sim/network.h; talk to "
                    "net::Transport (net/transport.h) instead")
            if layer in EVENT_LOOP_DIRS and target in _LOCKING_HEADERS:
                add("no-mutex", line, "event-loop code must not include "
                    "locking/threading headers")

        # sf.code blanks every directive, but a macro body is code too.
        macros = [(line, cpp_model.strip_source(directive[1:])[0])
                  for line, directive in sf.directives]
        for line, code in [*enumerate(sf.code_lines(), start=1), *macros]:
            if layer in TRANSPORT_CLEAN_DIRS and _SIM_NETWORK.search(code):
                add("transport-boundary", line,
                    f"{layer}/ must not name sim::SimNetwork; the transport "
                    "seam keeps this layer simulator-agnostic")
            if layer in EVENT_LOOP_DIRS:
                for category, patterns in _LINE_PATTERNS.items():
                    m = next(filter(None, (p.search(code) for p in patterns)),
                             None)
                    if m:
                        add(category, line, f"event-loop code uses "
                            f"`{m.group(0).strip()}`; it must not lock, "
                            "spawn threads, block, sleep or read the "
                            "wall clock")
            if (layer is not None and _NAKED_NEW.search(code)
                    and not _SMART_WRAP.search(code)):
                add("naked-new", line, "use std::make_unique (or wrap `new` "
                    "in a smart pointer on the same line for private "
                    "constructors)")
            if _DETACH.search(code):
                add("no-detach", line,
                    "detached threads race static destruction; join them")

        for line, raw in enumerate(sf.raw_lines, start=1):
            m = NOLINT_RE.search(raw)
            if m and not m.group(2).strip():
                add("nolint", line,
                    "NOLINT(hotman-*) needs a trailing justification")

        # Only docstore headers advertise the read API surface.
        if layer == "docstore" and sf.rel.endswith(".h"):
            members = set(_EXCLUSIVE_MUTEX_MEMBER.findall(sf.code))
            for m in _CONST_EXCLUDES.finditer(sf.code):
                if m.group(1) in members:
                    add("shared-read", 1 + sf.code.count("\n", 0, m.start()),
                        f"const read method takes the exclusive Mutex "
                        f"'{m.group(1)}'; docstore read paths should use "
                        "SharedMutex (ReaderMutexLock)")
    return findings


# --- suppression / baseline / driver -----------------------------------------

def _apply_nolint(tree, findings):
    """Drops each finding whose raw line carries a NOLINT naming its rule.
    A hotman-nolint finding stays: the bare NOLINT it reports would
    otherwise silence itself."""
    def silenced(f):
        lines = tree.files[f.file].raw_lines if f.file in tree.files else []
        m = 0 < f.line <= len(lines) and NOLINT_RE.search(lines[f.line - 1])
        return m and m.group(1) == f.rule != "nolint"
    return [f for f in findings if not silenced(f)]


def analyze_tree(root):
    """Runs all passes; returns findings after NOLINT filtering (before
    baseline comparison)."""
    tree = cpp_model.Tree(root, subdirs=SCAN_DIRS)
    findings = []
    findings += pass_transitive_blocking(tree)
    findings += pass_lock_order(tree)
    findings += pass_callback_leaks(tree)
    findings += pass_determinism(tree)
    findings += pass_shard_affinity(tree)
    findings += pass_line_rules(tree)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return _apply_nolint(tree, findings)


def load_baseline(path):
    if not path or not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return {e["fingerprint"]: e for e in data.get("findings", [])}


def render_table(findings):
    if not findings:
        return "no findings"
    rows = [(f"hotman-{f.rule}", f"{f.file}:{f.line}",
             f.function or "-", "baselined" if f.baselined else "NEW")
            for f in findings]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    out = []
    for r, f in zip(rows, findings):
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        out.append("    " + f.message)
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    default_root = pathlib.Path(__file__).resolve().parent.parent.parent
    parser.add_argument("--root", type=pathlib.Path, default=default_root)
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the machine-readable findings report")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent
                        / "baseline.json")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to accept every current "
                             "finding (fill in the justifications!)")
    args = parser.parse_args(argv)

    findings = analyze_tree(args.root)
    baseline = {} if args.no_baseline else load_baseline(args.baseline)
    for f in findings:
        f.baselined = f.rule not in LINE_RULES and f.fingerprint in baseline

    if args.update_baseline:
        entries = []
        for f in findings:
            if f.rule in LINE_RULES:
                continue
            old = baseline.get(f.fingerprint, {})
            entries.append({
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "file": f.file,
                "function": f.function,
                "justification": old.get("justification",
                                         "TODO: justify or fix"),
            })
        args.baseline.write_text(
            json.dumps({"findings": entries}, indent=2) + "\n",
            encoding="utf-8")
        print(f"hotman_analyze: baseline updated "
              f"({len(entries)} finding(s)) at {args.baseline}")
        return 0

    if args.json:
        report = {
            "tool": "hotman_analyze",
            "root": str(args.root),
            "total": len(findings),
            "new": sum(1 for f in findings if not f.baselined),
            "baselined": sum(1 for f in findings if f.baselined),
            "findings": [f.as_json() for f in findings],
        }
        args.json.write_text(json.dumps(report, indent=2) + "\n",
                             encoding="utf-8")

    new = [f for f in findings if not f.baselined]
    stale = set(baseline) - {f.fingerprint for f in findings}
    for f in new:
        print(f)
    if findings:
        print(render_table(findings))
    for fp in sorted(stale):
        e = baseline[fp]
        print(f"hotman_analyze: warning: stale baseline entry {fp} "
              f"({e.get('rule')} in {e.get('file')}): finding no longer "
              "present, remove it from baseline.json", file=sys.stderr)
    if new:
        print(f"hotman_analyze: {len(new)} new finding(s) "
              f"({len(findings) - len(new)} baselined)", file=sys.stderr)
        return 1
    print(f"hotman_analyze: OK ({len(findings)} baselined finding(s), "
          f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
