#!/usr/bin/env python3
"""abe_lint — project-specific determinism and discipline checks.

The ABE reproduction's core claim is that seeded simulator aggregates are
bit-identical across schedulers, event-queue backends, thread counts and
refactors. clang-tidy cannot see the project-level invariants that keep
that true, so this linter enforces them:

  wall-clock      No wall-clock or libc randomness in library code: the
                  only time is SimTime, the only randomness is the seeded
                  Rng. std::chrono::steady_clock is allowed under
                  src/runtime/ only (wall-deadline and mailbox due-time
                  code — the thread runtime is wall-clock driven by
                  design).
  unordered-iter  No range-for over std::unordered_{map,set} in any file
                  that writes Summary/aggregate state: hash-table
                  iteration order is libstdc++-version- and seed-
                  dependent, so folding it into an aggregate silently
                  breaks bit-identity.
  env-read        No ABE_* environment reads outside the sanctioned
                  config-plumbing sites (ABE_EQUEUE in
                  sim/equeue/backend.cpp, ABE_TRIAL_THREADS in
                  core/trial_pool.cpp): scattered env reads make a run's
                  configuration unreproducible from its provenance block.
  inline-capture  Closures handed to Scheduler::schedule_at/schedule_in
                  must use explicit capture lists. Default [&]/[=]
                  captures hide the capture set, which must stay within
                  InlineAction::kInlineSize (48 bytes, no per-event
                  allocation) and must not dangle (deferred closures
                  outlive the enclosing scope).
  adversary-delay No direct DelayModel construction inside src/adversary/:
                  an adversarial delay policy must route every proposed
                  delay through the BoundedAdversary budget wrapper
                  (adversary/delay_policy.h), which is what keeps the
                  empirical per-channel mean provably within the model's
                  advertised expected-delay bound. A policy that spawns
                  its own delay model bypasses that check and can violate
                  the ABE contract silently.
  no-adhoc-counters
                  No hand-rolled tally members (integral or atomic members
                  named *count_/*counter_/*tally_) in the infrastructure
                  layers (src/sim/, src/net/, src/runtime/, src/trace/):
                  a counter that exists to be observed belongs in the
                  obs/metrics.h registry, or must be the documented
                  backing store of a metrics_snapshot() row (allow() it
                  there, with the row named in a comment). Scattered
                  one-off tallies are exactly what the metrics registry
                  replaced — they have no snapshot order, no merge
                  semantics, and no JSON surface. Algorithm state that
                  happens to count things (vote tallies, round counters in
                  src/algo/, src/core/, …) is protocol logic, not
                  observability, and is out of scope by path.
  raw-socket      No direct socket(2)/bind/sendto/recvfrom calls outside
                  src/runtime/udp_socket.*: that wrapper is the single
                  place the OS networking surface is touched, so loss
                  injection, the 20 ms shutdown poll, fd hygiene and the
                  port-budget cap stay enforceable in one file. Qualified
                  names (std::bind, obj.bind(...)) never trip; the bare
                  libc spellings and explicit ::socket etc. do.
  direct-network  No Network or NetworkConfig constructed outside
                  src/runtime/ and src/net/network.*: a trial runs through
                  Runtime + AlgorithmDriver (run_algorithm_trial), where
                  SimRuntime is the one owner of a simulator Network. A
                  hand-rolled runner that builds its own Network duplicates
                  the run loop, describes the environment a second way and
                  skips the outcome, metrics, flight-tail and critical-path
                  harvest every driver gets. References and pointers
                  (Network&, const Network*) never trip.

Suppressions (each names the rule, so waivers stay narrow):
  // abe-lint: allow(<rule>)        on the offending or preceding line
  // abe-lint: allow-file(<rule>)   anywhere in the file

Usage:
  abe_lint.py [--root DIR] [PATH...]     lint files/dirs (default: src)
  abe_lint.py --self-test                run the fixture corpus
Exit codes: 0 clean, 1 findings, 2 infrastructure error.

Heuristic limits (by design — this is a grep-power linter, not a parser):
type aliases that rename a forbidden clock and iteration through an
unordered container hidden behind a function call are not caught; the
sanitizer matrix and the cross-backend differential tests are the
backstop for those.
"""

import argparse
import os
import re
import sys

LINT_EXTENSIONS = (".h", ".cpp", ".cc")

PRAGMA_RE = re.compile(r"//\s*abe-lint:\s*allow\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
PRAGMA_FILE_RE = re.compile(
    r"//\s*abe-lint:\s*allow-file\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\)"
)

# --- wall-clock ------------------------------------------------------------

WALL_CLOCK_TOKENS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "libc randomness"),
    (re.compile(r"(?<!_)\brand\s*\(\s*\)"), "libc randomness"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "wall-clock seed"),
    (re.compile(r"\bsystem_clock\b"), "wall clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "wall clock"),
    (re.compile(r"\bsteady_clock\b"), "monotonic wall clock"),
    (re.compile(r"\bclock_gettime\s*\(|\bgettimeofday\s*\("), "wall clock"),
]

# steady_clock is legitimate wall-deadline machinery on the thread runtime.
STEADY_CLOCK_ALLOWED_PREFIX = "src/runtime/"

# --- unordered-iter --------------------------------------------------------

# A file "writes aggregate state" if it touches the summary/aggregate
# types that feed sweep JSON.
AGGREGATE_MARKER_RE = re.compile(r"\bSummary\b|\bAggregate\b|\.merge\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*[&*]?\s*(\w+)"
)
# The declaration part may contain :: scope qualifiers; the range colon is
# the first single ':' (a classic for's ';' kills the match).
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\((?:[^;(){}:]|::)*?(?<!:):(?!:)\s*(?P<range>[^)]+)\)"
)

# --- env-read --------------------------------------------------------------

ENV_READ_RE = re.compile(r"\bgetenv\s*\(\s*\"ABE_\w*\"")
ENV_READ_ALLOWED_FILES = {
    "src/sim/equeue/backend.cpp",   # ABE_EQUEUE backend override
    "src/core/trial_pool.cpp",      # ABE_TRIAL_THREADS worker count
}

# --- inline-capture --------------------------------------------------------

SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:at|in)\s*\(")
DEFAULT_CAPTURE_RE = re.compile(r"\[\s*[&=]\s*[,\]]")

# --- adversary-delay -------------------------------------------------------

# The explicit factory list from net/delay.h, NOT a `\w+_delay` wildcard:
# the policy interface's own next_delay()/propose_delay() calls are
# legitimate and must never trip this rule.
DELAY_FACTORY_RE = re.compile(
    r"\b(?:make_delay_model|fixed_delay|uniform_delay|exponential_delay|"
    r"shifted_exponential_delay|erlang_delay|geometric_retransmission_delay|"
    r"lomax_delay|bimodal_delay|weibull_delay|lognormal_delay|"
    r"hyperexponential_delay)\s*\("
)
ADVERSARY_PATH_PREFIX = "src/adversary/"

# --- raw-socket ------------------------------------------------------------

# The libc datagram surface. `bind` is the noisy one: std::bind, member
# .bind(...)/->bind(...) and declarations (`UdpSocket socket(...)`) are all
# legitimate, so the check inspects what precedes the token (see
# check_raw_socket) instead of widening the regex.
RAW_SOCKET_RE = re.compile(r"\b(?:socket|sendto|recvfrom|bind)\s*\(")
RAW_SOCKET_ALLOWED_PREFIX = "src/runtime/udp_socket."

# --- no-adhoc-counters -----------------------------------------------------

# Member declarations (trailing-underscore naming) of integral or atomic
# integral type whose name reads as a tally. Locals named `count` in a loop
# are fine — observability state is member state.
ADHOC_COUNTER_RE = re.compile(
    r"\b(?:std::)?(?:atomic\s*<[^<>]*>|u?int(?:8|16|32|64)?_t|size_t|"
    r"unsigned(?:\s+(?:int|long|long\s+long))?|long\s+long|long|int)\s+"
    r"(?:\w*(?:count|counter|tally)s?_)\s*(?:=|;|\{|\[)"
)
# The layers whose counters feed metrics_snapshot(); algorithm/protocol
# state elsewhere is out of scope.
ADHOC_COUNTER_PATH_PREFIXES = (
    "src/sim/", "src/net/", "src/runtime/", "src/trace/",
)

# --- direct-network --------------------------------------------------------

# A Network/NetworkConfig value: a declared object (`Network net(...)`,
# `NetworkConfig config;`), a temporary (`NetworkConfig{}`) or a heap
# allocation. `\b` keeps WallNetwork and friends out; `&`/`*` after the
# type name (references, pointers) never match.
DIRECT_NETWORK_RE = re.compile(
    r"\b(?:Network|NetworkConfig)\s+[A-Za-z_]\w*\s*(?:[;({=]|$)"
    r"|\b(?:Network|NetworkConfig)\s*[({]"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:Network|NetworkConfig)\s*>"
    r"|\bnew\s+(?:Network|NetworkConfig)\b"
)
DIRECT_NETWORK_ALLOWED_PREFIXES = ("src/runtime/", "src/net/network.")

RULES = ("wall-clock", "unordered-iter", "env-read", "inline-capture",
         "adversary-delay", "no-adhoc-counters", "raw-socket",
         "direct-network")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments (and, unless keep_strings, string/char
    literals), preserving line structure, so tokens inside prose or
    messages never trip a rule. env-read keeps strings: the "ABE_..."
    literal is the evidence it matches on."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            if keep_strings:
                out.append(text[i : j + 1])
            else:
                out.append(" " * (min(j, n - 1) + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(raw_lines):
    """Returns (per_line, per_file): rule-name sets keyed by line number."""
    per_line = {}
    per_file = set()
    for lineno, line in enumerate(raw_lines, start=1):
        m = PRAGMA_FILE_RE.search(line)
        if m:
            per_file.update(r.strip() for r in m.group("rules").split(","))
            continue
        m = PRAGMA_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group("rules").split(",")}
            # The pragma covers its own line and the next code line, so it
            # can ride above the offending statement.
            per_line.setdefault(lineno, set()).update(rules)
            per_line.setdefault(lineno + 1, set()).update(rules)
    return per_line, per_file


def is_suppressed(rule, lineno, per_line, per_file):
    return rule in per_file or rule in per_line.get(lineno, set())


def check_wall_clock(relpath, lines, add):
    for lineno, line in enumerate(lines, start=1):
        for pattern, what in WALL_CLOCK_TOKENS:
            if not pattern.search(line):
                continue
            if "steady_clock" in pattern.pattern and relpath.startswith(
                STEADY_CLOCK_ALLOWED_PREFIX
            ):
                continue
            add(
                lineno,
                "wall-clock",
                f"{what} in deterministic library code (seeded Rng and "
                f"SimTime are the only time/randomness sources; "
                f"steady_clock only under {STEADY_CLOCK_ALLOWED_PREFIX})",
            )


def check_unordered_iter(relpath, lines, add):
    text = "\n".join(lines)
    if not AGGREGATE_MARKER_RE.search(text):
        return
    unordered_names = set(UNORDERED_DECL_RE.findall(text))
    for lineno, line in enumerate(lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group("range").strip()
        terminal = re.split(r"[.\->]+", range_expr)[-1].strip("()& ")
        if "unordered" in range_expr or terminal in unordered_names:
            add(
                lineno,
                "unordered-iter",
                "range-for over an unordered container in a file that "
                "writes Summary/aggregate state: hash iteration order is "
                "not deterministic across libstdc++ versions — sort keys "
                "first or use an ordered container",
            )


def check_env_read(relpath, lines, add):
    # `lines` here keep string literals (see lint_file): the "ABE_..."
    # argument is what identifies a config read.
    if relpath in ENV_READ_ALLOWED_FILES:
        return
    for lineno, line in enumerate(lines, start=1):
        if ENV_READ_RE.search(line):
            add(
                lineno,
                "env-read",
                "ABE_* environment read outside config plumbing "
                f"(sanctioned sites: {', '.join(sorted(ENV_READ_ALLOWED_FILES))})",
            )


def check_inline_capture(relpath, lines, add):
    for lineno, line in enumerate(lines, start=1):
        for m in SCHEDULE_CALL_RE.finditer(line):
            # The lambda usually opens on the same line; a wrapped call
            # puts it on the next one or two. `window` starts with the
            # current line, so m.start() indexes into it directly.
            window = " ".join(lines[lineno - 1 : lineno + 2])
            tail = window[m.start() :]
            bracket = tail.find("[")
            if bracket == -1:
                continue
            if DEFAULT_CAPTURE_RE.match(tail[bracket:]):
                add(
                    lineno,
                    "inline-capture",
                    "default [&]/[=] capture in a scheduled closure: "
                    "deferred closures outlive their scope (dangling refs) "
                    "and the capture set must stay within "
                    "InlineAction::kInlineSize — list captures explicitly",
                )


def check_adversary_delay(relpath, lines, add):
    if not relpath.startswith(ADVERSARY_PATH_PREFIX):
        return
    for lineno, line in enumerate(lines, start=1):
        if DELAY_FACTORY_RE.search(line):
            add(
                lineno,
                "adversary-delay",
                "direct DelayModel construction inside an adversary "
                "policy: delays must flow through the BoundedAdversary "
                "budget wrapper (adversary/delay_policy.h) so the "
                "empirical per-channel mean stays within the advertised "
                "bound — take the bound as a number, not a delay model",
            )


def check_no_adhoc_counters(relpath, lines, add):
    if not relpath.startswith(ADHOC_COUNTER_PATH_PREFIXES):
        return
    for lineno, line in enumerate(lines, start=1):
        if ADHOC_COUNTER_RE.search(line):
            add(
                lineno,
                "no-adhoc-counters",
                "hand-rolled tally member in infrastructure code: a "
                "counter that exists to be observed belongs in the "
                "obs/metrics.h registry or must be the documented backing "
                "store of a metrics_snapshot() row (allow() it there, "
                "naming the row)",
            )


def check_raw_socket(relpath, lines, add):
    if relpath.startswith(RAW_SOCKET_ALLOWED_PREFIX):
        return
    for lineno, line in enumerate(lines, start=1):
        for m in RAW_SOCKET_RE.finditer(line):
            prefix = line[: m.start()].rstrip()
            # Member call: someobj.bind(...) / ptr->bind(...).
            if prefix.endswith(".") or prefix.endswith("->"):
                continue
            if prefix.endswith("::"):
                qualifier = prefix[:-2].rstrip()
                # std::bind / Socket::bind — a named scope, not libc.
                # A bare leading :: (global namespace) IS the libc call.
                if qualifier and (qualifier[-1].isalnum()
                                  or qualifier[-1] in "_>"):
                    continue
            else:
                # `UdpSocket socket(fd)` / `int bind(int fd);` — a type or
                # declarator precedes the token, so this declares a
                # variable/function rather than calling libc. Control-flow
                # keywords still expose a real call (`return socket(...)`).
                tok = re.search(r"[\w>]+$", prefix)
                if tok and tok.group(0) not in ("return", "co_return",
                                                "co_await", "case"):
                    continue
            add(
                lineno,
                "raw-socket",
                "direct socket-API call outside src/runtime/udp_socket.*: "
                "the UdpSocket wrapper is the single OS networking "
                "touchpoint (loss injection, shutdown poll, fd hygiene, "
                "port budget) — route datagram I/O through it",
            )


def check_direct_network(relpath, lines, add):
    if relpath.startswith(DIRECT_NETWORK_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(lines, start=1):
        if DIRECT_NETWORK_RE.search(line):
            add(
                lineno,
                "direct-network",
                "Network/NetworkConfig constructed outside src/runtime/ "
                "and src/net/network.*: run the algorithm as an "
                "AlgorithmDriver through run_algorithm_trial on a "
                "RuntimeConfig instead of a hand-rolled Network runner",
            )


# (check, needs_string_literals) — env-read matches on the "ABE_" literal.
CHECKS = (
    (check_wall_clock, False),
    (check_unordered_iter, False),
    (check_env_read, True),
    (check_inline_capture, False),
    (check_adversary_delay, False),
    (check_no_adhoc_counters, False),
    (check_raw_socket, False),
    (check_direct_network, False),
)


def lint_file(fs_path, relpath):
    try:
        with open(fs_path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"abe_lint: cannot read {fs_path}: {e}", file=sys.stderr)
        sys.exit(2)
    raw_lines = raw.splitlines()
    per_line, per_file = collect_suppressions(raw_lines)
    code_lines = strip_comments_and_strings(raw).splitlines()
    code_with_strings = strip_comments_and_strings(
        raw, keep_strings=True).splitlines()

    findings = []

    def add(lineno, rule, message):
        if not is_suppressed(rule, lineno, per_line, per_file):
            findings.append(Finding(relpath, lineno, rule, message))

    for check, needs_strings in CHECKS:
        check(relpath, code_with_strings if needs_strings else code_lines, add)
    return findings


def iter_lintable(root, paths):
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            yield full, os.path.relpath(full, root).replace(os.sep, "/")
            continue
        if not os.path.isdir(full):
            print(f"abe_lint: no such path: {full}", file=sys.stderr)
            sys.exit(2)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            # The fixture corpus intentionally trips every rule.
            dirnames[:] = [d for d in dirnames if d != "fixtures"]
            for name in sorted(filenames):
                if name.endswith(LINT_EXTENSIONS):
                    fs = os.path.join(dirpath, name)
                    yield fs, os.path.relpath(fs, root).replace(os.sep, "/")


FIXTURE_PATH_RE = re.compile(r"//\s*abe-lint-fixture-path:\s*(\S+)")
# Anchored to the known rule names: a lazy ([a-z-]+?) would misparse
# "adversary-delay" as rule "adversary" (an underscore follows it).
FIXTURE_NAME_RE = re.compile(
    r"^(trip|pass)_(" + "|".join(re.escape(r) for r in RULES)
    + r")_[a-z0-9_]+\.cpp$")


def self_test(fixtures_dir):
    """Each rule needs ≥1 trip_<rule>_*.cpp (must produce that finding)
    and ≥1 pass_<rule>_*.cpp (must produce no findings at all)."""
    if not os.path.isdir(fixtures_dir):
        print(f"abe_lint: fixtures dir missing: {fixtures_dir}", file=sys.stderr)
        return 2
    covered = {rule: {"trip": 0, "pass": 0} for rule in RULES}
    failures = []
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(".cpp"):
            continue
        m = FIXTURE_NAME_RE.match(name)
        if not m:
            failures.append(f"{name}: fixture name must be (trip|pass)_<rule>_<case>.cpp")
            continue
        kind, rule = m.group(1), m.group(2)
        if rule not in RULES:
            failures.append(f"{name}: unknown rule '{rule}' (rules: {', '.join(RULES)})")
            continue
        fs_path = os.path.join(fixtures_dir, name)
        with open(fs_path, "r", encoding="utf-8") as f:
            head = f.read(4096)
        pm = FIXTURE_PATH_RE.search(head)
        relpath = pm.group(1) if pm else f"src/sim/{name}"
        findings = lint_file(fs_path, relpath)
        covered[rule][kind] += 1
        if kind == "trip":
            if not any(f.rule == rule for f in findings):
                failures.append(f"{name}: expected a [{rule}] finding, got "
                                f"{[str(f) for f in findings] or 'none'}")
        else:
            if findings:
                failures.append(f"{name}: expected clean, got "
                                f"{[str(f) for f in findings]}")
    for rule, kinds in covered.items():
        for kind, count in kinds.items():
            if count == 0:
                failures.append(f"rule '{rule}' has no {kind} fixture")
    if failures:
        for f in failures:
            print(f"abe_lint self-test FAIL: {f}")
        return 1
    total = sum(k["trip"] + k["pass"] for k in covered.values())
    print(f"abe_lint self-test OK: {total} fixtures, "
          f"{len(RULES)} rules, all tripped and passed as expected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to --root (default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus under tools/lint/fixtures")
    args = parser.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(script_dir))

    if args.self_test:
        sys.exit(self_test(os.path.join(script_dir, "fixtures")))

    paths = args.paths or ["src"]
    findings = []
    checked = 0
    for fs_path, relpath in iter_lintable(root, paths):
        findings.extend(lint_file(fs_path, relpath))
        checked += 1
    findings.sort(key=lambda f: (f.path, f.line))
    for finding in findings:
        print(finding)
    if findings:
        print(f"abe_lint: {len(findings)} finding(s) in {checked} file(s)")
        sys.exit(1)
    print(f"abe_lint: clean ({checked} files)")
    sys.exit(0)


if __name__ == "__main__":
    main()
