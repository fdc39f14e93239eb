#!/usr/bin/env python3
"""Project lint: protocol and concurrency hygiene checks.

Checks (each can be listed with --list):
  wire-manifest   Every namespaced wire-name literal ("prefix:name") in src/
                  appears in the frozen manifest in
                  tests/wire_format_test.cpp, and vice versa. Renaming a
                  wire element silently breaks interoperability with peers
                  running an older build; the manifest makes every rename a
                  deliberate, reviewed edit.
  raw-mutex       No raw std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable / std::shared_mutex in src/
                  outside the annotated wrapper (util/thread_annotations.h)
                  and the lock-order tracker it is built on. The wrapper is
                  what gives Clang thread-safety analysis and the deadlock
                  detector their coverage — a raw mutex is a blind spot.
  test-sleep      No bare std::this_thread::sleep_for / sleep_until in
                  tests/ outside tests/support/. Tests wait with
                  wait_until() (poll a predicate) or settle() (named fixed
                  wait), both in tests/support/.
  src-sleep       No std::this_thread::sleep_for / sleep_until anywhere in
                  src/. Production code waits on a deadline, not a parked
                  thread: schedule it on util::TimerQueue::shared() (or the
                  owning EventLoop) and keep the calling thread available.
                  A sleeping thread pins a whole OS thread per wait — the
                  thread-per-connection disease the reactor removed.
  wall-clock      No steady_clock::now() / system_clock::now() in src/
                  outside util/clock.h. Time comes from an injected
                  util::Clock& so the whole substrate can run on virtual
                  time (src/sim/); a raw clock read is an event the
                  simulation cannot see or replay. Blocking cv-wait
                  deadlines use util::SystemClock::instance().now()
                  explicitly (a condvar cannot be woken by virtual time).
  self-include    Every src/**/*.cpp whose matching header exists includes
                  that header first (IWYU-style: the header must be
                  self-sufficient, and its own .cpp is where that is
                  proven).
  config-builder  No direct TpsConfig brace-initialization with field
                  values outside the struct's own definition site. The
                  fluent TpsConfig::Builder validates every knob at
                  build() time; a raw aggregate init bypasses those bounds
                  checks and silently compiles when fields are reordered.
  metrics-manifest  Every literal metric name registered via counter() /
                  gauge() / histogram() in src/ appears in the manifest in
                  src/obs/instruments.h, and vice versa. A typo'd name
                  mints a dead time series that dashboards and bench diffs
                  then read zeros from; the manifest makes every new or
                  renamed instrument a deliberate, reviewed edit. Names
                  composed at runtime (e.g. "net." + scheme + "...") are
                  exempt: the check only matches whole-literal calls.
  raw-decode      No memcpy or byte-pointer reinterpret_cast in src/
                  outside util/bytes (the audited decoder). Hand-rolled
                  byte surgery is where the out-of-bounds reads live; all
                  decoding of peer bytes goes through util::ByteReader,
                  which the fuzz harnesses (fuzz/) pound on directly.
                  Casts to non-byte types (sockaddr for syscalls,
                  uintptr_t for pointer ordering) are allowed.
  xml-hot-path    The per-frame send/receive path (src/net/, the message/
                  endpoint envelopes, batch framing, the delivery executor,
                  the encode cache and the codec interface) must not
                  include src/xml/ — directly or transitively. The binary
                  codec exists so a frame never touches the XML parser;
                  one careless #include quietly drags DOM parsing back
                  into the hot path. Advertisement handling (pipe/wire
                  resolution, discovery) parses XML by design and is not
                  in the set.
  listener-publish  No publish / try_publish / publish_on_wire call inside
                  a wire/pipe listener lambda (a set_listener(...) argument)
                  in src/. Listener bodies run on the transport's delivery
                  thread: they must only decode, enqueue or forward.
                  Publishing inline re-enters the send path from the
                  receive path — a recursion/stall hazard the delivery
                  executor (tps/dispatch.h) exists to prevent.
  dedup-structure No std::deque<util::Uuid> in src/ outside
                  util/dedup_ring.h. Duplicate suppression (TPS delivery,
                  rendezvous loop suppression, SR-JXTA) has exactly one
                  structure, util::DedupRing; an id FIFO beside a set is
                  the second, slower one the measurements already retired.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

--self-test runs the checks against fabricated bad inputs and fails if any
check misses its seeded violation (guards against the lint rotting).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# A namespaced wire name: short lowercase prefix, colon, lowercase name.
WIRE_NAME_RE = re.compile(r'"([a-z][a-z0-9]*:[a-z0-9][a-z0-9-]*)"')
# Prefixes that look like wire names but are not (URN schemes etc.).
WIRE_NAME_IGNORED_PREFIXES = ("urn:", "http:", "https:", "jxta:")

MANIFEST_FILE = "tests/wire_format_test.cpp"
MANIFEST_BEGIN = "lint-wire-manifest-begin"
MANIFEST_END = "lint-wire-manifest-end"
# The fuzzer dictionary must offer every frozen wire name to the mutator.
DICT_FILE = "fuzz/wire.dict"

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_MUTEX_EXEMPT = (
    "src/util/thread_annotations.h",  # the wrapper itself
    "src/util/lock_order.h",          # tracker: must not use the wrapper
    "src/util/lock_order.cpp",        #   (it is called from inside it)
)

SLEEP_RE = re.compile(r"std::this_thread::sleep_(?:for|until)\b")

# TpsConfig aggregate-init with contents: `TpsConfig c{...}`, `TpsConfig{...}`
# or `TpsConfig c = {...}` where the braces are non-empty. An empty `{}`
# (all defaults) is fine; so is poking fields on a named variable. The
# definition site declares the struct itself and is exempt.
CONFIG_BRACE_RE = re.compile(
    r"(?<!struct )\bTpsConfig\s*\w*\s*=?\s*\{\s*[^\s}]")
CONFIG_BRACE_EXEMPT = ("src/tps/session.h",)

RAW_DECODE_MEMCPY_RE = re.compile(r"\b(?:std::)?memcpy\s*\(")
RAW_DECODE_CAST_RE = re.compile(
    r"reinterpret_cast<\s*(?:const\s+)?"
    r"(?:char|unsigned\s+char|(?:std::)?uint8_t|std::byte)\s*\*\s*>")
RAW_DECODE_EXEMPT = (
    "src/util/bytes.h",    # the audited decoder itself
    "src/util/bytes.cpp",
)

COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def strip_comments(text: str) -> str:
    """Blanks comments, preserving newlines so line numbers survive."""
    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))
    return COMMENT_RE.sub(blank, text)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


class Tree:
    """The file set the checks run over (real repo or fabricated)."""

    def __init__(self, files: dict[str, str]):
        self.files = files  # repo-relative posix path -> content

    @staticmethod
    def from_repo(root: pathlib.Path) -> "Tree":
        files = {}
        for pattern in ("src/**/*.h", "src/**/*.cpp", "tests/**/*.h",
                        "tests/**/*.cpp", "examples/**/*.cpp",
                        "bench/**/*.h", "bench/**/*.cpp", "fuzz/*.dict"):
            for path in sorted(root.glob(pattern)):
                rel = path.relative_to(root).as_posix()
                files[rel] = path.read_text(encoding="utf-8")
        return Tree(files)

    def matching(self, prefix: str, suffixes: tuple[str, ...]) -> list[str]:
        return [p for p in self.files
                if p.startswith(prefix) and p.endswith(suffixes)]


def parse_manifest(tree: Tree) -> set[str] | None:
    text = tree.files.get(MANIFEST_FILE)
    if text is None:
        return None
    begin = text.find(MANIFEST_BEGIN)
    end = text.find(MANIFEST_END)
    if begin < 0 or end < 0 or end < begin:
        return None
    return set(WIRE_NAME_RE.findall(strip_comments(text[begin:end])))


def check_wire_manifest(tree: Tree) -> list[str]:
    errors = []
    manifest = parse_manifest(tree)
    if manifest is None:
        return [f"{MANIFEST_FILE}: wire-name manifest "
                f"({MANIFEST_BEGIN}..{MANIFEST_END}) not found"]
    used: dict[str, str] = {}  # name -> first "file:line"
    for path in tree.matching("src/", (".h", ".cpp")):
        code = strip_comments(tree.files[path])
        for m in WIRE_NAME_RE.finditer(code):
            name = m.group(1)
            if name.startswith(WIRE_NAME_IGNORED_PREFIXES):
                continue
            used.setdefault(name, f"{path}:{line_of(code, m.start())}")
    for name in sorted(set(used) - manifest):
        errors.append(
            f"{used[name]}: wire name \"{name}\" is not in the frozen "
            f"manifest in {MANIFEST_FILE} — add it there (a rename breaks "
            f"old peers; make it deliberate)")
    for name in sorted(manifest - set(used)):
        errors.append(
            f"{MANIFEST_FILE}: manifest entry \"{name}\" no longer appears "
            f"in src/ — remove it (or restore the code that used it)")
    # The fuzzer dictionary must cover the manifest, so coverage-guided
    # runs can synthesize frames with real element names.
    dict_text = tree.files.get(DICT_FILE)
    if dict_text is not None:
        dict_names = set(WIRE_NAME_RE.findall(dict_text))
        for name in sorted(manifest - dict_names):
            errors.append(
                f"{DICT_FILE}: missing manifest wire name \"{name}\" — add "
                f"it so the fuzzers can synthesize frames that use it")
        for name in sorted(dict_names - manifest):
            if name.startswith(WIRE_NAME_IGNORED_PREFIXES):
                continue
            errors.append(
                f"{DICT_FILE}: entry \"{name}\" is not a manifest wire "
                f"name — remove it (or add it to the manifest in "
                f"{MANIFEST_FILE})")
    return errors


def check_raw_mutex(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        if path in RAW_MUTEX_EXEMPT:
            continue
        code = strip_comments(tree.files[path])
        for m in RAW_MUTEX_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: raw {m.group(0)} — use "
                f"util::Mutex / util::MutexLock / util::CondVar "
                f"(util/thread_annotations.h) so thread-safety analysis "
                f"and the deadlock detector see this lock")
    return errors


def check_test_sleep(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("tests/", (".h", ".cpp")):
        if path.startswith("tests/support/"):
            continue
        code = strip_comments(tree.files[path])
        for m in SLEEP_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: bare {m.group(0)} in a "
                f"test — poll with wait_until() or name the wait with "
                f"settle() (tests/support/timing.h)")
    return errors


def check_src_sleep(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        code = strip_comments(tree.files[path])
        for m in SLEEP_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: {m.group(0)} in "
                f"production code — this parks an OS thread for the whole "
                f"wait; schedule a deadline on util::TimerQueue::shared() "
                f"(util/timer_queue.h) or the owning EventLoop instead")
    return errors


WALL_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::)?(?:steady_clock|system_clock)::now\s*\(")
WALL_CLOCK_EXEMPT = "src/util/clock.h"


def check_wall_clock(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        if path == WALL_CLOCK_EXEMPT:
            continue
        code = strip_comments(tree.files[path])
        for m in WALL_CLOCK_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: {m.group(0).rstrip('(')}"
                f"() reads the wall clock directly — production code takes "
                f"its time from an injected util::Clock& (virtual time in "
                f"simulation); for a blocking cv-wait deadline use "
                f"util::SystemClock::instance().now() and say why")
    return errors


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def check_self_include(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".cpp",)):
        header = path[:-len(".cpp")] + ".h"
        if header not in tree.files:
            continue
        # Headers are included relative to src/.
        own = header[len("src/"):]
        includes = INCLUDE_RE.findall(tree.files[path])
        if not includes or includes[0] != own:
            errors.append(
                f"{path}: first #include must be its own header "
                f"\"{own}\" (proves the header is self-sufficient); "
                f"found {includes[0] if includes else 'none'!r}")
    return errors


def check_config_builder(tree: Tree) -> list[str]:
    errors = []
    for path in tree.files:
        if path in CONFIG_BRACE_EXEMPT:
            continue
        code = strip_comments(tree.files[path])
        for m in CONFIG_BRACE_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: direct TpsConfig "
                f"brace-initialization — construct configs with "
                f"TpsConfig::Builder (src/tps/session.h), which validates "
                f"every knob at build() time")
    return errors


METRICS_MANIFEST_FILE = "src/obs/instruments.h"
# A whole-literal registration: the closing quote must be followed by `,`
# or `)` so runtime-composed names ("net." + scheme + "...") stay exempt.
METRIC_CALL_RE = re.compile(
    r'\b(?:counter|gauge|histogram)\s*\(\s*'
    r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"\s*[,)]')
METRIC_NAME_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')


def parse_metrics_manifest(tree: Tree) -> set[str] | None:
    text = tree.files.get(METRICS_MANIFEST_FILE)
    if text is None:
        return None
    return set(METRIC_NAME_RE.findall(strip_comments(text)))


def check_metrics_manifest(tree: Tree) -> list[str]:
    errors = []
    manifest = parse_metrics_manifest(tree)
    if manifest is None:
        return [f"{METRICS_MANIFEST_FILE}: instrument-name manifest "
                f"not found"]
    used: dict[str, str] = {}  # name -> first "file:line"
    for path in tree.matching("src/", (".h", ".cpp")):
        if path == METRICS_MANIFEST_FILE:
            continue
        code = strip_comments(tree.files[path])
        for m in METRIC_CALL_RE.finditer(code):
            used.setdefault(m.group(1), f"{path}:{line_of(code, m.start())}")
    for name in sorted(set(used) - manifest):
        errors.append(
            f"{used[name]}: metric \"{name}\" is not in the instrument "
            f"manifest in {METRICS_MANIFEST_FILE} — add it there (a typo'd "
            f"name mints a dead time series; make every name deliberate)")
    for name in sorted(manifest - set(used)):
        errors.append(
            f"{METRICS_MANIFEST_FILE}: manifest entry \"{name}\" is never "
            f"registered in src/ — remove it (or restore the "
            f"instrumentation that used it)")
    return errors


def check_raw_decode(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        if path in RAW_DECODE_EXEMPT:
            continue
        code = strip_comments(tree.files[path])
        for m in RAW_DECODE_MEMCPY_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: {m.group(0).strip('(').strip()}() "
                f"outside util/bytes — decode/encode through "
                f"util::ByteReader/ByteWriter (the audited, fuzzed trust "
                f"boundary), not hand-rolled byte surgery")
        for m in RAW_DECODE_CAST_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: byte-pointer "
                f"reinterpret_cast outside util/bytes — decode through "
                f"util::ByteReader (or util::to_bytes/to_string for text), "
                f"not pointer reinterpretation")
    return errors


# The per-frame hot path: files that run for every event sent or received.
# Advertisement/resolution code (jxta/pipe, jxta/wire, discovery, the TPS
# session setup) parses XML by design and is deliberately NOT listed.
XML_HOT_PATH_PREFIXES = ("src/net/",)
XML_HOT_PATH_FILES = (
    "src/jxta/message.h", "src/jxta/message.cpp",
    "src/jxta/endpoint.h", "src/jxta/endpoint.cpp",
    "src/tps/batch.h", "src/tps/batch.cpp",
    "src/tps/dispatch.h", "src/tps/dispatch.cpp",
    "src/tps/encode_cache.h", "src/tps/encode_cache.cpp",
    "src/tps/codec.h",  # the interface; codec.cpp hosts XmlCodec and may
)                       # include xml/ — callers see only the vtable


def check_xml_hot_path(tree: Tree) -> list[str]:
    errors = []
    # Include graph over src/ ("a/b.h" resolves to "src/a/b.h").
    graph: dict[str, list[str]] = {}
    for path in tree.matching("src/", (".h", ".cpp")):
        graph[path] = ["src/" + inc for inc in
                       INCLUDE_RE.findall(strip_comments(tree.files[path]))]
    roots = [p for p in graph
             if p.startswith(XML_HOT_PATH_PREFIXES)
             or p in XML_HOT_PATH_FILES]
    for root in sorted(roots):
        # BFS with parent links so the report shows the include chain.
        parent: dict[str, str | None] = {root: None}
        queue = [root]
        chain: list[str] | None = None
        while queue and chain is None:
            cur = queue.pop(0)
            for inc in graph.get(cur, []):
                if inc.startswith("src/xml/"):
                    chain = [inc, cur]
                    node = cur
                    while parent[node] is not None:
                        node = parent[node]
                        chain.append(node)
                    chain.reverse()
                    break
                if inc in graph and inc not in parent:
                    parent[inc] = cur
                    queue.append(inc)
        if chain is not None:
            errors.append(
                f"{root}: wire hot-path file reaches src/xml/ "
                f"({' -> '.join(chain)}) — the per-frame send/receive path "
                f"must stay XML-free; decode through the codec interface "
                f"(tps/codec.h) and keep XML behind it")
    return errors


DEDUP_DEQUE_RE = re.compile(
    r"\bstd::deque\s*<\s*(?:::)?(?:p2p::)?(?:util::)?Uuid\s*>")
DEDUP_DEQUE_EXEMPT = "src/util/dedup_ring.h"


def check_dedup_structure(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        if path == DEDUP_DEQUE_EXEMPT:
            continue
        code = strip_comments(tree.files[path])
        for m in DEDUP_DEQUE_RE.finditer(code):
            errors.append(
                f"{path}:{line_of(code, m.start())}: {m.group(0)} — a "
                f"second duplicate-suppression structure; remember ids in "
                f"util::DedupRing (util/dedup_ring.h), the one ring behind "
                f"TPS, rendezvous and SR-JXTA dedup")
    return errors


LISTENER_RE = re.compile(r"\bset_listener\s*\(")
LISTENER_PUBLISH_RE = re.compile(
    r"\b(?:publish|try_publish|publish_on_wire)\s*\(")


def paren_span_end(code: str, open_pos: int) -> int | None:
    """Index of the ')' matching the '(' at open_pos; skips string and
    character literals. None when unbalanced."""
    depth = 0
    i = open_pos
    while i < len(code):
        c = code[i]
        if c in "\"'":
            i += 1
            while i < len(code) and code[i] != c:
                i += 2 if code[i] == "\\" else 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def check_listener_publish(tree: Tree) -> list[str]:
    errors = []
    for path in tree.matching("src/", (".h", ".cpp")):
        code = strip_comments(tree.files[path])
        for m in LISTENER_RE.finditer(code):
            open_pos = m.end() - 1
            end = paren_span_end(code, open_pos)
            if end is None:
                continue
            body = code[open_pos:end]
            for pm in LISTENER_PUBLISH_RE.finditer(body):
                errors.append(
                    f"{path}:{line_of(code, open_pos + pm.start())}: "
                    f"{pm.group(0).rstrip('(').strip()}() called inside a "
                    f"set_listener() lambda — listeners run on the "
                    f"transport's delivery thread and must only "
                    f"decode/enqueue/forward; hand the work to the delivery "
                    f"executor (tps/dispatch.h) or a separate thread")
    return errors


CHECKS = {
    "wire-manifest": check_wire_manifest,
    "raw-mutex": check_raw_mutex,
    "test-sleep": check_test_sleep,
    "src-sleep": check_src_sleep,
    "wall-clock": check_wall_clock,
    "self-include": check_self_include,
    "config-builder": check_config_builder,
    "metrics-manifest": check_metrics_manifest,
    "raw-decode": check_raw_decode,
    "xml-hot-path": check_xml_hot_path,
    "listener-publish": check_listener_publish,
    "dedup-structure": check_dedup_structure,
}


def self_test() -> int:
    """Each fabricated violation must be caught by its check."""
    good_manifest = (
        f"// {MANIFEST_BEGIN}\n\"aa:used\",\n// {MANIFEST_END}\n")
    good_dict = '"aa:used"\n'
    cases = [
        ("wire-manifest catches unlisted name",
         Tree({MANIFEST_FILE: good_manifest, DICT_FILE: good_dict,
               "src/x/wire.cpp": 'send("aa:unlisted");'}),
         "wire-manifest"),
        ("wire-manifest catches stale entry",
         Tree({MANIFEST_FILE: good_manifest, DICT_FILE: good_dict,
               "src/x/wire.cpp": 'send("nothing here");'}),
         "wire-manifest"),
        ("wire-manifest ignores urn literals",
         Tree({MANIFEST_FILE: good_manifest, DICT_FILE: good_dict,
               "src/x/wire.cpp": 'id("urn:jxta"); send("aa:used");'}),
         None),
        ("wire-manifest catches dict missing a manifest name",
         Tree({MANIFEST_FILE: good_manifest, DICT_FILE: '"zz:other"\n',
               "src/x/wire.cpp": 'send("aa:used");'}),
         "wire-manifest"),
        ("raw-mutex catches std::mutex",
         Tree({"src/x/a.h": "std::mutex mu_;"}),
         "raw-mutex"),
        ("raw-mutex catches std::condition_variable in comments? no",
         Tree({"src/x/a.h": "// std::mutex in prose is fine\n"}),
         None),
        ("test-sleep catches bare sleep_for",
         Tree({"tests/a_test.cpp":
               "std::this_thread::sleep_for(std::chrono::seconds(1));"}),
         "test-sleep"),
        ("test-sleep allows tests/support",
         Tree({"tests/support/timing.h":
               "std::this_thread::sleep_for(duration);"}),
         None),
        ("src-sleep catches sleep_for in src",
         Tree({"src/x/a.cpp":
               "std::this_thread::sleep_for(window);"}),
         "src-sleep"),
        ("src-sleep catches sleep_until in a header",
         Tree({"src/x/a.h":
               "std::this_thread::sleep_until(deadline);"}),
         "src-sleep"),
        ("src-sleep ignores comments and get_id",
         Tree({"src/x/a.cpp":
               "// std::this_thread::sleep_for would park the thread\n"
               "auto id = std::this_thread::get_id();\n"}),
         None),
        ("wall-clock catches steady_clock::now in src",
         Tree({"src/x/a.cpp":
               "const auto t = std::chrono::steady_clock::now();"}),
         "wall-clock"),
        ("wall-clock catches unqualified system_clock::now in a header",
         Tree({"src/x/a.h": "auto t = system_clock::now();"}),
         "wall-clock"),
        ("wall-clock exempts util/clock.h and ignores comments",
         Tree({"src/util/clock.h":
               "return std::chrono::steady_clock::now();",
               "src/x/a.cpp":
               "// steady_clock::now() is banned here\n"
               "auto t = clock_.now();\n"}),
         None),
        ("self-include catches wrong first include",
         Tree({"src/x/a.h": "", "src/x/a.cpp":
               '#include "x/b.h"\n#include "x/a.h"\n'}),
         "self-include"),
        ("self-include accepts own header first",
         Tree({"src/x/a.h": "", "src/x/a.cpp":
               '#include "x/a.h"\n#include "x/b.h"\n'}),
         None),
        ("config-builder catches aggregate init with fields",
         Tree({"tests/a_test.cpp":
               "tps::TpsConfig config = {.batching = true};"}),
         "config-builder"),
        ("config-builder catches braced temporary",
         Tree({"bench/b.cpp": "run(tps::TpsConfig{1500});"}),
         "config-builder"),
        ("config-builder allows empty braces and the Builder",
         Tree({"examples/e.cpp":
               "tps::TpsConfig a = {};\n"
               "auto b = tps::TpsConfig::Builder().no_history().build();\n"
               "a.batching = true;\n"}),
         None),
        ("metrics-manifest catches unlisted metric",
         Tree({METRICS_MANIFEST_FILE: '"tps.listed",\n',
               "src/x/a.cpp": 'reg.counter("tps.unlisted").inc();\n'
                              'reg.gauge("tps.listed").set(1);\n'}),
         "metrics-manifest"),
        ("metrics-manifest catches stale manifest entry",
         Tree({METRICS_MANIFEST_FILE: '"tps.gone",\n"tps.kept",\n',
               "src/x/a.cpp": 'reg.histogram("tps.kept").record(1);\n'}),
         "metrics-manifest"),
        ("metrics-manifest exempts runtime-composed names",
         Tree({METRICS_MANIFEST_FILE: '"net.used",\n',
               "src/x/a.cpp":
               'reg.counter("net." + scheme + ".send_failures").inc();\n'
               'reg.counter("net.used").inc();\n'}),
         None),
        ("raw-decode catches memcpy in src",
         Tree({"src/x/a.cpp":
               "std::memcpy(frame.data() + 6, src.data(), src.size());"}),
         "raw-decode"),
        ("raw-decode catches byte-pointer reinterpret_cast",
         Tree({"src/x/a.cpp":
               "const std::string s(reinterpret_cast<const char*>(p + 6), "
               "n);"}),
         "raw-decode"),
        ("raw-decode allows sockaddr and uintptr casts, and util/bytes",
         Tree({"src/x/a.cpp":
               "::bind(fd, reinterpret_cast<sockaddr*>(&addr), len);\n"
               "auto u = reinterpret_cast<std::uintptr_t>(ptr);\n",
               "src/util/bytes.cpp":
               "std::memcpy(&out, data_.data() + pos_, 8);\n"}),
         None),
        ("xml-hot-path catches a direct include",
         Tree({"src/net/framing.h": '#include "xml/xml.h"\n'}),
         "xml-hot-path"),
        ("xml-hot-path catches a transitive include",
         Tree({"src/net/framing.h": '#include "tps/event.h"\n',
               "src/tps/event.h": '#include "xml/xml.h"\n',
               "src/xml/xml.h": ""}),
         "xml-hot-path"),
        ("xml-hot-path ignores advertisement-plane includes",
         Tree({"src/jxta/pipe.h": '#include "jxta/advertisement.h"\n',
               "src/jxta/advertisement.h": '#include "xml/xml.h"\n',
               "src/xml/xml.h": ""}),
         None),
        ("listener-publish catches inline publish",
         Tree({"src/x/a.cpp":
               "pipe->set_listener([this](Message m) {\n"
               "  publish(decode(m));\n"
               "});\n"}),
         "listener-publish"),
        ("listener-publish catches try_publish and publish_on_wire",
         Tree({"src/x/a.cpp":
               "pipe->set_listener([this](Message m) {\n"
               "  if (!try_publish(m)) publish_on_wire(id, m);\n"
               "});\n"}),
         "listener-publish"),
        ("listener-publish allows forwarding listeners",
         Tree({"src/x/a.cpp":
               "pipe->set_listener([this](Message m) {\n"
               "  on_event_message(std::move(m));\n"
               "});\n"
               "publish(next);\n"}),
         None),
        ("dedup-structure catches an id FIFO beside a seen-set",
         Tree({"src/x/a.h":
               "std::unordered_set<util::Uuid> seen_;\n"
               "std::deque<util::Uuid> seen_order_;\n"}),
         "dedup-structure"),
        ("dedup-structure allows the ring and other deques",
         Tree({"src/util/dedup_ring.h": "std::deque<Uuid> order_;\n",
               "src/x/a.h":
               "util::DedupRing seen_;\n"
               "std::deque<PendingPublication> send_queue_;\n"
               "// std::deque<util::Uuid> in prose is fine\n"}),
         None),
    ]
    failures = 0
    for label, tree, expect_check in cases:
        hits = {name: fn(tree) for name, fn in CHECKS.items()
                if (name != "wire-manifest" or MANIFEST_FILE in tree.files)
                and (name != "metrics-manifest"
                     or METRICS_MANIFEST_FILE in tree.files)}
        flagged = [name for name, errs in hits.items() if errs]
        ok = (flagged == [expect_check]) if expect_check else (not flagged)
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              + ("" if ok else f" (flagged: {flagged or 'nothing'})"))
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO,
                        help="repository root (default: script's parent)")
    parser.add_argument("--check", action="append", choices=sorted(CHECKS),
                        help="run only this check (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list available checks and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each check catches a seeded violation")
    args = parser.parse_args()

    if args.list:
        for name in sorted(CHECKS):
            print(name)
        return 0
    if args.self_test:
        return self_test()

    tree = Tree.from_repo(args.root)
    selected = args.check or sorted(CHECKS)
    errors = []
    for name in selected:
        errors.extend(CHECKS[name](tree))
    for message in errors:
        print(message)
    if errors:
        print(f"\nlint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint: clean ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
