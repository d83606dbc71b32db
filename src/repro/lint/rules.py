"""The determinism & simulation-safety rule set.

Each rule is a small AST pass with a stable code, a slug used in
``# repro: allow-<slug>`` suppressions, and a docstring that ends with
why it is kept: the defect it caught here, or why no runtime test can
stand in for it (see DESIGN.md, "Determinism rules").  Rules yield
:class:`RawFinding`s; the engine in :mod:`repro.lint.engine` attaches
file context and suppressions.

The rule set is deliberately conservative: every check is a syntactic
pattern that has produced a real nondeterminism bug in this codebase
(salted ``hash()`` buckets, hash-ordered iteration) or is a well-known
Python hazard in a deterministic-replay setting (ambient RNG, wall-clock
reads inside the simulation, mutable defaults, swallowed event-loop
errors).  Anything it cannot prove is left to the suppression mechanism
rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

#: Module prefixes where simulated time is the only legal clock and a
#: silently swallowed exception can corrupt a run (D004 / S001 scope).
SIM_MODULES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.transport",
    "repro.faults",
)

#: ``random``-module functions that use the shared, ambiently seeded
#: global RNG (D003).  Calling any of them couples a simulation to
#: whatever other code touched the global state before it.
_GLOBAL_RNG_FUNCS: Tuple[str, ...] = (
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
)

#: Wall-clock callables (D004), as dotted suffixes of the call target.
_WALL_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
)

#: Constructors whose value is mutable (D005 defaults).
_MUTABLE_CTORS: Tuple[str, ...] = (
    "list", "dict", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict",
)


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before file context is attached."""

    line: int
    col: int
    message: str


class FileContext:
    """What a rule may know about the file being linted."""

    def __init__(self, path: str, module: str, lines: Sequence[str]) -> None:
        self.path = path
        self.module = module
        self.lines = list(lines)

    def in_sim_modules(self) -> bool:
        return self.module.startswith(SIM_MODULES)


class Rule:
    """Base class: subclasses define the class attributes and ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""
    motivation: str = ""

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code} {self.name}>"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.AST, module: str,
                    wanted: Sequence[str]) -> Set[str]:
    """Local names bound by ``from <module> import <wanted...>``."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name in wanted:
                    found.add(alias.asname or alias.name)
    return found


class HashBuiltinRule(Rule):
    """D001 — builtin ``hash()`` reaching a keying/scheduling decision.

    ``hash()`` of str/bytes/object is salted per process
    (``PYTHONHASHSEED``): two sweep workers, or a run and its cached
    replay, compute different values for the same input.  Any place the
    value influences bucketing, ordering, or a persisted key silently
    breaks bit-identical replay.  Use ``zlib.crc32`` / ``hashlib`` over
    a canonical encoding instead; in-process-only uses (``__hash__``
    delegating to a content digest) are suppressed with a justification.

    Kept because it names a shipped defect: SFQ keyed its buckets on
    ``hash(flow)`` and results differed per worker until PR 2.
    """

    code = "D001"
    name = "hash-builtin"
    summary = "builtin hash() is salted per process (PYTHONHASHSEED)"
    motivation = ("the SFQ qdisc keyed fair-queue buckets on hash(flow); "
                  "results differed per worker process (fixed in PR 2)")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "builtin hash() is salted per process (PYTHONHASHSEED); "
                    "use zlib.crc32/hashlib over a canonical encoding for "
                    "any value that can reach scheduling, keying, or disk",
                )


class UnorderedIterRule(Rule):
    """D002 — iteration whose order is not content-determined.

    Set iteration order is a function of the per-process hash salt: any
    loop over a set can visit elements in a different order in another
    process.  Dict views iterate in *insertion* order — deterministic
    only when the insertion order itself is; exported or scheduled
    sequences must be canonicalized with ``sorted(...)`` so the output
    order is a function of content alone.

    Kept because it found a live one: pushback reviewed links and
    ranked contributors in dict order until the sweep that adopted this
    rule sorted them (the ``CACHE_SALT`` v4 bump).
    """

    code = "D002"
    name = "unordered-iter"
    summary = "iteration order depends on hash salt or insertion history"
    motivation = ("metric export and event scheduling must be functions of "
                  "simulation content; hash-ordered iteration broke "
                  "cross-process JSON diffs")

    _DICT_VIEWS = ("keys", "values", "items")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        set_names = self._set_bound_names(tree)
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                hit = self._classify(it, set_names)
                if hit is not None:
                    yield RawFinding(it.lineno, it.col_offset, hit)

    # -- helpers -------------------------------------------------------
    def _set_bound_names(self, tree: ast.AST) -> Set[str]:
        """Names only ever assigned set-valued expressions."""
        bound: Dict[str, Set[str]] = {}

        def note(target: ast.AST, kind: str) -> None:
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, set()).add(kind)

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                kind = "set" if self._is_set_expr(node.value) else "other"
                for target in node.targets:
                    note(target, kind)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                note(node.target,
                     "set" if self._is_set_expr(node.value) else "other")
        return {name for name, kinds in sorted(bound.items())
                if kinds == {"set"}}

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _classify(self, it: ast.AST, set_names: Set[str]) -> Optional[str]:
        if self._is_set_expr(it):
            return ("set iteration order is hash-salted and differs across "
                    "processes; iterate sorted(...) instead")
        if isinstance(it, ast.Name) and it.id in set_names:
            return (f"{it.id!r} is a set; its iteration order is "
                    "hash-salted — iterate sorted(...) instead")
        if (isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in self._DICT_VIEWS
                and not it.args and not it.keywords):
            return (f".{it.func.attr}() iterates in insertion order, which "
                    "is history — not content; wrap in sorted(...) so "
                    "exported/scheduled order is canonical")
        return None


class UnseededRandomRule(Rule):
    """D003 — ambient or unseeded randomness.

    The simulator's determinism contract is that *every* random draw
    derives from the scenario seed.  The module-level ``random.*``
    functions share one global RNG seeded from OS entropy, and
    ``random.Random()`` with no arguments does the same; either one
    makes a run irreproducible.  Construct ``random.Random(seed_expr)``
    from configuration instead.

    Kept because the runtime determinism diffs only replay the paths
    their few scenarios take; an ambient draw elsewhere shows up as a
    flaky figure nobody can bisect.
    """

    code = "D003"
    name = "unseeded-random"
    summary = "ambient global RNG or random.Random() without a seed"
    motivation = ("every draw must derive from ScenarioSpec.seed or runs "
                  "stop being replayable across workers and cache hits")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        from_random = _imported_names(
            tree, "random", _GLOBAL_RNG_FUNCS + ("Random", "SystemRandom"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted(node.func)
            if target is None:
                continue
            if target in ("random.Random",) or (
                    isinstance(node.func, ast.Name)
                    and node.func.id in from_random
                    and node.func.id == "Random"):
                if not node.args and not node.keywords:
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        "random.Random() with no arguments seeds from OS "
                        "entropy; pass an explicit seed expression derived "
                        "from the scenario seed",
                    )
            elif target == "random.SystemRandom" or (
                    isinstance(node.func, ast.Name)
                    and node.func.id in from_random
                    and node.func.id == "SystemRandom"):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "random.SystemRandom draws OS entropy and can never be "
                    "replayed; use a seeded random.Random",
                )
            elif (target.startswith("random.")
                    and target.split(".", 1)[1] in _GLOBAL_RNG_FUNCS):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    f"{target}() uses the shared global RNG; draw from a "
                    "random.Random instance seeded from the scenario seed",
                )
            elif (isinstance(node.func, ast.Name)
                    and node.func.id in from_random
                    and node.func.id in _GLOBAL_RNG_FUNCS):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    f"random.{node.func.id} imported bare still uses the "
                    "shared global RNG; draw from a seeded random.Random",
                )


class WallClockRule(Rule):
    """D004 — wall-clock reads inside the simulation core.

    Inside ``repro.sim`` / ``repro.core`` / ``repro.transport`` /
    ``repro.faults`` the only clock is ``Simulator.now``; a wall-clock
    read couples results to host load and walltime, which no cache salt
    can account for.  Benchmark/offline code (``repro.eval``) may time
    itself freely.

    Kept because no test can stand in for it: a wall-clock-coupled
    result is byte-stable on one idle machine, which is where the
    determinism diffs run.
    """

    code = "D004"
    name = "wall-clock"
    summary = "wall-clock call inside the simulation core"
    motivation = ("simulated time is the only clock the determinism "
                  "guarantee covers; procbench-style timing belongs in "
                  "repro.eval")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        if not ctx.in_sim_modules():
            return
        bare = _imported_names(
            tree, "time",
            tuple(s.split(".", 1)[1] for s in _WALL_CLOCK_CALLS
                  if s.startswith("time.")))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted(node.func)
            if target is not None and any(
                    target == suffix or target.endswith("." + suffix)
                    for suffix in _WALL_CLOCK_CALLS):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    f"{target}() reads the wall clock inside the simulation "
                    "core; use the simulator's clock (sim.now) instead",
                )
            elif (isinstance(node.func, ast.Name)
                    and node.func.id in bare):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    f"time.{node.func.id} imported bare reads the wall "
                    "clock inside the simulation core; use sim.now",
                )


class MutableDefaultRule(Rule):
    """D005 — mutable default arguments.

    A mutable default is one object shared by every call: state leaks
    between simulations that should be independent, which shows up as
    run N's results depending on whether runs 1..N-1 happened in the
    same process — exactly the class of bug the jobs=1 vs jobs=N
    determinism diff exists to catch.

    Kept because that diff sees the leak only when its own scenarios
    run through the leaking function twice in one process.
    """

    code = "D005"
    name = "mutable-default"
    summary = "mutable default argument shared across calls"
    motivation = ("cross-run state leaks make results depend on call "
                  "history, breaking jobs=1 vs jobs=N equivalence")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    yield RawFinding(
                        default.lineno, default.col_offset,
                        "mutable default argument is shared by every call; "
                        "default to None (or a tuple) and construct inside "
                        "the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            target = _dotted(node.func)
            if target is not None:
                return target.split(".")[-1] in _MUTABLE_CTORS
        return False


class RngProvenanceRule(Rule):
    """D006 — ``random.Random(<literal>)``: a seed no spec can reach.

    D003 accepts any seeded ``Random``; this rule rejects the seeds that
    are constants.  A literal-seeded RNG inside a helper draws the same
    stream for every ``ScenarioSpec.seed``, so a multi-seed sweep
    silently averages one sample — and no runtime check can see it,
    because every such run is perfectly deterministic.

    The check is syntactic: every argument is a constant.  It does not
    follow names, so ``Random(i)`` over a literal ``range``, a seed
    laundered through a local variable, and an RNG stored into a module
    global from a derived seed all pass; ``Random(int(time.time()))``
    inside the simulation core is D004's.
    """

    code = "D006"
    name = "rng-provenance"
    summary = "RNG seed does not derive from a parameter or spec attribute"
    motivation = ("a literal-seeded Random() deep in a helper decouples "
                  "results from ScenarioSpec.seed")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        bare = _imported_names(tree, "random", ("Random",))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted(node.func)
            if target != "random.Random" and target not in bare:
                continue
            seeds = list(node.args) + [kw.value for kw in node.keywords]
            if seeds and all(isinstance(s, ast.Constant) for s in seeds):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "random.Random(...) seed does not derive from a "
                    "function parameter or spec attribute; thread the "
                    "seed from ScenarioSpec so results stay coupled to "
                    "the recorded seed",
                )


class SwallowedExceptionRule(Rule):
    """S001 — bare ``except:`` anywhere; silent ``pass`` handlers in the
    simulation core.

    A bare ``except:`` also catches ``KeyboardInterrupt``/``SystemExit``
    and hides typos forever.  Inside the simulation core, a handler
    whose whole body is ``pass``/``continue`` turns a corrupted event
    into a silently wrong figure — the event loop must either handle an
    error meaningfully or let it surface.

    Kept because an exception that never surfaces is, by construction,
    invisible to every runtime check.
    """

    code = "S001"
    name = "swallowed-exception"
    summary = "bare except / silently swallowed exception"
    motivation = ("a swallowed event-loop error yields a wrong figure "
                  "instead of a failing run")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "bare except: catches SystemExit/KeyboardInterrupt and "
                    "hides programming errors; name the exception types",
                )
            elif ctx.in_sim_modules() and all(
                    isinstance(stmt, (ast.Pass, ast.Continue))
                    for stmt in node.body):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "exception silently swallowed inside the simulation "
                    "core; handle it meaningfully or let it surface",
                )


class HotPathCodecRule(Rule):
    """P001 — per-call codec/hash construction in the hot packet path.

    Inside ``repro.core`` / ``repro.sim`` every packet pays these costs,
    so they must be paid once at import time, not per call:

    * ``struct.pack``/``unpack``/``calcsize``/``Struct`` with a *dynamic*
      format string rebuilds (or re-looks-up) the parsed codec on every
      call — precompile a ``struct.Struct`` per shape and cache it;
    * any ``hashlib`` constructor allocates a fresh hash object — in the
      hot path it belongs behind a memo (secret LRU, interface-tag
      cache, validation-verdict cache).

    The designated cached sites — the memo-miss branches that *are* the
    cache — carry ``# repro: allow-p001`` with a justification.

    Kept because it names a shipped defect (``keyed_hash56`` rebuilt its
    format string per call) and the op-count guard counts hashes, not
    codec parses.
    """

    code = "P001"
    name = "hot-path-codec"
    summary = ("dynamic struct format or hashlib construction in the "
               "per-packet hot path")
    motivation = ("keyed_hash56 rebuilt its struct format string per call; "
                  "precompiling the codecs was a measurable share of the "
                  "fast-path speedup (see DESIGN.md, fast path)")

    _HOT_MODULES = ("repro.core", "repro.sim")
    _STRUCT_FUNCS = ("pack", "unpack", "pack_into", "unpack_from",
                     "iter_unpack", "calcsize", "Struct")
    _HASHLIB_CTORS = ("new", "blake2b", "blake2s", "md5", "sha1", "sha224",
                      "sha256", "sha384", "sha512", "sha3_224", "sha3_256",
                      "sha3_384", "sha3_512", "shake_128", "shake_256")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        if not ctx.module.startswith(self._HOT_MODULES):
            return
        struct_names = _imported_names(tree, "struct", self._STRUCT_FUNCS)
        hashlib_names = _imported_names(tree, "hashlib", self._HASHLIB_CTORS)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _dotted(node.func)
            func = self._struct_func(node, target, struct_names)
            if func is not None:
                fmt = node.args[0] if node.args else None
                if fmt is not None and not self._is_static_str(fmt):
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        f"struct.{func} with a dynamic format string "
                        "re-parses the codec on every packet; precompile "
                        "a struct.Struct per shape and cache it at module "
                        "level",
                    )
            elif self._is_hashlib_ctor(node, target, hashlib_names):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "hashlib construction in the per-packet hot path; "
                    "route it through a cached helper (secret LRU, tag "
                    "memo) or mark the designated miss site with "
                    "# repro: allow-p001",
                )

    def _struct_func(self, node: ast.Call, target: Optional[str],
                     imported: Set[str]) -> Optional[str]:
        if target is not None and target.startswith("struct."):
            func = target.split(".", 1)[1]
            if func in self._STRUCT_FUNCS:
                return func
        if (isinstance(node.func, ast.Name)
                and node.func.id in imported):
            return node.func.id
        return None

    @staticmethod
    def _is_static_str(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def _is_hashlib_ctor(self, node: ast.Call, target: Optional[str],
                         imported: Set[str]) -> bool:
        if target is not None and target.startswith("hashlib."):
            return target.split(".", 1)[1] in self._HASHLIB_CTORS
        return (isinstance(node.func, ast.Name)
                and node.func.id in imported)


class HotPathAllocRule(Rule):
    """P002 — per-packet allocations in the simulation hot path that an
    existing scheduling or packet-pool API avoids.

    Two patterns, both strictly dominated by an existing API:

    * A bare ``sim.after(...)`` / ``sim.at(...)`` whose :class:`Event`
      handle is discarded.  An un-kept handle can never be cancelled, so
      the call pays the Event allocation plus live/cancelled bookkeeping
      for nothing — ``sim.call_after`` / ``sim.call_at`` schedule the
      same callback at the same (time, seq) position as a plain 4-tuple.
      Sites that keep the handle (``self._timer = sim.after(...)``) are
      untouched: cancellability is exactly what the Event buys.
    * Direct ``Packet(...)`` construction.  It draws uids from the
      module-global fallback counter, so back-to-back runs in one
      process see different uid sequences (shifting hash-keyed queue
      decisions), and the packet can never recycle through the
      simulator's pool — the data path allocates via
      ``sim.alloc_packet``.

    The pool's own miss branch — the one place that *must* construct a
    ``Packet`` — carries ``# repro: allow-p002``.

    Kept because an Event allocation is not an op the guard counts, and
    the uid drift only shows when two runs share a process.
    """

    code = "P002"
    name = "hot-path-alloc"
    summary = ("discarded sim.after/sim.at Event or direct Packet() "
               "construction where call_after/call_at or "
               "sim.alloc_packet does the same without the allocation")
    motivation = ("per-packet Event allocation and module-global packet "
                  "uids were a measurable share of the flood-scenario "
                  "event-loop cost (see DESIGN.md, fast path)")

    _HOT_MODULES = ("repro.sim", "repro.core", "repro.transport",
                    "repro.faults")
    _SCHED = {"after": "call_after", "at": "call_at"}

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        if not ctx.module.startswith(self._HOT_MODULES):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                finding = self._discarded_schedule(node.value)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Call) and self._is_packet_ctor(node):
                yield RawFinding(
                    node.lineno, node.col_offset,
                    "direct Packet() construction in the hot path draws "
                    "from the module-global uid counter and bypasses the "
                    "pool; allocate via sim.alloc_packet (the pool's own "
                    "miss branch carries # repro: allow-p002)",
                )

    def _discarded_schedule(self, call: ast.Call) -> Optional[RawFinding]:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._SCHED:
            return None
        receiver = _dotted(func.value)
        if receiver is None:
            return None
        if receiver.split(".")[-1].lstrip("_") != "sim":
            return None
        cheap = self._SCHED[func.attr]
        return RawFinding(
            call.lineno, call.col_offset,
            f"{receiver}.{func.attr}(...) with the Event handle discarded "
            "allocates a cancellable Event that nothing can cancel; use "
            f"{receiver}.{cheap}(...) (fire-and-forget 4-tuple, identical "
            "ordering) or keep the handle if cancellation is the point",
        )

    @staticmethod
    def _is_packet_ctor(node: ast.Call) -> bool:
        target = _dotted(node.func)
        return target is not None and (
            target == "Packet" or target.endswith(".Packet"))


#: The registry, in rule-code order.  Engine and CLI both consume this.
RULES: Tuple[Rule, ...] = (
    HashBuiltinRule(),
    UnorderedIterRule(),
    UnseededRandomRule(),
    WallClockRule(),
    MutableDefaultRule(),
    RngProvenanceRule(),
    SwallowedExceptionRule(),
    HotPathCodecRule(),
    HotPathAllocRule(),
)

#: Lookup by code or slug (both accepted in --select and suppressions).
RULES_BY_KEY: Dict[str, Rule] = {}
for _rule in RULES:
    RULES_BY_KEY[_rule.code] = _rule
    RULES_BY_KEY[_rule.name] = _rule
