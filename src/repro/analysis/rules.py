"""The ``reprolint`` rule set: this repo's correctness invariants as code.

Every rule enforces an invariant the reproduction's claims rest on
(bitwise determinism, float64 dtype discipline, autograd integrity, lock
discipline in the distributed trainer).  Rules are registered in
:data:`RULES` keyed by code, and each one is a pure function from a
:class:`ModuleContext` to an iterable of
:class:`~repro.analysis.findings.Finding`.

Suppression syntax (handled by :mod:`repro.analysis.engine`)::

    something_bad()  # reprolint: disable=RPL001
    # reprolint: disable=RPL003,RPL005   (standalone: applies to next line)

The rules
---------
========  ======================  ==============================================
code      name                    invariant
========  ======================  ==============================================
RPL001    no-global-rng           only seeded ``np.random.Generator`` objects
RPL002    no-dtype-narrowing      float64 discipline outside ``repro.nn``
RPL003    no-tensor-mutation      ``.data``/``.grad`` writes only in whitelisted
                                  optimizer / serialization / chief modules
RPL004    no-mutable-default      no mutable default arguments
RPL005    lock-discipline         lock-guarded attributes only touched under
                                  ``with self._lock`` (intra-class dataflow)
RPL006    no-wall-clock           no ``time.sleep``/wall-clock in deterministic
                                  paths (fault injector & backoff whitelisted)
RPL007    no-swallowed-exception  no bare ``except:`` / silent ``except: pass``
RPL008    no-module-seed          test files seed via fixtures, not at import
RPL009    no-bare-print           library code reports via ``repro.obs`` logging
                                  / metrics, not ``print()`` (CLI, reporting
                                  entry points, examples/ and benchmarks/
                                  whitelisted — stdout is their interface)
RPL010    no-percall-index-alloc  ``repro.nn`` hot ops must not build index
                                  arrays (``np.arange``/``np.repeat``/
                                  ``np.tile``) or scatter with ``np.add.at``
                                  per call — use a cached kernel plan
                                  (plan-construction code is exempt)
RPL011    no-fork-unsafe-state    ``repro.distributed`` worker entrypoints run
                                  post-fork and must receive every seed/config
                                  explicitly: no ``global`` statements, no
                                  reads of mutable module-level state, no
                                  unseeded ``default_rng()``
RPL012    no-raw-socket-io        socket construction and ``send``/``recv``
                                  calls only inside
                                  ``repro.distributed.transport`` — anywhere
                                  else they bypass framing, CRC checks,
                                  heartbeats and chaos injection
RPL017    no-naked-span           ``Tracer.span(...)`` builds a context
                                  manager: a bare call statement records
                                  nothing — it must be entered via ``with``
========  ======================  ==============================================

Whole-program rules (RPL013 lock-order-cycle, RPL014 rng-provenance,
RPL015 fork-reachability, RPL016 blocking-call-under-lock) live in
:mod:`repro.analysis.lockflow` / :mod:`repro.analysis.rngflow` and run
over the cross-module call graph via ``python -m repro lint --program``;
their runtime counterparts SAN004/SAN005 are
:mod:`repro.analysis.lockwatch`.
"""

from __future__ import annotations

import ast
import posixpath
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = ["Rule", "RULES", "ModuleContext", "rule", "rule_table"]


# ----------------------------------------------------------------------
# Context and registry
# ----------------------------------------------------------------------
class ModuleContext:
    """Everything a rule may look at for one module."""

    def __init__(self, tree: ast.Module, path: str, source: str):
        self.tree = tree
        self.path = posixpath.normpath(path.replace("\\", "/"))
        self.source = source

    @property
    def basename(self) -> str:
        return posixpath.basename(self.path)

    @property
    def is_test(self) -> bool:
        """Pytest-convention test modules (and conftest) get test-rule scope."""
        name = self.basename
        return (
            name.startswith("test_")
            or name.endswith("_test.py")
            or name == "conftest.py"
        )

    def path_matches(self, patterns: Sequence[str]) -> bool:
        """True when any pattern is a substring of the normalized path."""
        return any(pattern in self.path for pattern in patterns)

    # Import facts, computed lazily and cached.
    _imports: Optional[Set[str]] = None

    def imports(self) -> Set[str]:
        """Top-level module names imported anywhere in the file."""
        if self._imports is None:
            found: Set[str] = set()
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        found.add(alias.name.split(".")[0])
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found.add(node.module.split(".")[0])
            self._imports = found
        return self._imports


RuleChecker = Callable[[ModuleContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    description: str
    checker: RuleChecker

    def run(self, context: ModuleContext) -> List[Finding]:
        return list(self.checker(context))


RULES: Dict[str, Rule] = {}


def rule(code: str, name: str, description: str):
    """Class decorator-style registrar for rule checker functions."""

    def register(checker: RuleChecker) -> RuleChecker:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code=code, name=name, description=description, checker=checker)
        return checker

    return register


def rule_table() -> List[Tuple[str, str, str]]:
    """(code, name, description) rows for ``--list-rules`` output."""
    return [(r.code, r.name, r.description) for r in sorted(RULES.values(), key=lambda r: r.code)]


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(context: ModuleContext, code: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        code=code,
        rule=RULES[code].name if code in RULES else "",
        path=context.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


_NUMPY_ALIASES = ("np", "numpy")

# Seeded-RNG construction surface that *is* allowed on np.random.
_ALLOWED_NP_RANDOM = {
    "Generator",
    "default_rng",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


# ----------------------------------------------------------------------
# RPL001 — no global RNG state
# ----------------------------------------------------------------------
@rule(
    "RPL001",
    "no-global-rng",
    "use seeded np.random.Generator objects; never global np.random.* or "
    "the stdlib random module (breaks bitwise determinism claims)",
)
def check_global_rng(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test:
        return
    uses_stdlib_random = "random" in context.imports()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] in _NUMPY_ALIASES
                and parts[1] == "random"
                and parts[2] not in _ALLOWED_NP_RANDOM
            ):
                yield _finding(
                    context,
                    "RPL001",
                    node,
                    f"global numpy RNG call `{dotted}`: pass a seeded "
                    f"np.random.Generator instead",
                )
            elif len(parts) == 2 and parts[0] == "random" and uses_stdlib_random:
                yield _finding(
                    context,
                    "RPL001",
                    node,
                    f"stdlib `{dotted}` uses hidden global state: pass a "
                    f"seeded np.random.Generator instead",
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "random":
                yield _finding(
                    context,
                    "RPL001",
                    node,
                    "importing from the stdlib random module: use seeded "
                    "np.random.Generator objects",
                )
            elif node.module in ("numpy.random", "np.random"):
                for alias in node.names:
                    if alias.name not in _ALLOWED_NP_RANDOM:
                        yield _finding(
                            context,
                            "RPL001",
                            node,
                            f"importing global-state `numpy.random.{alias.name}`: "
                            f"use seeded np.random.Generator objects",
                        )


# ----------------------------------------------------------------------
# RPL002 — no dtype narrowing outside repro.nn
# ----------------------------------------------------------------------
_NARROW_FLOAT_NAMES = {"float32", "float16", "half", "single"}
_RPL002_EXEMPT = ("repro/nn/",)


def _is_narrow_float(node: ast.AST) -> Optional[str]:
    """The narrowing dtype spelled by ``node`` (np.float32, "float16", …)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in _NARROW_FLOAT_NAMES:
            return node.value
    dotted = _dotted(node)
    if dotted is not None:
        parts = dotted.split(".")
        if parts[-1] in _NARROW_FLOAT_NAMES and (
            len(parts) == 1 or parts[0] in _NUMPY_ALIASES
        ):
            return dotted
    return None


@rule(
    "RPL002",
    "no-dtype-narrowing",
    "repro.nn is float64 end to end; narrowing to float32/float16 outside "
    "nn internals silently degrades gradient checks",
)
def check_dtype_narrowing(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or context.path_matches(_RPL002_EXEMPT):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # x.astype(np.float32) / x.astype("float16")
        if isinstance(func, ast.Attribute) and func.attr == "astype" and node.args:
            narrow = _is_narrow_float(node.args[0])
            if narrow:
                yield _finding(
                    context,
                    "RPL002",
                    node,
                    f"dtype narrowing `.astype({narrow})`: the framework's "
                    f"dtype discipline is float64",
                )
        # np.float32(x) constructor
        dotted = _dotted(func)
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in _NUMPY_ALIASES
                and parts[1] in _NARROW_FLOAT_NAMES
            ):
                yield _finding(
                    context,
                    "RPL002",
                    node,
                    f"`{dotted}(...)` constructs a narrowed scalar/array: "
                    f"the framework's dtype discipline is float64",
                )
        # dtype=np.float32 keyword on any call
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                narrow = _is_narrow_float(keyword.value)
                if narrow:
                    yield _finding(
                        context,
                        "RPL002",
                        keyword.value,
                        f"`dtype={narrow}` narrows below float64",
                    )


# ----------------------------------------------------------------------
# RPL003 — no tensor .data/.grad mutation outside whitelisted modules
# ----------------------------------------------------------------------
# Modules allowed to write parameter/tensor state in place: the nn
# framework itself plus the chief-side gradient-application paths.
_RPL003_ALLOWED = (
    "repro/nn/",
    "repro/distributed/trainer.py",
    "repro/distributed/async_trainer.py",
    "repro/distributed/procpool.py",
    "repro/agents/policy.py",
    "repro/agents/edics.py",
)
_TENSOR_SLOTS = {"data", "grad"}


def _mutated_tensor_attr(target: ast.AST) -> Optional[ast.AST]:
    """The ``x.data`` / ``x.grad`` node mutated by this assignment target."""
    if isinstance(target, ast.Attribute) and target.attr in _TENSOR_SLOTS:
        return target
    if isinstance(target, ast.Subscript):
        value = target.value
        if isinstance(value, ast.Attribute) and value.attr in _TENSOR_SLOTS:
            return value
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            hit = _mutated_tensor_attr(element)
            if hit is not None:
                return hit
    return None


@rule(
    "RPL003",
    "no-tensor-mutation",
    "in-place writes to Tensor .data/.grad outside whitelisted "
    "optim/serialization/chief modules bypass the autograd tape",
)
def check_tensor_mutation(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or context.path_matches(_RPL003_ALLOWED):
        return
    for node in ast.walk(context.tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            hit = _mutated_tensor_attr(target)
            if hit is not None:
                name = _dotted(hit) or f"<expr>.{hit.attr}"  # type: ignore[attr-defined]
                yield _finding(
                    context,
                    "RPL003",
                    node,
                    f"in-place mutation of `{name}` outside the optimizer/"
                    f"serialization whitelist bypasses the autograd tape",
                )


# ----------------------------------------------------------------------
# RPL004 — no mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        return dotted in _MUTABLE_FACTORIES
    return False


@rule(
    "RPL004",
    "no-mutable-default",
    "mutable default arguments alias state across calls (classic source "
    "of cross-episode contamination)",
)
def check_mutable_defaults(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                yield _finding(
                    context,
                    "RPL004",
                    default,
                    f"mutable default argument in `{node.name}()`: use None "
                    f"and construct inside the body",
                )


# ----------------------------------------------------------------------
# RPL005 — lock discipline (intra-class dataflow)
# ----------------------------------------------------------------------
_LOCK_FACTORIES = {"Lock", "RLock", "threading.Lock", "threading.RLock"}
_INIT_METHODS = {"__init__", "__post_init__", "__new__", "__enter__", "__exit__"}


class _AttrAccess:
    __slots__ = ("method", "attr", "node", "under_lock", "is_call")

    def __init__(self, method: str, attr: str, node: ast.AST, under_lock: bool, is_call: bool):
        self.method = method
        self.attr = attr
        self.node = node
        self.under_lock = under_lock
        self.is_call = is_call


def _class_lock_names(cls: ast.ClassDef) -> Set[str]:
    """Attributes assigned a threading.Lock()/RLock() anywhere in the class."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = _dotted(node.value.func)
            if dotted in _LOCK_FACTORIES:
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
    return locks


def _is_self_lock_with(item: ast.withitem, locks: Set[str]) -> bool:
    expr = item.context_expr
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in locks
    )


def _collect_accesses(
    method: ast.FunctionDef, locks: Set[str]
) -> List[_AttrAccess]:
    """Every ``self.<attr>`` access in ``method`` with its lock context."""
    accesses: List[_AttrAccess] = []
    call_funcs = {
        id(node.func) for node in ast.walk(method) if isinstance(node, ast.Call)
    }

    def visit(node: ast.AST, under: bool) -> None:
        if isinstance(node, ast.With) and any(
            _is_self_lock_with(item, locks) for item in node.items
        ):
            for child in ast.iter_child_nodes(node):
                visit(child, True)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr not in locks
        ):
            accesses.append(
                _AttrAccess(
                    method=method.name,
                    attr=node.attr,
                    node=node,
                    under_lock=under,
                    is_call=id(node) in call_funcs,
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child, under)

    for stmt in method.body:
        visit(stmt, False)
    return accesses


@rule(
    "RPL005",
    "lock-discipline",
    "attributes guarded by `with self._lock` somewhere in a class must be "
    "guarded everywhere (shared chief/employee state must not race)",
)
def check_lock_discipline(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test:
        return
    for cls in ast.walk(context.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _class_lock_names(cls)
        if not locks:
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        accesses: List[_AttrAccess] = []
        for method in methods:
            accesses.extend(_collect_accesses(method, locks))

        method_names = {m.name for m in methods}
        # Fixpoint: a method is "lock-held" when every intra-class call
        # site of it sits under the lock (directly or inside another
        # lock-held method).  Its body then counts as a locked region.
        lock_held: Set[str] = set()
        while True:
            changed = False
            for name in method_names - lock_held:
                sites = [a for a in accesses if a.is_call and a.attr == name]
                if sites and all(
                    a.under_lock or a.method in lock_held for a in sites
                ):
                    lock_held.add(name)
                    changed = True
            if not changed:
                break

        def effectively_locked(access: _AttrAccess) -> bool:
            return access.under_lock or access.method in lock_held

        guarded = {
            a.attr
            for a in accesses
            if effectively_locked(a) and not a.is_call and a.attr not in method_names
        }
        for access in accesses:
            if (
                access.attr in guarded
                and not access.is_call
                and not effectively_locked(access)
                and access.method not in _INIT_METHODS
            ):
                yield _finding(
                    context,
                    "RPL005",
                    access.node,
                    f"`self.{access.attr}` is lock-guarded elsewhere in "
                    f"`{cls.name}` but accessed without the lock in "
                    f"`{access.method}()`",
                )


# ----------------------------------------------------------------------
# RPL006 — no wall-clock calls in deterministic paths
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.sleep",
    "time.time",
    "time.monotonic",
    "time.time_ns",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.now",
    "datetime.utcnow",
    "date.today",
    "datetime.date.today",
}
# path pattern -> calls additionally allowed there.  The fault injector
# *is* the subsystem that sleeps on purpose; the trainer's retry backoff
# is an explicitly non-deterministic recovery path.
_RPL006_WHITELIST = {
    "repro/distributed/faults.py": _WALL_CLOCK_CALLS,
    "repro/distributed/trainer.py": {"time.sleep"},
    # The socket transport is wall-clock machinery by nature (heartbeat
    # cadence, retransmission timers, reconnect backoff); none of it
    # touches training RNG streams, which the bitwise gate proves.
    "repro/distributed/transport/": _WALL_CLOCK_CALLS,
    # Tracing records wall-clock span timestamps by design; spans never feed
    # back into the training computation, so determinism is unaffected.
    "repro/obs/": {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns"},
    # The lock-order sanitizer measures hold durations (SAN005) with the
    # monotonic clock; its bookkeeping never touches numeric state.
    "repro/analysis/lockwatch.py": {"time.monotonic", "time.monotonic_ns"},
    # The inference server measures request latency with the monotonic
    # clock and its sync client sleeps for 503 retry backoff; served
    # actions stay bitwise-identical to offline act_full regardless.
    "repro/serve/server.py": {"time.monotonic", "time.sleep"},
}


@rule(
    "RPL006",
    "no-wall-clock",
    "wall-clock reads/sleeps in deterministic code paths break "
    "kill-and-resume bitwise equivalence (perf_counter for reporting is fine)",
)
def check_wall_clock(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test:
        return
    allowed: Set[str] = set()
    for pattern, calls in _RPL006_WHITELIST.items():
        if pattern in context.path:
            allowed |= set(calls)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _WALL_CLOCK_CALLS and dotted not in allowed:
            yield _finding(
                context,
                "RPL006",
                node,
                f"wall-clock call `{dotted}` in a deterministic code path",
            )


# ----------------------------------------------------------------------
# RPL007 — no swallowed exceptions
# ----------------------------------------------------------------------
@rule(
    "RPL007",
    "no-swallowed-exception",
    "bare `except:` / silent `except: pass` hides gradient and fault "
    "errors the sanitizer and quarantine rely on surfacing",
)
def check_swallowed_exceptions(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield _finding(
                context,
                "RPL007",
                node,
                "bare `except:` swallows every error (including "
                "KeyboardInterrupt); name the exception type",
            )
            continue
        broad = _dotted(node.type) in ("Exception", "BaseException")
        body_is_silent = all(isinstance(stmt, ast.Pass) for stmt in node.body)
        if broad and body_is_silent:
            yield _finding(
                context,
                "RPL007",
                node,
                "`except Exception: pass` silently swallows errors; handle "
                "or re-raise",
            )


# ----------------------------------------------------------------------
# RPL008 — no module-level seeding in test files
# ----------------------------------------------------------------------
_MODULE_SEED_CALLS = {
    "np.random.seed",
    "numpy.random.seed",
    "random.seed",
}
_MODULE_RNG_FACTORIES = {
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.RandomState",
    "numpy.random.RandomState",
    "random.Random",
}


@rule(
    "RPL008",
    "no-module-seed",
    "tests must get RNGs from fixtures; module-level seeds leak state "
    "across the whole test session and depend on collection order",
)
def check_module_seed(context: ModuleContext) -> Iterator[Finding]:
    if not context.is_test:
        return
    for node in context.tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            dotted = _dotted(node.value.func)
            if dotted in _MODULE_SEED_CALLS:
                yield _finding(
                    context,
                    "RPL008",
                    node,
                    f"module-level `{dotted}(...)` in a test file: seed via "
                    f"a fixture instead",
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted in _MODULE_RNG_FACTORIES:
                    yield _finding(
                        context,
                        "RPL008",
                        node,
                        f"module-level RNG `{dotted}(...)` shared across "
                        f"tests: construct it inside a fixture",
                    )


# ----------------------------------------------------------------------
# RPL009 — no bare print() in library code
# ----------------------------------------------------------------------
# CLI entry points and the lint reporters talk to a terminal by design;
# everything else must go through ``repro.obs`` (structured logging,
# metrics, tracing) so output is capturable, filterable and silent by
# default when the package is used as a library.
_RPL009_WHITELIST = (
    "__main__.py",
    "repro/analysis/cli.py",
    "repro/analysis/reporters.py",
    # Example scripts and benchmark drivers are terminal programs: their
    # printed tables/summaries ARE the interface, exactly like the CLI.
    "examples/",
    "benchmarks/",
)


@rule(
    "RPL009",
    "no-bare-print",
    "library code must report through `repro.obs` logging/metrics, not "
    "`print()`; stdout writes from library modules pollute captured "
    "output and cannot be filtered by severity",
)
def check_bare_print(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or context.path_matches(_RPL009_WHITELIST):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield _finding(
                context,
                "RPL009",
                node,
                "bare `print()` in library code; use "
                "`repro.obs.get_logger(__name__)` (or a metrics/trace "
                "event) instead",
            )


# ----------------------------------------------------------------------
# RPL010 — no per-call index allocation in repro.nn hot ops
# ----------------------------------------------------------------------
# PR 4 replaced the per-call im2col/col2im index machinery with cached
# kernel plans precisely because ``np.arange``/``np.repeat``/``np.tile``
# gather indices and ``np.add.at`` scatters dominated the conv/pool hot
# paths (and ``np.add.at``'s index-order accumulation is easy to get
# bitwise-wrong when "optimized" ad hoc).  This rule keeps the regression
# from creeping back: inside ``repro/nn/`` modules, index-array builders
# may only appear in plan-construction code — functions whose name starts
# with ``_plan`` or an ``__init__`` (run once per shape, cached) — and
# ``np.add.at`` may not appear at all.  Genuine exceptions (e.g. the
# generic duplicate-index ``Tensor.__getitem__`` backward, which is
# correctness machinery rather than a planned hot op) carry an explicit
# ``# reprolint: disable=RPL010`` at the call site.
_RPL010_PATHS = ("repro/nn/",)
_RPL010_INDEX_BUILDERS = {"arange", "repeat", "tile"}
_RPL010_PLAN_PREFIXES = ("_plan",)


def _rpl010_call_kind(node: ast.Call) -> Optional[str]:
    """"scatter" for np.add.at, "builder" for np.arange/repeat/tile."""
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts[0] not in _NUMPY_ALIASES:
        return None
    if parts[1:] == ["add", "at"]:
        return "scatter"
    if len(parts) == 2 and parts[1] in _RPL010_INDEX_BUILDERS:
        return "builder"
    return None


@rule(
    "RPL010",
    "no-percall-index-alloc",
    "repro.nn hot ops must gather/scatter through cached kernel plans; "
    "per-call np.arange/np.repeat/np.tile index construction and "
    "np.add.at scatters are the exact regressions PR 4 removed "
    "(plan-construction functions are exempt)",
)
def check_percall_index_alloc(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or not context.path_matches(_RPL010_PATHS):
        return

    def visit(node: ast.AST, in_plan_scope: bool) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_plan_scope = in_plan_scope or (
                node.name == "__init__"
                or node.name.startswith(_RPL010_PLAN_PREFIXES)
            )
        if isinstance(node, ast.Call):
            kind = _rpl010_call_kind(node)
            if kind == "scatter":
                yield _finding(
                    context,
                    "RPL010",
                    node,
                    "`np.add.at` scatter in a repro.nn hot path: use the "
                    "kernel plan's order-preserving strided scatter_add "
                    "(np.add.at's buffered accumulation was the dominant "
                    "col2im cost)",
                )
            elif kind == "builder" and not in_plan_scope:
                dotted = _dotted(node.func)
                yield _finding(
                    context,
                    "RPL010",
                    node,
                    f"per-call `{dotted}` index construction in a repro.nn "
                    f"hot op: build indices once in a cached kernel plan "
                    f"(_plan*/__init__ construction code is exempt)",
                )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_plan_scope)

    yield from visit(context.tree, False)


# ----------------------------------------------------------------------
# RPL011 — no fork-unsafe state in distributed worker entrypoints
# ----------------------------------------------------------------------
# The process backend (PR 5) forks employee workers; a forked child gets
# a snapshot of the parent's module state at fork time.  Any worker code
# that *reads* mutable module-level state or draws OS entropy therefore
# depends on *when* the fork happened — exactly the nondeterminism the
# bitwise-identical-across-backends contract forbids.  Worker entrypoints
# (functions named ``*_worker_main`` or passed as ``target=`` to a
# ``*Process(...)`` constructor) in ``repro/distributed/`` must receive
# every seed and config through their arguments: no ``global``
# statements, no reads of lowercase module-level assignments (ALL_CAPS
# constants, imports, defs and classes are fine), and no argument-less
# ``default_rng()`` (which seeds from OS entropy, differing per fork).
_RPL011_PATHS = ("repro/distributed/",)


def _rpl011_module_mutables(tree: ast.Module) -> Set[str]:
    """Lowercase names assigned at module level (mutable state, not
    constants/imports/defs)."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    name = leaf.id
                    if not name.isupper() and not (
                        name.startswith("__") and name.endswith("__")
                    ):
                        names.add(name)
    return names


def _rpl011_entrypoints(tree: ast.Module) -> List[ast.FunctionDef]:
    """Worker entrypoints: ``*_worker_main`` defs plus ``target=`` refs."""
    target_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if callee.endswith("Process"):
                for keyword in node.keywords:
                    if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                        target_names.add(keyword.value.id)
    found: List[ast.FunctionDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (
            node.name.endswith("_worker_main") or node.name in target_names
        ):
            found.append(node)
    return found


def _rpl011_local_bindings(fn: ast.FunctionDef) -> Set[str]:
    """Every name bound inside the entrypoint (args, stores, handlers)."""
    bound: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(arg.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
    return bound


@rule(
    "RPL011",
    "no-fork-unsafe-state",
    "repro.distributed worker entrypoints run post-fork and must receive "
    "seeds/configs explicitly through their arguments — no global "
    "statements, no reads of mutable module-level state, no unseeded "
    "default_rng() (fork-time snapshots and OS entropy break the "
    "bitwise-identical-across-backends contract)",
)
def check_fork_unsafe_state(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or not context.path_matches(_RPL011_PATHS):
        return
    entrypoints = _rpl011_entrypoints(context.tree)
    if not entrypoints:
        return
    mutables = _rpl011_module_mutables(context.tree)
    for fn in entrypoints:
        local = _rpl011_local_bindings(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield _finding(
                    context,
                    "RPL011",
                    node,
                    f"worker entrypoint `{fn.name}` uses `global "
                    f"{', '.join(node.names)}`: post-fork module state is a "
                    f"fork-time snapshot — pass the state in explicitly",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if (
                    dotted is not None
                    and dotted.split(".")[-1] == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield _finding(
                        context,
                        "RPL011",
                        node,
                        f"unseeded `default_rng()` in worker entrypoint "
                        f"`{fn.name}`: OS-entropy seeding differs per fork — "
                        f"seed from the worker's spec instead",
                    )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutables
                and node.id not in local
            ):
                yield _finding(
                    context,
                    "RPL011",
                    node,
                    f"worker entrypoint `{fn.name}` reads module-level "
                    f"`{node.id}`: a forked child sees a fork-time snapshot "
                    f"— receive it through the entrypoint's arguments",
                )


# ----------------------------------------------------------------------
# RPL012 — no raw socket I/O outside the transport package
# ----------------------------------------------------------------------
# The socket transport (PR 6) frames every byte on the wire: length
# prefix, CRC32, seq stamps, heartbeat accounting, fault injection.  A
# bare ``sock.send``/``sock.recv`` anywhere else bypasses all of it —
# unchecksummed bytes, invisible to chaos tests, outside the reconnect
# machinery.  Modules that import ``socket`` may resolve names
# (``gethostname``/``getaddrinfo``), but constructing connections or
# moving bytes belongs to ``repro/distributed/transport/`` alone.
_RPL012_EXEMPT = ("repro/distributed/transport/",)
_RPL012_IO_METHODS = {
    "send",
    "sendall",
    "sendto",
    "sendmsg",
    "recv",
    "recv_into",
    "recvfrom",
    "recvfrom_into",
    "recvmsg",
    "makefile",
}
_RPL012_CONSTRUCTORS = {
    "socket.socket",
    "socket.socketpair",
    "socket.create_connection",
    "socket.create_server",
}


def _rpl012_imports_socket(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "socket" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.module.split(".")[0] == "socket":
                return True
    return False


@rule(
    "RPL012",
    "no-raw-socket-io",
    "socket construction and send/recv calls are confined to "
    "repro.distributed.transport — everywhere else they bypass framing, "
    "CRC checks, heartbeat accounting and chaos injection",
)
def check_raw_socket_io(context: ModuleContext) -> Iterator[Finding]:
    if context.is_test or context.path_matches(_RPL012_EXEMPT):
        return
    if not _rpl012_imports_socket(context.tree):
        # Without the import there is no socket object to do raw I/O on;
        # this also keeps pipe ``conn.send``/``conn.recv`` (procpool) and
        # generator ``.send`` out of scope.
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _RPL012_CONSTRUCTORS:
            yield _finding(
                context,
                "RPL012",
                node,
                f"`{dotted}(...)` outside repro/distributed/transport/: "
                f"open connections through the Transport interface so "
                f"framing, heartbeats and chaos injection apply",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RPL012_IO_METHODS
        ):
            yield _finding(
                context,
                "RPL012",
                node,
                f"raw socket I/O `.{node.func.attr}(...)` outside "
                f"repro/distributed/transport/: bytes moved here skip "
                f"length-prefix framing and CRC verification — use a "
                f"ChiefChannel/WorkerEndpoint instead",
            )


# ----------------------------------------------------------------------
# RPL017 — no naked span
# ----------------------------------------------------------------------
# ``Tracer.span(...)`` (and the module-level ``span(...)`` helper) build
# a context manager; nothing is timed or recorded until ``__enter__``
# runs.  A bare ``tracer.span("phase")`` statement therefore compiles,
# runs, and records *nothing* — the archetypal "instrumented but dark"
# bug.  Returning or assigning the manager is fine (the caller enters
# it); only expression statements are flagged.
def _rpl017_span_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to an obs/trace ``span`` import (honors ``as``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if "obs" in node.module or "trace" in node.module:
                for alias in node.names:
                    if alias.name == "span":
                        aliases.add(alias.asname or alias.name)
    return aliases


@rule(
    "RPL017",
    "no-naked-span",
    "Tracer.span(...) as a bare statement records nothing — the span only "
    "opens and closes when the returned context manager is entered, so it "
    "must be used under `with`",
)
def check_naked_span(context: ModuleContext) -> Iterator[Finding]:
    aliases = _rpl017_span_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        naked = False
        if isinstance(func, ast.Name):
            naked = func.id in aliases
        elif isinstance(func, ast.Attribute) and func.attr == "span":
            receiver = func.value
            dotted = _dotted(receiver)
            if dotted is not None:
                # `tracer.span(...)`, `self._tracer.span(...)`, …
                naked = dotted.lower().endswith("tracer")
            elif isinstance(receiver, ast.Call):
                callee = _dotted(receiver.func)
                naked = (
                    callee is not None
                    and callee.split(".")[-1] == "get_tracer"
                )
        if naked:
            yield _finding(
                context,
                "RPL017",
                node,
                "naked span: the call builds a context manager and records "
                "nothing until entered — wrap it in `with ...:`",
            )
