"""The simlint rule catalogue.

Eight domain-specific rules, each enforcing one clause of the simulator
determinism/correctness contract that the result cache relies on.  The
catalogue table in ``docs/analysis.md`` mirrors the ``id``/``name``/
``rationale`` attributes below.

Rules are syntactic (single-module AST), deliberately: they must run in
milliseconds in CI and never depend on import order or installed state.
Where a rule needs repository-wide knowledge (STAT001's counter names)
it reads the same declarative registry the runtime uses, so the static
and dynamic checks cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence

from .core import Finding, LintContext, Rule

__all__ = ["ALL_RULES", "rule_by_id"]


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """Render an Attribute/Name chain as 'a.b.c' (None if not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """Leftmost Name of an attribute/subscript chain ('cfg.core.x'->'cfg')."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_module(module: str, candidates: Sequence[str]) -> bool:
    """True if *module* is any candidate or lives inside one."""
    for candidate in candidates:
        if module == candidate or module.startswith(candidate + "."):
            return True
    return False


# --------------------------------------------------------------------------
# DET001 — unseeded RNG
# --------------------------------------------------------------------------

class UnseededRandomRule(Rule):
    id = "DET001"
    name = "unseeded-random"
    rationale = (
        "Module-level `random.*` / `numpy.random.*` functions draw from "
        "hidden global state, so results depend on import order and on "
        "every other caller of the global RNG.  All randomness must flow "
        "through an explicitly seeded generator (`random.Random(seed)` "
        "via `workloads.base.make_rng`, or `numpy.random.default_rng`)."
    )

    _ALLOWED_RANDOM = frozenset({"Random", "SystemRandom"})
    _ALLOWED_NUMPY = frozenset({
        "default_rng", "Generator", "RandomState", "SeedSequence",
        "PCG64", "Philox",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        numpy_aliases = {"numpy"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy" and alias.asname:
                        numpy_aliases.add(alias.asname)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, node, numpy_aliases)

    def _check_import_from(self, ctx: LintContext,
                           node: ast.ImportFrom) -> Iterator[Finding]:
        if node.module == "random":
            bad = sorted(alias.name for alias in node.names
                         if alias.name not in self._ALLOWED_RANDOM)
            if bad:
                yield ctx.finding(self, node, (
                    f"importing global-state RNG function(s) "
                    f"{', '.join(bad)} from `random`; construct a seeded "
                    f"`random.Random` (see workloads.base.make_rng)"))
        elif node.module and node.module.startswith("numpy.random"):
            bad = sorted(alias.name for alias in node.names
                         if alias.name not in self._ALLOWED_NUMPY)
            if bad:
                yield ctx.finding(self, node, (
                    f"importing global-state RNG function(s) "
                    f"{', '.join(bad)} from `numpy.random`; use "
                    f"`numpy.random.default_rng(seed)`"))

    def _check_attribute(self, ctx: LintContext, node: ast.Attribute,
                         numpy_aliases: FrozenSet[str]) -> Iterator[Finding]:
        dotted = _dotted(node)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2 \
                and parts[1] not in self._ALLOWED_RANDOM:
            yield ctx.finding(self, node, (
                f"`{dotted}` uses the process-global RNG; thread a seeded "
                f"`random.Random` through instead (workloads.base.make_rng)"))
        elif len(parts) >= 3 and parts[0] in numpy_aliases \
                and parts[1] == "random" \
                and parts[2] not in self._ALLOWED_NUMPY:
            yield ctx.finding(self, node, (
                f"`{dotted}` uses numpy's global RNG; use "
                f"`numpy.random.default_rng(seed)`"))


# --------------------------------------------------------------------------
# DET002 — hash-order iteration
# --------------------------------------------------------------------------

class SetIterationRule(Rule):
    id = "DET002"
    name = "set-iteration"
    rationale = (
        "Iterating a `set`/`frozenset` (or anything built from one) "
        "visits elements in hash order, which for str keys varies with "
        "PYTHONHASHSEED — trace generation and timing loops become "
        "run-dependent while every individual value still looks right.  "
        "Dedup with `sorted(...)` or first-seen order via "
        "`dict.fromkeys(...)` instead."
    )

    #: Wrappers whose result is order-insensitive: consuming a set
    #: through these is fine.
    _ORDER_SAFE = frozenset({
        "sorted", "len", "sum", "min", "max", "any", "all", "set",
        "frozenset", "bool",
    })
    #: Wrappers that preserve (and therefore leak) iteration order.
    _ORDER_LEAKY = frozenset({"list", "tuple", "enumerate", "iter",
                              "reversed"})

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
            # set algebra: a & b, a | b, a - b, a ^ b on set operands
            return self._is_set_expr(node.left) \
                or self._is_set_expr(node.right)
        return False

    def _describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Set):
            return "a set literal"
        return "a set()"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    yield ctx.finding(self, node.iter, (
                        f"iterating {self._describe(node.iter)} visits "
                        f"elements in hash order; use sorted(...) or "
                        f"dict.fromkeys(...) for a deterministic order"))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter):
                        yield ctx.finding(self, gen.iter, (
                            f"comprehension iterates "
                            f"{self._describe(gen.iter)} in hash order; "
                            f"use sorted(...) or dict.fromkeys(...)"))
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: LintContext,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        leaky = (isinstance(func, ast.Name) and func.id in self._ORDER_LEAKY)
        if isinstance(func, ast.Attribute) and func.attr in ("join",
                                                             "fromkeys"):
            leaky = True
        if not leaky:
            return
        for arg in node.args:
            if self._is_set_expr(arg):
                name = func.id if isinstance(func, ast.Name) else func.attr
                yield ctx.finding(self, arg, (
                    f"`{name}(...)` materialises {self._describe(arg)} in "
                    f"hash order; sort or dedup deterministically first"))


# --------------------------------------------------------------------------
# DET003 — wall clock in simulated state
# --------------------------------------------------------------------------

class WallClockRule(Rule):
    id = "DET003"
    name = "wall-clock"
    rationale = (
        "Wall-clock reads (`time.time`, `perf_counter`, `datetime.now`) "
        "differ on every run; any value derived from them that reaches "
        "simulated state or results breaks bit-reproducibility and "
        "poisons the content-addressed cache.  Only the harness's "
        "telemetry layer (engine/report timing lines on stderr) may "
        "touch the clock."
    )

    #: Telemetry modules allowed to read the clock (timings are printed,
    #: never mixed into simulated state or cached results).
    ALLOWED_MODULES = (
        "repro.harness.engine",
        "repro.harness.figures",
        "repro.harness.perfbench",
        "repro.harness.report",
        # per-rule lint timings are telemetry printed in the report,
        # never simulated state
        "repro.analysis.runner",
    )

    _CLOCK_FUNCS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "clock",
    })
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _is_module(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module == "time":
                bad = sorted(alias.name for alias in node.names
                             if alias.name in self._CLOCK_FUNCS)
                if bad:
                    yield ctx.finding(self, node, (
                        f"importing wall-clock function(s) "
                        f"{', '.join(bad)}; simulator code must be a pure "
                        f"function of its inputs (allowlisted: "
                        f"{', '.join(self.ALLOWED_MODULES)})"))
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] == "time" and len(parts) == 2 \
                        and parts[1] in self._CLOCK_FUNCS:
                    yield ctx.finding(self, node, (
                        f"`{dotted}` reads the wall clock inside simulator "
                        f"code; simulated time must come from the cycle "
                        f"model, not the host"))
                elif parts[-1] in self._DATETIME_FUNCS \
                        and "datetime" in parts[:-1]:
                    yield ctx.finding(self, node, (
                        f"`{dotted}` reads the wall clock inside simulator "
                        f"code; results must not depend on when they were "
                        f"computed"))


# --------------------------------------------------------------------------
# CFG001 — caller-config mutation
# --------------------------------------------------------------------------

class ConfigMutationRule(Rule):
    id = "CFG001"
    name = "config-mutation"
    rationale = (
        "A `SimConfig` received as a parameter is owned by the caller — "
        "sweeps share one config object across many jobs, so assigning "
        "to its attributes leaks state into *other* simulations (the "
        "exact bug PR 1 fixed in run_benchmark).  Copy first: "
        "`config = copy.deepcopy(config)` or `dataclasses.replace(...)`."
    )

    #: Parameter names presumed to carry a caller-owned config.
    _CONFIG_PARAM_NAMES = frozenset({"config", "cfg", "sim_config",
                                     "simconfig"})
    ALLOWED_MODULES = ("repro.config",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _is_module(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _config_params(self, func: ast.AST) -> FrozenSet[str]:
        args = func.args  # type: ignore[attr-defined]
        names = []
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            hint = ""
            if arg.annotation is not None:
                hint = ast.dump(arg.annotation)
            if arg.arg in self._CONFIG_PARAM_NAMES \
                    or "SimConfig" in hint:
                names.append(arg.arg)
        return frozenset(names)

    def _check_function(self, ctx: LintContext,
                        func: ast.AST) -> Iterator[Finding]:
        params = self._config_params(func)
        if not params:
            return
        # A parameter rebound anywhere in the function (the deepcopy /
        # replace idiom) is treated as locally owned from then on.
        rebound = set()
        for node in ast.walk(func):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
                    and isinstance(node.target, ast.Name):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in params:
                    rebound.add(target.id)
        live = params - rebound
        if not live:
            return
        for node in ast.walk(func):
            target = None
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute):
                        target = tgt
                        break
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Attribute):
                target = node.target
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Attribute):
                target = node.target
            if target is None:
                continue
            root = _root_name(target)
            if root in live:
                dotted = _dotted(target) or root
                yield ctx.finding(self, node, (
                    f"assignment to `{dotted}` mutates the caller-supplied "
                    f"config parameter `{root}`; deepcopy or "
                    f"dataclasses.replace it first"))


# --------------------------------------------------------------------------
# STAT001 — counter keys must be registered
# --------------------------------------------------------------------------

class CounterRegistryRule(Rule):
    id = "STAT001"
    name = "counter-registry"
    rationale = (
        "`Counters` is a string-keyed bag: a typo'd key silently "
        "fabricates a new counter (writes) or reads zero via "
        "`__missing__` (reads).  Every literal key used with "
        "`.bump(...)` or a `counters[...]` subscript must be declared in "
        "`repro.stats.registry`; f-string keys must match a declared "
        "dynamic family template."
    )

    #: Modules exempt because they define/teach the machinery itself.
    ALLOWED_MODULES = ("repro.stats.counters", "repro.stats.registry")

    def _registry(self) -> Any:
        from ..stats import registry
        return registry

    def _fstring_template(self, node: ast.JoinedStr) -> Optional[str]:
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("{}")
            else:
                return None
        return "".join(parts)

    def _check_key_node(self, ctx: LintContext, node: ast.AST,
                        usage: str) -> Iterator[Finding]:
        registry = self._registry()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not registry.is_known(node.value):
                yield ctx.finding(self, node, (
                    f"counter key '{node.value}' ({usage}) is not declared "
                    f"in repro.stats.registry; add it to COUNTERS or fix "
                    f"the typo"))
        elif isinstance(node, ast.JoinedStr):
            template = self._fstring_template(node)
            if template is not None and "{}" in template \
                    and template not in registry.DYNAMIC_COUNTERS:
                yield ctx.finding(self, node, (
                    f"f-string counter key template '{template}' ({usage}) "
                    f"has no matching entry in "
                    f"repro.stats.registry.DYNAMIC_COUNTERS"))

    def _is_counters_expr(self, node: ast.AST) -> bool:
        """True for `counters[...]`-style bases: a name or attribute
        whose final component is 'counters' (pipeline.counters, etc.)."""
        if isinstance(node, ast.Name):
            return node.id == "counters"
        if isinstance(node, ast.Attribute):
            return node.attr == "counters"
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _is_module(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "bump" and node.args:
                yield from self._check_key_node(ctx, node.args[0],
                                                "Counters.bump")
            elif isinstance(node, ast.Subscript) \
                    and self._is_counters_expr(node.value):
                yield from self._check_key_node(ctx, node.slice,
                                                "counters subscript")


# --------------------------------------------------------------------------
# NUM001 — float arithmetic flowing into counters
# --------------------------------------------------------------------------

class FloatIntoCounterRule(Rule):
    id = "NUM001"
    name = "float-into-counter"
    rationale = (
        "Cycle/retire/event counters are exact integers; feeding them "
        "float arithmetic (true division, float literals) introduces "
        "rounding that can differ across platforms and accumulates into "
        "wrong cycle counts.  Use integer arithmetic (`//`) or wrap the "
        "expression in `int(...)`/`round(...)` at a single, deliberate "
        "boundary."
    )

    def _contains_float_math(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("int", "round", "len"):
            return None     # explicit integer boundary
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id in ("int", "round"):
                # conversions deeper in the tree sanitize their subtree;
                # cheap approximation: accept the whole expression.
                return None
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return "true division (`/`)"
            if isinstance(sub, ast.Constant) \
                    and isinstance(sub.value, float):
                return f"float literal {sub.value!r}"
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "bump" \
                    and len(node.args) >= 2:
                reason = self._contains_float_math(node.args[1])
                if reason:
                    yield ctx.finding(self, node.args[1], (
                        f"bump amount contains {reason}; counters are "
                        f"exact integers — use `//` or wrap in int()"))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                target = node.targets[0] if isinstance(node, ast.Assign) \
                    else node.target
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, (ast.Name,
                                                      ast.Attribute)) \
                        and (getattr(target.value, "id", None) == "counters"
                             or getattr(target.value, "attr", None)
                             == "counters"):
                    reason = self._contains_float_math(node.value)
                    if reason:
                        yield ctx.finding(self, node.value, (
                            f"counter assignment contains {reason}; "
                            f"counters are exact integers"))


# --------------------------------------------------------------------------
# ARCH001 — import layering
# --------------------------------------------------------------------------

class ImportLayeringRule(Rule):
    id = "ARCH001"
    name = "import-layering"
    rationale = (
        "The simulator is layered: foundations (isa, config, stats, "
        "memory, frontend) must stay importable without dragging in the "
        "models built on top (core, cdf, runahead) or the experiment "
        "harness — otherwise worker processes, partial installs, and "
        "future backend shards pay for everything, and refactors "
        "entangle.  Higher layers may import lower ones, never the "
        "reverse."
    )

    #: repro sub-package -> sub-packages it must NOT import.
    #: (Derived from the dependency DAG in docs/architecture.md; cli and
    #: harness sit at the top and may import anything.)
    #:
    #: ``obs`` is deliberately near-leaf: it may lean on the config/
    #: stats foundations but nothing else, and *no layer below the
    #: harness may import it* — the obs_level-0 elision contract
    #: (docs/observability.md) promises the telemetry subsystem is never
    #: even imported unless a collector is attached, which only the
    #: harness/cli layer does.
    FORBIDDEN: Dict[str, FrozenSet[str]] = {
        "config": frozenset({
            "isa", "stats", "memory", "frontend", "energy", "workloads",
            "core", "cdf", "runahead", "verify", "obs", "harness", "cli",
            "analysis"}),
        "isa": frozenset({
            "config", "stats", "memory", "frontend", "energy", "workloads",
            "core", "cdf", "runahead", "verify", "obs", "harness", "cli",
            "analysis"}),
        "stats": frozenset({
            "memory", "frontend", "energy", "workloads", "core", "cdf",
            "runahead", "verify", "obs", "harness", "cli", "analysis"}),
        "memory": frozenset({
            "stats", "frontend", "energy", "workloads", "core", "cdf",
            "runahead", "verify", "obs", "harness", "cli", "analysis"}),
        "frontend": frozenset({
            "memory", "energy", "workloads", "core", "cdf", "runahead",
            "verify", "obs", "harness", "cli", "analysis"}),
        "energy": frozenset({
            "memory", "frontend", "workloads", "core", "cdf", "runahead",
            "verify", "obs", "harness", "cli", "analysis"}),
        "workloads": frozenset({
            "memory", "frontend", "energy", "core", "cdf", "runahead",
            "verify", "obs", "harness", "cli", "analysis"}),
        "obs": frozenset({
            "memory", "frontend", "energy", "workloads", "core", "cdf",
            "runahead", "verify", "harness", "cli", "analysis"}),
        "core": frozenset({
            "workloads", "cdf", "runahead", "verify", "obs", "harness", "cli",
            "analysis"}),
        "cdf": frozenset({
            "workloads", "runahead", "verify", "obs", "harness", "cli",
            "analysis"}),
        "runahead": frozenset({
            "workloads", "verify", "obs", "harness", "cli", "analysis"}),
        "verify": frozenset({
            "workloads", "obs", "harness", "cli", "analysis"}),
        "analysis": frozenset({
            "memory", "frontend", "energy", "workloads", "core", "cdf",
            "runahead", "verify", "obs", "harness", "cli"}),
    }

    def _source_package(self, module: str) -> Optional[str]:
        parts = module.split(".")
        if len(parts) < 2 or parts[0] != "repro":
            return None
        return parts[1]

    def _imported_modules(self, ctx: LintContext,
                          node: ast.AST) -> List[str]:
        """Absolute dotted names this import statement brings in."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                return [node.module] if node.module else []
            # Resolve the relative import against ctx.module.  For a
            # plain module, level=1 strips the module's own name; for a
            # package __init__, level=1 is the package itself.
            base_parts = ctx.module.split(".")
            is_package = ctx.path.name == "__init__.py"
            drop = node.level - (1 if is_package else 0)
            if drop >= len(base_parts):
                return []
            base = base_parts[:len(base_parts) - drop] if drop else \
                list(base_parts)
            if node.module:
                return [".".join(base + node.module.split("."))]
            # `from .. import config` — each alias is a submodule
            return [".".join(base + [alias.name]) for alias in node.names]
        return []

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        source_pkg = self._source_package(ctx.module)
        if source_pkg is None:
            return
        forbidden = self.FORBIDDEN.get(source_pkg)
        if not forbidden:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for imported in self._imported_modules(ctx, node):
                parts = imported.split(".")
                if len(parts) < 2 or parts[0] != "repro":
                    continue
                target_pkg = parts[1]
                if target_pkg in forbidden:
                    yield ctx.finding(self, node, (
                        f"layer `repro.{source_pkg}` must not import "
                        f"`repro.{target_pkg}` (dependency DAG in "
                        f"docs/architecture.md); invert the dependency or "
                        f"move the shared piece down a layer"))


# --------------------------------------------------------------------------
# API001 — mutable default arguments
# --------------------------------------------------------------------------

class MutableDefaultRule(Rule):
    id = "API001"
    name = "mutable-default"
    rationale = (
        "A mutable default (`def f(xs=[])`) is evaluated once at import "
        "and shared by every call — state leaks across invocations "
        "exactly like the shared-SimConfig bug, but for any API.  "
        "Default to None and materialise inside the function."
    )

    _MUTABLE_CONSTRUCTORS = frozenset({
        "list", "dict", "set", "bytearray", "Counters", "defaultdict",
        "OrderedDict", "deque",
    })

    def _is_mutable_default(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in self._MUTABLE_CONSTRUCTORS
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) \
                + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable_default(default):
                    yield ctx.finding(self, default, (
                        f"mutable default argument in `{node.name}(...)` "
                        f"is shared across calls; default to None and "
                        f"build it inside the function"))


# --------------------------------------------------------------------------

# Tier-2 dataflow rules (CFG + reaching-defs + guard dominance; see
# docs/analysis.md "Dataflow rules").  Imported at the bottom so the
# syntactic rules above stay dependency-free.
from .rules_capacity import GuardedCapacityRule        # noqa: E402
from .rules_paradigm import ParadigmConformanceRule    # noqa: E402
from .rules_process import ProcessSafetyRule           # noqa: E402
from .rules_purity import LevelGatingPurityRule        # noqa: E402
from .rules_timing import CycleMonotonicityRule        # noqa: E402

ALL_RULES = (
    UnseededRandomRule(),
    SetIterationRule(),
    WallClockRule(),
    ConfigMutationRule(),
    CounterRegistryRule(),
    FloatIntoCounterRule(),
    ImportLayeringRule(),
    MutableDefaultRule(),
    # dataflow tier
    LevelGatingPurityRule(),
    CycleMonotonicityRule(),
    ProcessSafetyRule(),
    GuardedCapacityRule(),
    ParadigmConformanceRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown simlint rule id: {rule_id!r}; known: "
                   f"{', '.join(r.id for r in ALL_RULES)}")
