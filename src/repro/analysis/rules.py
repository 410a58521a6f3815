"""The project rule catalog (RPL001..RPL009).

Every rule here is grounded in a bug this repo actually shipped (or
nearly shipped) — see each rule's ``rationale``.  Rules are syntactic:
they inspect the AST without importing the analyzed code, so the pass
is safe to run on broken trees and costs milliseconds, and a finding
always names a concrete source location.

The rules deliberately favour precision over recall — e.g. RPL003
recognises a ``tracer.*`` record call only through a direct
``tracer``-named attribute chain, and the guard must be a lexically
enclosing ``if`` whose test reads ``<tracer>.enabled``.  Aliasing the
tracer into a differently-named local defeats the rule; the convention
(and review) is to not do that.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.core import (
    AnalysisContext,
    Finding,
    ParsedFile,
    ProjectRule,
    Rule,
    register,
)

__all__ = ["attr_chain"]


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted source form of a Name/Attribute chain, else ``None``.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; anything
    with a non-name base (calls, subscripts) yields ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal(node: ast.AST) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``self.x.tracer`` ->
    ``"tracer"``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _build_parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# ----------------------------------------------------------------------
# RPL001 — unseeded RNG
# ----------------------------------------------------------------------
#: Constructors of explicitly-seeded RNG state are fine; everything
#: else on the legacy global-state modules is a determinism leak.
_RNG_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
    "Random", "SystemRandom", "seed",
}


@register
class UnseededRandomRule(Rule):
    code = "RPL001"
    title = ("no unseeded random/np.random module-level calls — thread "
             "a seeded Generator")
    rationale = (
        "Simulation results must be a pure function of (config, seed); "
        "a np.random.* or random.* global-state draw silently breaks "
        "golden tests and worker-count-invariant sweeps.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if len(parts) < 2 or parts[-1] in _RNG_ALLOWED:
                continue
            if parts[:-1] in (["np", "random"], ["numpy", "random"],
                              ["random"]):
                yield self.finding(
                    parsed, node,
                    f"unseeded global-state RNG call {chain}(); thread "
                    f"a seeded np.random.Generator instead")


# ----------------------------------------------------------------------
# RPL002 — wall clock inside engines
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    code = "RPL002"
    title = "no wall-clock reads (time.time, datetime.now) in src/repro"
    rationale = (
        "Engines own simulated time; a wall-clock read that leaks into "
        "scheduling or metrics makes runs machine-dependent.  Real "
        "wall-time measurement (perf harnesses) belongs in tools/ or "
        "goes in the baseline with a justification.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        if "src/repro/" not in parsed.path:
            return
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain in _WALL_CLOCK:
                    yield self.finding(
                        parsed, node,
                        f"wall-clock call {chain}() inside src/repro; "
                        f"simulated components must take time as input")


# ----------------------------------------------------------------------
# RPL003 — unguarded tracer record calls
# ----------------------------------------------------------------------
_TRACER_METHODS = {"step", "event", "request", "record_sequences"}


@register
class UnguardedTracerRule(Rule):
    code = "RPL003"
    title = "tracer record calls must be guarded by `if tracer.enabled:`"
    rationale = (
        "The disabled tracing path must stay one attribute read per "
        "iteration (perf-smoke gates traced<=1.5x untraced); an "
        "unguarded tracer.*() call puts a no-op method dispatch on the "
        "hot path and defeats the NULL_TRACER design.")

    def _is_tracer_expr(self, node: ast.AST) -> bool:
        term = _terminal(node)
        return term is not None and term.endswith("tracer")

    def _is_guard(self, test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if (isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                    and self._is_tracer_expr(sub.value)):
                return True
        return False

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        if parsed.path.endswith("obs/trace.py"):
            return  # the Tracer implementation itself
        parents: Optional[Dict[ast.AST, ast.AST]] = None
        for node in ast.walk(parsed.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TRACER_METHODS
                    and self._is_tracer_expr(node.func.value)):
                continue
            if parents is None:
                parents = _build_parents(parsed.tree)
            cur: Optional[ast.AST] = node
            guarded = False
            while cur is not None:
                parent = parents.get(cur)
                if (isinstance(parent, ast.If) and cur in parent.body
                        and self._is_guard(parent.test)):
                    guarded = True
                    break
                if isinstance(parent, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    break  # guards don't cross function boundaries
                cur = parent
            if not guarded:
                name = attr_chain(node.func) or node.func.attr
                yield self.finding(
                    parsed, node,
                    f"unguarded tracer record call {name}(); wrap it in "
                    f"`if tracer.enabled:` to keep the disabled path free")


# ----------------------------------------------------------------------
# RPL004 — argparse flag/dest collisions
# ----------------------------------------------------------------------
@register
class ArgparseCollisionRule(Rule):
    code = "RPL004"
    title = "argparse option-string/dest collisions within one function"
    rationale = (
        "PR 8 shipped --trace both as an arrival-process choice and a "
        "timeline toggle; argparse raises only at runtime, after the "
        "CLI is already wired.  All add_argument calls in one function "
        "are treated as one namespace (parsers plus their groups).")

    @staticmethod
    def _dest_of(call: ast.Call) -> Tuple[List[str], Optional[str]]:
        options = [a.value for a in call.args
                   if isinstance(a, ast.Constant)
                   and isinstance(a.value, str)]
        dest = None
        for kw in call.keywords:
            if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
                dest = kw.value.value
        if dest is None and options:
            longs = [o for o in options if o.startswith("--")]
            first = longs[0] if longs else options[0]
            dest = first.lstrip("-").replace("-", "_")
        return options, dest

    @staticmethod
    def _own_add_argument_calls(scope: ast.AST) -> List[ast.Call]:
        """``add_argument`` calls directly in ``scope``, not descending
        into nested function definitions (those are their own
        namespace)."""
        out: List[ast.Call] = []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        out.sort(key=lambda n: (n.lineno, n.col_offset))
        return out

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        scopes = [n for n in ast.walk(parsed.tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        scopes.append(parsed.tree)  # module-level parsers
        for scope in scopes:
            seen_options: Dict[str, int] = {}
            seen_dests: Dict[str, int] = {}
            for node in self._own_add_argument_calls(scope):
                options, dest = self._dest_of(node)
                for opt in options:
                    if opt in seen_options:
                        yield self.finding(
                            parsed, node,
                            f"option string {opt!r} already added at "
                            f"line {seen_options[opt]}")
                    else:
                        seen_options[opt] = node.lineno
                if dest is not None:
                    if dest in seen_dests:
                        yield self.finding(
                            parsed, node,
                            f"dest {dest!r} collides with the argument "
                            f"added at line {seen_dests[dest]}")
                    else:
                        seen_dests[dest] = node.lineno


# ----------------------------------------------------------------------
# RPL005 — config dataclass <-> CLI builder schema drift
# ----------------------------------------------------------------------
#: The typed config facade (repro/serve/api.py) classes whose fields
#: must stay reachable from the bench CLI builders.
_CONFIG_CLASSES = ("SchedulerConfig", "SimConfig", "FleetConfig")

#: Fields that are structural, not CLI knobs (nested configs and run
#: naming are always set programmatically).
_STRUCTURAL_FIELDS = {"scheduler", "name"}


@register
class ConfigSchemaDriftRule(ProjectRule):
    code = "RPL005"
    title = ("config dataclass fields must round-trip through the "
             "bench CLI builders")
    rationale = (
        "SchedulerConfig/SimConfig/FleetConfig are the public config "
        "surface; a field added (or renamed) without wiring the "
        "repro.bench argparse builders silently strands the knob — "
        "sweeps claim coverage they don't have.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        facts = ctx.facts.setdefault(self.code, {
            "fields": {},       # class -> {field: (path, line)}
            "calls": [],        # (class, kwarg, path, line)
            "bench_kwargs": set(),
            "bench_dests": set(),
        })
        if parsed.path.endswith("repro/serve/api.py"):
            for node in parsed.tree.body:
                if (isinstance(node, ast.ClassDef)
                        and node.name in _CONFIG_CLASSES):
                    fields = {}
                    for stmt in node.body:
                        if (isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name)
                                and not stmt.target.id.startswith("_")):
                            fields[stmt.target.id] = (parsed.path,
                                                      stmt.lineno)
                    facts["fields"][node.name] = fields
        in_bench = "repro/bench/" in parsed.path
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            if in_bench:
                for kw in node.keywords:
                    if kw.arg is not None:
                        facts["bench_kwargs"].add(kw.arg)
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add_argument"):
                    _, dest = ArgparseCollisionRule._dest_of(node)
                    if dest is not None:
                        facts["bench_dests"].add(dest)
            name = _terminal(node.func)
            if name in _CONFIG_CLASSES:
                for kw in node.keywords:
                    if kw.arg is not None:
                        facts["calls"].append(
                            (name, kw.arg, parsed.path, node.lineno))
        return ()

    def finalize(self, ctx: AnalysisContext) -> Iterable[Finding]:
        facts = ctx.facts.get(self.code)
        if not facts or not facts["fields"]:
            return  # api.py not in the analyzed set: nothing to check
        for cls, kwarg, path, line in facts["calls"]:
            fields = facts["fields"].get(cls)
            if fields is not None and kwarg not in fields:
                yield Finding(
                    code=self.code, path=path, line=line,
                    message=f"unknown field {kwarg!r} passed to {cls}() "
                            f"(schema drift against repro/serve/api.py)")
        reachable = facts["bench_kwargs"] | facts["bench_dests"]
        for cls, fields in sorted(facts["fields"].items()):
            for field_name, (path, line) in sorted(fields.items()):
                if field_name in _STRUCTURAL_FIELDS:
                    continue
                if field_name not in reachable:
                    yield Finding(
                        code=self.code, path=path, line=line,
                        message=f"{cls}.{field_name} is not settable from "
                                f"any repro.bench CLI builder (no kwarg "
                                f"or argparse dest matches)")


# ----------------------------------------------------------------------
# RPL006 — deprecation shims must emit DeprecationWarning
# ----------------------------------------------------------------------
_DEPRECATION_CATEGORIES = {"DeprecationWarning",
                           "PendingDeprecationWarning", "FutureWarning"}


@register
class DeprecationCategoryRule(Rule):
    code = "RPL006"
    title = ("warnings.warn about deprecation must pass a "
             "DeprecationWarning category")
    rationale = (
        "A deprecation shim lives one PR cycle behind a "
        "DeprecationWarning, and tier-1 CI runs with `-W error::"
        "DeprecationWarning` so no call site outlives it; a shim "
        "warning with the default UserWarning category escapes that "
        "filter and user expectations.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain not in ("warnings.warn", "warn"):
                continue
            mentions = any(
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and "deprecat" in sub.value.lower()
                for arg in node.args[:1] for sub in ast.walk(arg))
            if not mentions:
                continue
            category = None
            if len(node.args) >= 2:
                category = _terminal(node.args[1])
            for kw in node.keywords:
                if kw.arg == "category":
                    category = _terminal(kw.value)
            if category not in _DEPRECATION_CATEGORIES:
                yield self.finding(
                    parsed, node,
                    "deprecation message warned without a "
                    "DeprecationWarning category")


# ----------------------------------------------------------------------
# RPL007 — set iteration feeding ordered output
# ----------------------------------------------------------------------
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationRule(Rule):
    code = "RPL007"
    title = "no iteration over sets (ordering nondeterminism); sort first"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "seeds; a set-driven loop that fills a metrics/report dict "
        "makes output ordering (and tie-breaking) nondeterministic.  "
        "Iterate sorted(...) instead.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ast.walk(parsed.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        parsed, it,
                        "iterating a set produces nondeterministic "
                        "order; wrap it in sorted(...)")


# ----------------------------------------------------------------------
# RPL008 — bare round() on heuristics
# ----------------------------------------------------------------------
@register
class BareRoundRule(Rule):
    code = "RPL008"
    title = "no bare round() — banker's rounding is seed-sensitive"
    rationale = (
        "round() rounds halves to even, so a cost/split heuristic "
        "built on it flips direction at exact .5 boundaries (the PR-3 "
        "optimal_split_factor bug).  Use int(x + 0.5), math.floor/"
        "ceil, or compare both neighbours explicitly.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ast.walk(parsed.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "round"):
                yield self.finding(
                    parsed, node,
                    "bare round() uses banker's rounding; pick an "
                    "explicit rounding direction")


# ----------------------------------------------------------------------
# RPL009 — timeline/SLO sampling code purity
# ----------------------------------------------------------------------
#: The windowed-telemetry modules held to the observation-only bar.
_SAMPLING_PATHS = ("obs/timeline.py", "obs/slo.py")


@register
class SamplingPurityRule(Rule):
    code = "RPL009"
    title = ("timeline/SLO sampling code must not touch the tracer or "
             "read the wall clock")
    rationale = (
        "The timeline collector's contract is bit-identity: end-of-run "
        "metrics equal with sampling on or off, windows advancing on "
        "simulated time only.  A Tracer record call from obs/timeline "
        "or obs/slo (guarded or not — trace events are the simulator's "
        "job) couples sampling to tracing state, and a wall-clock read "
        "makes window contents machine-dependent; either breaks the "
        "golden on/off parity tests.")

    def check(self, parsed: ParsedFile,
              ctx: AnalysisContext) -> Iterable[Finding]:
        if not parsed.path.endswith(_SAMPLING_PATHS):
            return
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain in _WALL_CLOCK:
                yield self.finding(
                    parsed, node,
                    f"wall-clock call {chain}() in sampling code; "
                    f"windows must advance on simulated time only")
                continue
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TRACER_METHODS):
                term = _terminal(node.func.value)
                if term is not None and term.endswith("tracer"):
                    name = chain or node.func.attr
                    yield self.finding(
                        parsed, node,
                        f"tracer record call {name}() in sampling code "
                        f"(even guarded): the collector observes "
                        f"schedulers; trace events belong to the "
                        f"simulator")
