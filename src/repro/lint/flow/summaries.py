"""Per-function summaries and the intraprocedural transfer function.

One :class:`FunctionSummary` compresses everything later callers need
to know about a function — which parameters reach its return value,
which reach a sink, which flow into an ε argument of a mechanism,
which cross an executor boundary, whether it charges an accountant and
whether its body is deterministic. Summaries are computed bottom-up
over the call graph, so analysing a call site is a table lookup, not a
re-walk of the callee: whole-project analysis stays linear-ish in
project size.

The intraprocedural walk is a flow-insensitive-within-branches,
join-on-assign abstract interpretation over :class:`~.lattice.Taint`
values. Each body is walked twice so taint introduced late in a loop
reaches uses earlier in it; the lattice is finite, so the second pass
is a fixpoint for the joins used here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.lint.flow.lattice import (
    EMPTY,
    GENERATOR,
    NOISE,
    RAW,
    SANITIZED,
    Taint,
    join_all,
)
from repro.lint.flow.model import (
    EXTERNAL_SINKS,
    GENERATOR_MAKERS,
    NONDETERMINISTIC,
    SINK_METHODS,
    FlowModel,
    is_budget_param,
    is_storeish_name,
)
from repro.lint.flow.symbols import ClassDecl, SymbolTable, param_names
from repro.lint.project import ModuleInfo
from repro.lint.rules.common import dotted_chain, identifier_of, source_of

#: Attribute-call names treated as value sanitizers even when the
#: receiver's class cannot be resolved statically (``mech.sanitize(...)``
#: on a registry-instantiated mechanism). ``sanitize``/``sanitize_tree``
#: additionally carry the accountant-threading convention DP101 checks.
FALLBACK_SANITIZER_METHODS = frozenset(
    {"sanitize", "sanitize_tree", "randomize", "publish"}
)
ACCOUNTANT_CHECKED_METHODS = frozenset({"sanitize", "sanitize_tree"})

#: ``.submit``-style methods that always dispatch work to workers, and
#: dispatch methods only trusted on executor-ish receivers.
_SUBMIT_METHODS = frozenset({"submit", "apply_async"})
_GUARDED_METHODS = frozenset({"map", "run", "starmap", "imap", "imap_unordered"})


def _is_executorish(expr: ast.expr) -> bool:
    name = identifier_of(expr)
    if name and ("executor" in name.lower() or "pool" in name.lower()):
        return True
    if isinstance(expr, ast.Call):
        callee = identifier_of(expr.func)
        return bool(
            callee and (callee.endswith("Executor") or callee == "get_executor")
        )
    return False


def submission_label(node: ast.Call) -> str | None:
    """A human label if ``node`` dispatches work to workers, else None."""
    if not node.args:
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return "execute()" if func.id == "execute" else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _SUBMIT_METHODS:
        return f".{func.attr}()"
    if func.attr in _GUARDED_METHODS and _is_executorish(func.value):
        return f".{func.attr}()"
    return None


@dataclass(frozen=True)
class Impurity:
    """One reason a function is not a pure function of its inputs."""

    reason: str
    line: int


@dataclass(frozen=True)
class FunctionSummary:
    """Caller-visible facts about one analysed function."""

    qualname: str
    params: tuple[str, ...] = ()
    returns_labels: frozenset[str] = frozenset()
    return_params: frozenset[str] = frozenset()
    #: param name -> sink kinds it may reach inside the callee
    sink_params: tuple[tuple[str, str], ...] = ()
    #: params that flow into an ε/δ argument of a mechanism call
    budget_params: frozenset[str] = frozenset()
    #: params that flow into an executor-submission payload
    submit_params: frozenset[str] = frozenset()
    charges_accountant: bool = False
    constructs_accountant: bool = False
    #: body (or a non-dispatching callee) derives per-task seed
    #: sequences; safe at the dispatch site, unsafe inside a submitted
    #: task body (RNG101)
    spawns_seeds: bool = False
    #: body contains an executor-submission call — the function IS a
    #: dispatch site, so its own seed spawning is the blessed pattern
    #: and does not taint callers
    submits_tasks: bool = False
    #: free names the body reads that hold a live generator in the
    #: defining scope; submitting the function pickles them (RNG100)
    captured_generators: frozenset[str] = frozenset()
    impure: tuple[Impurity, ...] = ()

    def sink_kinds_of(self, param: str) -> tuple[str, ...]:
        return tuple(kind for p, kind in self.sink_params if p == param)


#: Finding callback: (rule_id, ast node, message).
EmitFn = Callable[[str, ast.AST, str], None]


class FunctionAnalyzer:
    """Walk one function body, producing a summary and (optionally) findings."""

    def __init__(
        self,
        module: ModuleInfo,
        symbols: SymbolTable,
        model: FlowModel,
        summaries: dict[str, FunctionSummary],
        module_env: dict[str, Taint] | None = None,
        class_ctx: ClassDecl | None = None,
        emit: EmitFn | None = None,
        mutable_globals: frozenset[str] = frozenset(),
    ) -> None:
        self.module = module
        self.symbols = symbols
        self.model = model
        self.summaries = summaries
        self.module_env = module_env or {}
        self.class_ctx = class_ctx
        self.emit = emit
        self.mutable_globals = mutable_globals
        # Per-analysis state, reset in analyze()
        self.env: dict[str, Taint] = {}
        self.local_summaries: dict[str, FunctionSummary] = {}
        self.return_taint = EMPTY
        self.sink_params: set[tuple[str, str]] = set()
        self.budget_params: set[str] = set()
        self.submit_params: set[str] = set()
        self.charges = False
        self.constructs = False
        self.spawns_seeds = False
        self.submits = False
        self.captured: frozenset[str] = frozenset()
        self.impure: list[Impurity] = []
        self._param_names: tuple[str, ...] = ()
        self._param_set: frozenset[str] = frozenset()
        self._bound: set[str] = set()
        self._qualname = ""
        self._pass_index = 0

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def analyze_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        qualname: str,
        outer_env: dict[str, Taint] | None = None,
        outer_locals: dict[str, FunctionSummary] | None = None,
        is_method: bool = False,
    ) -> FunctionSummary:
        self._reset(qualname)
        names = list(param_names(node)) + [
            a.arg for a in node.args.kwonlyargs
        ]
        if is_method and names and names[0] in ("self", "cls"):
            pass  # self stays a tracked param: receiver taint maps onto it
        self._param_names = tuple(names)
        self._param_set = frozenset(names)
        self.env = {name: Taint(params=frozenset({name})) for name in names}
        for special in (node.args.vararg, node.args.kwarg):
            if special is not None:
                self.env[special.arg] = Taint(
                    params=frozenset({special.arg})
                )
        if outer_env:
            # Closure capture: enclosing bindings are visible unless
            # shadowed; copy them in below the parameter layer.
            for name, taint in outer_env.items():
                self.env.setdefault(name, taint)
        if outer_locals:
            self.local_summaries.update(outer_locals)
        self._bound = set(self.env)
        body = node.body if isinstance(node.body, list) else [ast.Return(value=node.body)]
        # Two passes: the second sees loop-carried and late bindings, and
        # is the only one that reports (so a charge anywhere in the scope
        # is known before any mechanism call is judged).
        for index in range(2):
            self._pass_index = index
            self.impure = []
            self._exec_block(body)
        # A free name resolves in the defining scope (copied into env as
        # outer_env), else among the module globals.
        scope = {**self.module_env, **self.env}
        generators = {name for name, taint in scope.items() if taint.is_generator}
        if generators:  # most bodies see no generator: skip the AST walk
            self.captured = frozenset(generators & _free_names(node))
        return self._summary()

    def analyze_module_body(self) -> dict[str, Taint]:
        """Walk module-level statements; returns the module-global env."""
        self._reset(f"<module {self.module.rel}>")
        self.env = dict(self.module_env)
        for index in range(2):
            self._pass_index = index
            self.impure = []
            self._exec_block(self.module.tree.body)
        return dict(self.env)

    def _reset(self, qualname: str) -> None:
        self._qualname = qualname
        self.env = {}
        self.local_summaries = {}
        self.return_taint = EMPTY
        self.sink_params = set()
        self.budget_params = set()
        self.submit_params = set()
        self.charges = False
        self.constructs = False
        self.spawns_seeds = False
        self.submits = False
        self.captured = frozenset()
        self.impure = []
        self._pass_index = 0

    def _summary(self) -> FunctionSummary:
        params = self._param_set
        return FunctionSummary(
            qualname=self._qualname,
            # Declaration order is load-bearing: _map_args matches caller
            # positionals against this tuple.
            params=self._param_names,
            returns_labels=self.return_taint.labels,
            return_params=self.return_taint.params & params,
            sink_params=tuple(
                sorted((p, k) for p, k in self.sink_params if p in params)
            ),
            budget_params=frozenset(self.budget_params) & params,
            submit_params=frozenset(self.submit_params) & params,
            charges_accountant=self.charges,
            constructs_accountant=self.constructs,
            spawns_seeds=self.spawns_seeds,
            submits_tasks=self.submits,
            captured_generators=self.captured,
            impure=tuple(self.impure),
        )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _bind(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self._bound.add(target.id)
            previous = self.env.get(target.id, EMPTY)
            self.env[target.id] = previous.join(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # ``obj.attr = raw`` / ``obj[i] = raw``: the container
            # absorbs the taint.
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                self._bind(root, taint)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            taint = self.eval_expr(value) if value is not None else EMPTY
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._bind(target, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint = self.return_taint.join(
                    self.eval_expr(stmt.value)
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bound.add(stmt.name)
            self.env.setdefault(stmt.name, EMPTY)
            nested = FunctionAnalyzer(
                self.module,
                self.symbols,
                self.model,
                self.summaries,
                module_env=self.module_env,
                class_ctx=self.class_ctx,
                emit=self.emit,
                mutable_globals=self.mutable_globals,
            )
            self.local_summaries[stmt.name] = nested.analyze_function(
                stmt,
                f"{self._qualname}.<locals>.{stmt.name}",
                outer_env=self.env,
                outer_locals=self.local_summaries,
            )
        elif isinstance(stmt, ast.For):
            self._bind(stmt.target, self.eval_expr(stmt.iter))
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval_expr(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        elif isinstance(stmt, ast.ClassDef):
            self._bound.add(stmt.name)
            self._exec_block(stmt.body)
        else:
            # Imports, Global, Pass, Delete, Match, ... — walk any nested
            # statement lists and expressions generically.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
                elif isinstance(child, ast.stmt):
                    self._exec_stmt(child)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval_expr(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self._lookup(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self.eval_expr(node.value)
        if isinstance(node, ast.BinOp):
            left = self.eval_expr(node.left)
            right = self.eval_expr(node.right)
            joined = left.join(right)
            # values + calibrated_noise is the additive-mechanism idiom:
            # the sum is a sanitized release, not raw data.
            if isinstance(node.op, (ast.Add, ast.Sub)) and (
                left.has_noise or right.has_noise
            ):
                return Taint(
                    frozenset({SANITIZED, NOISE}), joined.params
                )
            return joined
        if isinstance(node, ast.Await):
            return self.eval_expr(node.value)
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            taints = []
            for gen in node.generators:
                iter_taint = self.eval_expr(gen.iter)
                self._bind(gen.target, iter_taint)
                taints.append(iter_taint)
            if isinstance(node, ast.DictComp):
                taints.append(self.eval_expr(node.key))
                taints.append(self.eval_expr(node.value))
            else:
                taints.append(self.eval_expr(node.elt))
            return join_all(taints)
        # Containers, subscripts, comparisons, f-strings, conditionals,
        # boolean ops, starred, slices: join over child expressions.
        taints = [
            self.eval_expr(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return join_all(taints)

    def _lookup(self, node: ast.Name) -> Taint:
        name = node.id
        if name in self.env:
            return self.env[name]
        if name in self.module_env:
            taint = self.module_env[name]
        else:
            taint = EMPTY
        if (
            name in self.mutable_globals
            and name not in self._bound
            and isinstance(node.ctx, ast.Load)
        ):
            self.impure.append(
                Impurity(
                    reason=f"reads mutable module global {name!r}",
                    line=getattr(node, "lineno", 1),
                )
            )
        return taint

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> Taint:
        arg_taints = [self.eval_expr(a) for a in call.args]
        kw_taints = {
            kw.arg: self.eval_expr(kw.value) for kw in call.keywords
        }
        receiver = EMPTY
        if isinstance(call.func, ast.Attribute):
            receiver = self.eval_expr(call.func.value)
        elif not isinstance(call.func, ast.Name):
            receiver = self.eval_expr(call.func)

        chain = dotted_chain(call.func)
        qualname = self.symbols.resolve_call(
            self.module, call.func, self.class_ctx
        )
        self._note_impure_call(call, chain)
        self._note_accounting(call, chain, qualname)
        self._check_stage_binding(call, chain, qualname)
        label = submission_label(call)
        if label is not None:
            self.submits = True
            self._check_submission(call, label, arg_taints, kw_taints)

        sink_kind = self._sink_kind_of(call, chain, qualname)
        if sink_kind is not None:
            self._record_sink(call, sink_kind, arg_taints, kw_taints, receiver)
            return EMPTY
        self._check_span_attributes(call, kw_taints)

        if self.model.is_source(qualname):
            return Taint(frozenset({RAW}))
        if self.model.is_noise_source(qualname):
            self._check_budget_args(call, qualname, arg_taints, kw_taints)
            return Taint(frozenset({NOISE}))
        is_fallback_sanitizer = (
            qualname is None
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in FALLBACK_SANITIZER_METHODS
        )
        if self.model.is_sanitizer(qualname) or is_fallback_sanitizer:
            self._check_budget_args(call, qualname, arg_taints, kw_taints)
            self._check_accountant_dominates(call, qualname)
            self._apply_summary_effects(call, qualname, arg_taints, kw_taints, receiver)
            return Taint(frozenset({SANITIZED}))
        if self._is_generator_maker(call, chain, qualname):
            return Taint(frozenset({GENERATOR}))

        summary = self._summary_for(call, qualname)
        if summary is not None:
            result = self._apply_summary_effects(
                call, qualname, arg_taints, kw_taints, receiver, summary
            )
            return result
        # Unknown external call: taint flows through arguments and the
        # receiver; a live generator does not survive an arbitrary call
        # (draws are arrays, not generators).
        joined = receiver.join(*arg_taints, *kw_taints.values())
        return Taint(joined.labels - {GENERATOR}, joined.params)

    def _summary_for(
        self, call: ast.Call, qualname: str | None
    ) -> FunctionSummary | None:
        if isinstance(call.func, ast.Name) and call.func.id in self.local_summaries:
            return self.local_summaries[call.func.id]
        if qualname is not None and qualname in self.summaries:
            return self.summaries[qualname]
        return None

    def _map_args(
        self,
        call: ast.Call,
        params: tuple[str, ...],
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
        receiver: Taint,
        is_method_call: bool,
    ) -> dict[str, Taint]:
        mapping: dict[str, Taint] = {}
        positional = list(params)
        if is_method_call and positional and positional[0] in ("self", "cls"):
            mapping[positional[0]] = receiver
            positional = positional[1:]
        for index, taint in enumerate(arg_taints):
            if index < len(positional):
                mapping[positional[index]] = taint
        for name, taint in kw_taints.items():
            if name is not None and name in params:
                mapping[name] = taint
        return mapping

    def _apply_summary_effects(
        self,
        call: ast.Call,
        qualname: str | None,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
        receiver: Taint,
        summary: FunctionSummary | None = None,
    ) -> Taint:
        """Project a callee summary onto this call site."""
        if summary is None:
            summary = self._summary_for(call, qualname)
        if summary is None:
            return Taint(frozenset({SANITIZED}))
        is_method_call = isinstance(call.func, ast.Attribute)
        mapping = self._map_args(
            call, summary.params, arg_taints, kw_taints, receiver, is_method_call
        )
        for param, taint in mapping.items():
            for kind in summary.sink_kinds_of(param):
                if taint.is_raw:
                    self._finding(
                        "DP100",
                        call,
                        f"raw household data flows into "
                        f"'{source_of(call.func)}' parameter {param!r}, "
                        f"which reaches a {kind} sink inside the callee; "
                        "sanitize through a charged mechanism first",
                    )
                for origin in taint.params:
                    self.sink_params.add((origin, kind))
            if param in summary.budget_params:
                if taint.is_raw:
                    self._finding(
                        "DP102",
                        call,
                        f"privacy budget argument {param!r} of "
                        f"'{source_of(call.func)}' is derived from raw "
                        "data; data-dependent ε voids the DP guarantee — "
                        "budgets must come from config",
                    )
                self.budget_params |= taint.params
            if param in summary.submit_params:
                if taint.is_generator:
                    self._finding(
                        "RNG100",
                        call,
                        f"live np.random.Generator passed to "
                        f"'{source_of(call.func)}' parameter {param!r} "
                        "crosses an executor boundary inside the callee; "
                        "ship a seed and rebuild with "
                        "repro.parallel.task_generator in the worker",
                    )
                self.submit_params |= taint.params
        returns = Taint(summary.returns_labels)
        carried = join_all(
            mapping.get(param, EMPTY) for param in summary.return_params
        )
        # A value *derived from* a generator argument (seeds, draws) is
        # not itself a generator; only helpers whose bodies manufacture
        # one return generator-ness.
        if GENERATOR not in summary.returns_labels:
            carried = Taint(carried.labels - {GENERATOR}, carried.params)
        if self.model.is_sanitizer(qualname):
            return Taint(frozenset({SANITIZED}))
        return returns.join(carried)

    # ------------------------------------------------------------------
    # model checks at call sites
    # ------------------------------------------------------------------

    def _sink_kind_of(
        self, call: ast.Call, chain: tuple[str, ...] | None, qualname: str | None
    ) -> str | None:
        kind = self.model.sink_kind(qualname)
        if kind is not None:
            return kind
        if isinstance(call.func, ast.Name) and call.func.id == "print":
            return "stdout"
        if chain is not None:
            dotted = ".".join(chain)
            if dotted in EXTERNAL_SINKS:
                return EXTERNAL_SINKS[dotted]
        if isinstance(call.func, ast.Attribute):
            method_kind = SINK_METHODS.get(call.func.attr)
            if method_kind == "artifact-store":
                return (
                    method_kind
                    if is_storeish_name(identifier_of(call.func.value))
                    or isinstance(call.func.value, ast.Call)
                    and identifier_of(call.func.value.func) == "ArtifactStore"
                    else None
                )
            return method_kind
        return None

    def _record_sink(
        self,
        call: ast.Call,
        kind: str,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
        receiver: Taint,
    ) -> None:
        del receiver  # writing raw data *through* a tainted handle is fine
        for taint in list(arg_taints) + list(kw_taints.values()):
            if taint.is_raw:
                self._finding(
                    "DP100",
                    call,
                    f"raw household data reaches {kind} sink "
                    f"'{source_of(call)}' without passing a charged "
                    "mechanism; only sanitized (post-processed) values "
                    "may be published",
                )
            for origin in taint.params:
                self.sink_params.add((origin, kind))

    def _check_span_attributes(
        self, call: ast.Call, kw_taints: dict[str | None, Taint]
    ) -> None:
        """``tracer.span(name, **attrs)`` exports its attribute values."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "span"):
            return
        receiver_name = identifier_of(func.value)
        is_tracerish = bool(receiver_name and "tracer" in receiver_name.lower())
        if isinstance(func.value, ast.Call):
            callee = identifier_of(func.value.func)
            is_tracerish = is_tracerish or callee == "get_tracer"
        if not is_tracerish:
            return
        for name, taint in kw_taints.items():
            if taint.is_raw:
                self._finding(
                    "DP100",
                    call,
                    f"raw household data exported as trace-span attribute "
                    f"{name!r}; spans are observability output — attach "
                    "only sanitized or config-derived values",
                )
            for origin in taint.params:
                self.sink_params.add((origin, "trace-span"))

    def _check_budget_args(
        self,
        call: ast.Call,
        qualname: str | None,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
    ) -> None:
        """DP102 — an ε/δ argument of a mechanism must not be data-derived."""
        flagged: list[tuple[str, Taint]] = []
        decl = self.symbols.functions.get(qualname) if qualname else None
        if decl is not None:
            params = decl.call_params()
            for index, taint in enumerate(arg_taints):
                if index < len(params) and is_budget_param(params[index]):
                    flagged.append((params[index], taint))
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in FALLBACK_SANITIZER_METHODS
            and len(arg_taints) >= 2
        ):
            # Mechanism.sanitize(matrix, epsilon, ...) convention.
            flagged.append(("epsilon", arg_taints[1]))
        for name, taint in kw_taints.items():
            if is_budget_param(name):
                flagged.append((str(name), taint))
        for name, taint in flagged:
            if taint.is_raw:
                self._finding(
                    "DP102",
                    call,
                    f"privacy budget argument {name!r} of "
                    f"'{source_of(call.func)}' is derived from raw data; "
                    "a data-dependent ε is itself a privacy leak — budgets "
                    "must come from config or a BudgetSplit",
                )
            self.budget_params |= taint.params & self._param_set

    def _check_accountant_dominates(
        self, call: ast.Call, qualname: str | None
    ) -> None:
        """DP101 — a mechanism call must be dominated by accounting."""
        accountant_passed = False
        for kw in call.keywords:
            if kw.arg == "accountant":
                accountant_passed = not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is None
                )
        decl = self.symbols.functions.get(qualname) if qualname else None
        if decl is not None:
            params = decl.call_params()
            if "accountant" not in params:
                return  # signature cannot take one; DP001 governs raw draws
            if len(call.args) > params.index("accountant"):
                accountant_passed = True
            callee_summary = self.summaries.get(qualname)
            if callee_summary is not None and callee_summary.constructs_accountant:
                return  # self-accounting mechanism (constructs its own)
        elif not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ACCOUNTANT_CHECKED_METHODS
        ):
            return
        if accountant_passed:
            return
        if self.charges or self.constructs:
            return  # a charge in this scope dominates the call
        if self._qualname_is_sanitizer():
            return  # accounting is the caller's obligation, one level up
        self._finding(
            "DP101",
            call,
            f"mechanism call '{source_of(call)}' is not dominated by an "
            "accountant charge: pass accountant= (or charge a "
            "BudgetAccountant in this scope) so the spend is on the ledger",
        )

    def _qualname_is_sanitizer(self) -> bool:
        if self._qualname in self.model.sanitizers:
            return True
        if self.model.is_noise_source(self._qualname):
            return True
        leaf = self._qualname.rsplit(".", 1)[-1]
        return leaf in FALLBACK_SANITIZER_METHODS and (
            "<locals>" not in self._qualname
        )

    def _note_accounting(
        self, call: ast.Call, chain: tuple[str, ...] | None, qualname: str | None
    ) -> None:
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "spend",
            "spend_parallel",
        ):
            self.charges = True
        tail = chain[-1] if chain else None
        if tail == "BudgetAccountant":
            self.constructs = True
        if tail == "spawn_seed_sequences":
            self.spawns_seeds = True
        summary = self.summaries.get(qualname) if qualname else None
        if summary is not None and summary.charges_accountant:
            self.charges = True
        # A dispatcher's own spawning is the blessed before-dispatch
        # pattern; only spawning in ordinary helpers taints callers.
        if (
            summary is not None
            and summary.spawns_seeds
            and not summary.submits_tasks
        ):
            self.spawns_seeds = True

    def _is_generator_maker(
        self, call: ast.Call, chain: tuple[str, ...] | None, qualname: str | None
    ) -> bool:
        if chain is None:
            return False
        tail = chain[-1]
        if tail in GENERATOR_MAKERS:
            return True
        if tail == "Generator" and len(chain) >= 2 and chain[-2] == "random":
            return True
        if qualname is not None:
            summary = self.summaries.get(qualname)
            if summary is not None and GENERATOR in summary.returns_labels:
                return True
        return False

    def _check_submission(
        self,
        call: ast.Call,
        label: str,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
    ) -> None:
        """RNG100/RNG101 — the task and payloads at a submission site."""
        task = call.args[0]
        task_summary = self._stage_fn_summary(task)
        if task_summary is not None and task_summary.captured_generators:
            name = (
                "lambda"
                if isinstance(task, ast.Lambda)
                else f"function {source_of(task)!r}"
            )
            self._finding(
                "RNG100",
                task,
                f"{name} submitted via {label} captures live generator(s) "
                f"{sorted(task_summary.captured_generators)} from the scope "
                "that defines it; pickling forks their state — pass a seed "
                "payload and rebuild with repro.parallel.task_generator",
            )
        if (
            task_summary is not None
            and task_summary.spawns_seeds
            and not task_summary.submits_tasks
        ):
            self._finding(
                "RNG101",
                call,
                f"task function "
                f"'{task_summary.qualname.rsplit('.', 1)[-1]}' submitted "
                f"via {label} calls spawn_seed_sequences inside its body; "
                "per-task seed sequences must be derived at the dispatch "
                "site, before submission, so the streams a task draws do "
                "not depend on how the work was sharded or scheduled",
            )
        payloads = list(zip(call.args[1:], arg_taints[1:])) + [
            (kw.value, kw_taints[kw.arg]) for kw in call.keywords
        ]
        for expr, taint in payloads:
            if taint.is_generator:
                self._finding("RNG100", expr, self._payload_message(expr, label))
            for origin in taint.params & self._param_set:
                self.submit_params.add(origin)

    def _payload_message(self, expr: ast.expr, label: str) -> str:
        names = sorted(
            {
                sub.id
                for sub in ast.walk(expr)
                if isinstance(sub, ast.Name)
                and self.env.get(
                    sub.id, self.module_env.get(sub.id, EMPTY)
                ).is_generator
            }
        )
        if names:
            what = f"live generator(s) {names} passed as a {label} payload"
        else:
            what = f"live generator constructed inside a {label} payload"
        return (
            f"{what} crosses the process boundary; pickling forks its "
            "state — ship a seed (repro.rng.derive_seed / "
            "SeedSequence.spawn) and rebuild with "
            "repro.parallel.task_generator in the worker"
        )

    def _note_impure_call(
        self, call: ast.Call, chain: tuple[str, ...] | None
    ) -> None:
        if chain is None:
            return
        candidates = {".".join(chain)}
        if len(chain) >= 2:
            candidates.add(".".join(chain[-2:]))
        if len(chain) == 1:
            candidates.add(chain[0])
        hit = candidates & NONDETERMINISTIC
        if hit:
            self.impure.append(
                Impurity(
                    reason=f"calls nondeterministic {sorted(hit)[0]}()",
                    line=getattr(call, "lineno", 1),
                )
            )

    # ------------------------------------------------------------------
    # stage bindings
    # ------------------------------------------------------------------

    def _check_stage_binding(
        self, call: ast.Call, chain: tuple[str, ...] | None, qualname: str | None
    ) -> None:
        """DP100 (stage-output) and PURE001 at ``Stage(...)`` constructions."""
        is_stage = bool(chain and chain[-1] == "Stage") or bool(
            qualname and qualname.endswith((".Stage", ".Stage.__init__"))
        )
        if not is_stage:
            return
        fn_expr: ast.expr | None = call.args[1] if len(call.args) >= 2 else None
        name_expr: ast.expr | None = call.args[0] if call.args else None
        spends_budget = False
        for kw in call.keywords:
            if kw.arg == "fn":
                fn_expr = kw.value
            elif kw.arg == "name":
                name_expr = kw.value
            elif kw.arg == "spends_budget":
                spends_budget = not (
                    isinstance(kw.value, ast.Constant) and not kw.value.value
                )
        summary = self._stage_fn_summary(fn_expr)
        if summary is None:
            return
        if not spends_budget and RAW in summary.returns_labels:
            stage_name = source_of(name_expr) if name_expr is not None else "?"
            self._finding(
                "DP100",
                call,
                f"stage {stage_name} has "
                "spends_budget=False but its function returns raw household "
                "data; the stage output is a stage-output sink — sanitize "
                "inside the stage or mark it spends_budget=True",
            )
        for impurity in summary.impure[:3]:
            self._finding(
                "PURE001",
                call,
                f"stage function '{summary.qualname.rsplit('.', 1)[-1]}' "
                f"{impurity.reason} (line {impurity.line}); stage functions "
                "must be pure functions of (ctx, inputs) for caching and "
                "replay to be sound",
            )

    def _stage_fn_summary(self, fn_expr: ast.expr | None) -> FunctionSummary | None:
        if fn_expr is None:
            return None
        if isinstance(fn_expr, ast.Name):
            # Prefer the fixpoint summary: a module-level stage function
            # re-analyzed as a "local" of the module walk sees module
            # globals as ordinary bindings, hiding mutable-global reads.
            resolved = self.symbols.resolve_name(self.module, fn_expr.id)
            if resolved is not None and resolved in self.summaries:
                return self.summaries[resolved]
            return self.local_summaries.get(fn_expr.id)
        if isinstance(fn_expr, ast.Lambda):
            nested = FunctionAnalyzer(
                self.module,
                self.symbols,
                self.model,
                self.summaries,
                module_env=self.module_env,
                class_ctx=self.class_ctx,
                mutable_globals=self.mutable_globals,
            )
            return nested.analyze_function(
                fn_expr, f"{self._qualname}.<lambda>", outer_env=self.env
            )
        return None

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------

    def _finding(self, rule_id: str, node: ast.AST, message: str) -> None:
        # Only the second walk reports: by then every charge, binding and
        # nested definition in the scope has been seen once.
        if self.emit is not None and self._pass_index == 1:
            self.emit(rule_id, node, message)


def _free_names(fn: ast.AST) -> set[str]:
    """Names a function or lambda reads without binding them itself."""
    loaded: set[str] = set()
    bound: set[str] = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, ast.Name):
            (loaded if isinstance(sub.ctx, ast.Load) else bound).add(sub.id)
        elif sub is not fn and isinstance(
            sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound.add(sub.name)
    return loaded - bound


def module_mutable_globals(module: ModuleInfo) -> frozenset[str]:
    """Module-level names bound to mutable literals (registries, caches).

    ALL_CAPS names are exempt: the repo convention is that upper-case
    module globals are write-once registries populated at import time
    (``MECHANISM_REGISTRY``), which a stage may safely read.
    """
    mutable: set[str] = set()
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and identifier_of(value.func) in ("dict", "list", "set")
        )
        if not is_mutable:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and not target.id.isupper():
                mutable.add(target.id)
    return frozenset(mutable)


__all__ = [
    "ACCOUNTANT_CHECKED_METHODS",
    "EmitFn",
    "FALLBACK_SANITIZER_METHODS",
    "FunctionAnalyzer",
    "FunctionSummary",
    "Impurity",
    "module_mutable_globals",
    "submission_label",
]
