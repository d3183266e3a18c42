"""Forward dataflow / taint framework over the project call graph.

The analysis answers one question for four taint kinds: *can a value from a
nondeterministic source reach a place where it changes simulation results?*

Kinds
    * ``wallclock`` — wall-clock / ambient-entropy reads (``time.time``,
      ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, …);
    * ``fsorder``  — filesystem enumeration whose order the OS chooses
      (``os.listdir``, ``glob.glob``, ``Path.iterdir``/``glob``/``rglob``,
      ``os.walk``, ``os.scandir``) until ``sorted(...)`` pins it;
    * ``objid``    — per-process object identity (``id(x)``, ``hash(x)``
      of a non-trivial object under hash randomization);
    * ``rng``      — live ``numpy.random.Generator`` objects (stateful;
      must not cross a process/sweep-cell boundary).

Propagation is context-insensitive and flow-light: each function is
evaluated over its statements (two passes, so later defs feed earlier
uses), locals map to taint-kind sets, and per-function summaries
(``param taints in`` / ``return taint out``) are iterated to a fixpoint
over the whole program, so taint crosses call and return edges.

Sinks are recorded as :class:`SinkHit` rows the whole-program rules turn into
findings:

    ``state``      assignment of a tainted value into ``self.*`` or a
                   ``global`` inside ``repro.*`` (sim state);
    ``hash``       tainted argument to ``derive_seed`` / ``content_hash``
                   / ``cell_key`` / ``canonical_json`` / ``code_salt``;
    ``output``     tainted argument to a trace/file write inside ``repro.*``;
    ``iteration``  loop/comprehension over an ``fsorder``-tainted iterable;
    ``return``     ``fsorder`` taint escaping through a return value;
    ``boundary``   an ``rng`` value crossing a process-pool ``submit``/
                   ``map`` or passed into a marked sweep worker entrypoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.project import FunctionInfo, Project, dotted_name

WALLCLOCK = "wallclock"
FSORDER = "fsorder"
OBJID = "objid"
RNG = "rng"
_EXECUTOR = "executor"  # internal marker, never reported

#: fully-qualified callables producing wall-clock / entropy taint.
_WALLCLOCK_FULL = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)
_WALLCLOCK_TAILS = frozenset(
    {"time.time", "datetime.now", "datetime.utcnow", "date.today", "os.urandom"}
)

_FSORDER_FULL = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
#: method names producing OS-ordered listings on any receiver (Path API).
_FSORDER_METHODS = frozenset({"iterdir", "rglob", "scandir"})

#: ``sorted`` pins fsorder; the others reduce a listing to an order-free value.
_FSORDER_SANITIZERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "frozenset"}
)

_RNG_PRODUCER_TAILS = frozenset({"default_rng", "spawn_pair"})
_RNG_PRODUCER_METHODS = frozenset({"generator"})

_HASH_SINKS = frozenset(
    {"derive_seed", "content_hash", "cell_key", "canonical_json", "code_salt"}
)
_OUTPUT_SINKS = frozenset(
    {
        "write_text",
        "write_bytes",
        "write_jsonl",
        "write_chrome",
        "emit",
        "record",
        "dump",
        "print",
    }
)
_EXECUTOR_TAILS = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
_BOUNDARY_METHODS = frozenset({"submit", "map"})
#: receiver mutators that propagate argument taint into the receiver.
_MUTATORS = frozenset(
    {"append", "extend", "add", "insert", "update", "setdefault", "push"}
)
#: container accessors: the result carries the *container's* taint, not the
#: lookup key's (a dict memoized by id() does not taint its stored values).
_ACCESSORS = frozenset({"get", "pop", "popitem", "getdefault"})
#: decorator tails marking a sweep/process worker entry point.
ENTRYPOINT_DECORATORS = frozenset({"worker_entrypoint", "register_task"})

#: the sanctioned wall-clock owner: ``repro.perf`` exists to measure host
#: time (DET001/OBS001 release ``time.perf_counter`` to it), so durations it
#: stores in its own profiler state or returns to callers (sweep timing,
#: ``repro bench`` documents) are measurements, not nondeterminism leaking
#: into simulation.  Wallclock taint is therefore dropped at perf-module
#: sinks and perf-function returns; every other kind (fsorder, objid, rng)
#: is still tracked there, and wallclock produced anywhere else still flows.
_PERF_SANCTIONED_PREFIX = "repro.perf"


def _perf_sanctioned(module: str) -> bool:
    return module == _PERF_SANCTIONED_PREFIX or module.startswith(
        _PERF_SANCTIONED_PREFIX + "."
    )


@dataclass(frozen=True)
class SinkHit:
    """One tainted value arriving at a sink."""

    function: str
    module: str
    path: str
    line: int
    col: int
    kind: str
    sink: str
    detail: str


@dataclass
class FunctionSummary:
    """Interprocedural state of one function, iterated to fixpoint."""

    param_in: Dict[str, Set[str]] = field(default_factory=dict)
    returns: Set[str] = field(default_factory=set)

    def snapshot(self) -> Tuple[Tuple[Tuple[str, Tuple[str, ...]], ...], Tuple[str, ...]]:
        return (
            tuple(
                sorted((name, tuple(sorted(kinds))) for name, kinds in self.param_in.items())
            ),
            tuple(sorted(self.returns)),
        )


def _param_names(node: ast.AST) -> List[str]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


class TaintAnalysis:
    """Whole-program taint propagation with per-function summaries."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.summaries: Dict[str, FunctionSummary] = {
            qualname: FunctionSummary() for qualname in project.functions
        }
        self.sink_hits: List[SinkHit] = []

    # -- driver -------------------------------------------------------------

    def run(self, max_rounds: int = 8) -> None:
        """Iterate summaries to a fixpoint, then collect sinks once more."""
        order = sorted(self.project.functions)
        for _ in range(max_rounds):
            before = {q: self.summaries[q].snapshot() for q in order}
            for qualname in order:
                self._analyze(self.project.functions[qualname], collect=False)
            if all(self.summaries[q].snapshot() == before[q] for q in order):
                break
        self.sink_hits = []
        for qualname in order:
            self._analyze(self.project.functions[qualname], collect=True)
        self.sink_hits.sort(key=lambda h: (h.path, h.line, h.col, h.kind, h.sink))

    # -- per-function evaluation --------------------------------------------

    def _analyze(self, fn: FunctionInfo, collect: bool) -> None:
        info = self.project.modules.get(fn.module)
        if info is None:
            return
        state = _FunctionState(self, fn, collect)
        # Two linear passes over the body give later definitions a chance to
        # feed earlier uses without full iteration-to-fixpoint per function.
        for _ in range(2):
            for stmt in fn.node.body:  # type: ignore[attr-defined]
                state.exec_stmt(stmt)

    def _in_repro(self, module: str) -> bool:
        return module == "repro" or module.startswith("repro.")


class _FunctionState:
    """Mutable evaluation state while walking one function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo, collect: bool) -> None:
        self.analysis = analysis
        self.fn = fn
        self.collect = collect
        self.module = analysis.project.modules[fn.module]
        summary = analysis.summaries[fn.qualname]
        self.env: Dict[str, Set[str]] = {
            name: set(kinds) for name, kinds in summary.param_in.items()
        }
        self.globals_declared: Set[str] = set()
        #: >0 while evaluating arguments of a sanitizer call — iterating a
        #: listing *inside* ``sorted(...)`` is the sanctioned fix, not a sink.
        self._sanitizing = 0

    # -- helpers ------------------------------------------------------------

    def _hit(self, node: ast.AST, kind: str, sink: str, detail: str) -> None:
        if not self.collect:
            return
        if kind == WALLCLOCK and _perf_sanctioned(self.fn.module):
            return
        self.analysis.sink_hits.append(
            SinkHit(
                function=self.fn.qualname,
                module=self.fn.module,
                path=self.module.path,
                line=getattr(node, "lineno", self.fn.lineno),
                col=getattr(node, "col_offset", 0),
                kind=kind,
                sink=sink,
                detail=detail,
            )
        )

    def _in_repro(self) -> bool:
        return self.analysis._in_repro(self.fn.module)

    def _expand(self, dotted: str) -> str:
        return self.module.expand(dotted)

    # -- expressions ---------------------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Set[str]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None and dotted in self.env:
                return set(self.env[dotted])
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint: Set[str] = set()
            for element in node.elts:
                taint |= self.eval(element)
            return taint
        if isinstance(node, ast.Dict):
            taint = set()
            for key in node.keys:
                if key is not None:
                    taint |= self.eval(key)
            for value in node.values:
                taint |= self.eval(value)
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.BoolOp):
            taint = set()
            for value in node.values:
                taint |= self.eval(value)
            return taint
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            taint = self.eval(node.left)
            for comparator in node.comparators:
                taint |= self.eval(comparator)
            return taint
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.IfExp):
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            taint = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint |= self.eval(value.value)
            return taint
        if isinstance(node, (ast.Lambda, ast.NamedExpr)):
            if isinstance(node, ast.NamedExpr):
                taint = self.eval(node.value)
                if isinstance(node.target, ast.Name):
                    self.env.setdefault(node.target.id, set()).update(taint)
                return taint
            return set()
        if isinstance(node, ast.Slice):
            taint = set()
            for part in (node.lower, node.upper, node.step):
                taint |= self.eval(part)
            return taint
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        return set()

    def _eval_comprehension(self, node: ast.expr) -> Set[str]:
        taint: Set[str] = set()
        for generator in node.generators:  # type: ignore[attr-defined]
            iter_taint = self.eval(generator.iter)
            if FSORDER in iter_taint and not self._sanitizing:
                self._hit(generator.iter, FSORDER, "iteration", "comprehension")
            self._bind_target(generator.target, iter_taint)
            taint |= iter_taint
        if isinstance(node, ast.DictComp):
            taint |= self.eval(node.key) | self.eval(node.value)
        else:
            taint |= self.eval(node.elt)  # type: ignore[attr-defined]
        return taint

    # -- calls ---------------------------------------------------------------

    def _arg_taints(self, node: ast.Call) -> List[Tuple[ast.expr, Set[str]]]:
        pairs: List[Tuple[ast.expr, Set[str]]] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            pairs.append((arg, self.eval(arg)))
        return pairs

    def eval_call(self, node: ast.Call) -> Set[str]:
        dotted = dotted_name(node.func)
        if dotted is not None and dotted in _FSORDER_SANITIZERS:
            self._sanitizing += 1
            try:
                arg_pairs = self._arg_taints(node)
            finally:
                self._sanitizing -= 1
        else:
            arg_pairs = self._arg_taints(node)
        args_taint: Set[str] = set()
        for _, taint in arg_pairs:
            args_taint |= taint
        if dotted is None:
            return args_taint

        expanded = self._expand(dotted)
        tail = dotted.split(".")[-1]
        two_tail = ".".join(expanded.split(".")[-2:])

        # -- sources --------------------------------------------------------
        if expanded in _WALLCLOCK_FULL or two_tail in _WALLCLOCK_TAILS:
            return args_taint | {WALLCLOCK}
        if expanded in _FSORDER_FULL or (
            tail in _FSORDER_METHODS and isinstance(node.func, ast.Attribute)
        ):
            return args_taint | {FSORDER}
        if tail == "glob" and isinstance(node.func, ast.Attribute):
            return args_taint | {FSORDER}
        if dotted in ("id", "hash") and len(node.args) == 1:
            if not isinstance(node.args[0], ast.Constant):
                return {OBJID}
            return set()
        if tail in _RNG_PRODUCER_TAILS or (
            tail in _RNG_PRODUCER_METHODS and isinstance(node.func, ast.Attribute)
        ):
            self._check_stream_sinks(node, arg_pairs, dotted)
            return {RNG}
        if tail in _EXECUTOR_TAILS:
            return {_EXECUTOR}

        # -- sanitizers -----------------------------------------------------
        if dotted in _FSORDER_SANITIZERS:
            return args_taint - {FSORDER}

        # -- boundary sinks (rng across process pools / worker entrypoints) --
        if (
            tail in _BOUNDARY_METHODS
            and isinstance(node.func, ast.Attribute)
            and _EXECUTOR in self.eval(node.func.value)
        ):
            for arg, taint in arg_pairs:
                if RNG in taint:
                    self._hit(arg, RNG, "boundary", f"{dotted}()")
        callee = self.analysis.project.resolve(self.fn.module, dotted)
        if callee is not None and callee in self.analysis.project.functions:
            target = self.analysis.project.functions[callee]
            if target.has_decorator(*ENTRYPOINT_DECORATORS):
                for arg, taint in arg_pairs:
                    if RNG in taint:
                        self._hit(arg, RNG, "boundary", f"worker entrypoint {target.name}()")

        # -- hash / output sinks --------------------------------------------
        self._check_stream_sinks(node, arg_pairs, dotted)

        # -- receiver mutation ----------------------------------------------
        if tail in _MUTATORS and isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value)
            if receiver is not None and args_taint:
                self.env.setdefault(receiver, set()).update(args_taint - {_EXECUTOR})

        # -- interprocedural propagation ------------------------------------
        if callee is not None:
            resolved = callee
            if resolved in self.analysis.project.classes:
                init = self.analysis.project.classes[resolved].methods.get("__init__")
                resolved = init.qualname if init is not None else None  # type: ignore[assignment]
            if resolved is not None and resolved in self.analysis.summaries:
                self._propagate_into(resolved, node, arg_pairs)
                return set(self.analysis.summaries[resolved].returns)
        # method call on self: resolve through the class
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) == 2 and self.fn.class_qualname:
            target_name = self.analysis.graph._resolve_method(
                self.fn.class_qualname, parts[1]
            )
            if target_name is not None:
                self._propagate_into(target_name, node, arg_pairs)
                return set(self.analysis.summaries[target_name].returns)
        # container accessor on an unknown receiver: the result carries the
        # container's taint, not the lookup key's
        if tail in _ACCESSORS and isinstance(node.func, ast.Attribute):
            return self.eval(node.func.value) - {_EXECUTOR}
        # unknown callee: conservative pass-through of argument taint
        return args_taint - {_EXECUTOR}

    def _check_stream_sinks(
        self, node: ast.Call, arg_pairs: List[Tuple[ast.expr, Set[str]]], dotted: str
    ) -> None:
        tail = dotted.split(".")[-1]
        if tail in _HASH_SINKS:
            for arg, taint in arg_pairs:
                for kind in (WALLCLOCK, FSORDER, OBJID):
                    if kind in taint:
                        self._hit(arg, kind, "hash", f"{tail}()")
        if tail in _OUTPUT_SINKS and self._in_repro():
            for arg, taint in arg_pairs:
                for kind in (WALLCLOCK, FSORDER, OBJID):
                    if kind in taint:
                        self._hit(arg, kind, "output", f"{tail}()")

    def _propagate_into(
        self, callee: str, node: ast.Call, arg_pairs: List[Tuple[ast.expr, Set[str]]]
    ) -> None:
        target = self.analysis.project.functions.get(callee)
        if target is None:
            return
        summary = self.analysis.summaries[callee]
        params = _param_names(target.node)
        if target.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        positional = [pair for pair, arg in zip(arg_pairs, node.args)]
        for index, (arg, taint) in enumerate(positional):
            taint = taint - {_EXECUTOR}
            if not taint or index >= len(params):
                continue
            summary.param_in.setdefault(params[index], set()).update(taint)
        for keyword, (arg, taint) in zip(node.keywords, arg_pairs[len(node.args):]):
            taint = taint - {_EXECUTOR}
            if keyword.arg is not None and taint and keyword.arg in params:
                summary.param_in.setdefault(keyword.arg, set()).update(taint)

    # -- statements ----------------------------------------------------------

    def _bind_target(self, target: ast.expr, taint: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                self.env.setdefault(dotted, set()).update(taint)

    def _assign_sinks(self, target: ast.expr, taint: Set[str], node: ast.AST) -> None:
        reportable = taint & {WALLCLOCK, FSORDER, OBJID}
        if not reportable or not self._in_repro():
            return
        is_state = False
        detail = ""
        if isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None and dotted.startswith("self."):
                is_state, detail = True, dotted
        elif isinstance(target, ast.Subscript):
            dotted = dotted_name(target.value)
            if dotted is not None and dotted.startswith("self."):
                is_state, detail = True, dotted
        elif isinstance(target, ast.Name) and target.id in self.globals_declared:
            is_state, detail = True, f"global {target.id}"
        if is_state:
            for kind in sorted(reportable):
                self._hit(node, kind, "state", detail)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Global):
            self.globals_declared.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, taint)
                self._assign_sinks(target, taint, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self.eval(stmt.value)
                self._bind_target(stmt.target, taint)
                self._assign_sinks(stmt.target, taint, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value) | self.eval(stmt.target)
            self._bind_target(stmt.target, taint)
            self._assign_sinks(stmt.target, taint, stmt)
            return
        if isinstance(stmt, ast.Return):
            taint = self.eval(stmt.value)
            if _perf_sanctioned(self.fn.module):
                taint = taint - {WALLCLOCK}
            summary = self.analysis.summaries[self.fn.qualname]
            summary.returns.update(taint - {_EXECUTOR})
            if FSORDER in taint:
                self._hit(stmt, FSORDER, "return", "unsorted listing escapes")
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self.eval(stmt.iter)
            if FSORDER in iter_taint:
                self._hit(stmt.iter, FSORDER, "iteration", "for loop")
            self._bind_target(stmt.target, iter_taint)
            for child in stmt.body + stmt.orelse:
                self.exec_stmt(child)
            return
        if isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self.exec_stmt(child)
            return
        if isinstance(stmt, ast.If):
            self.eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self.exec_stmt(child)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taint)
            for child in stmt.body:
                self.exec_stmt(child)
            return
        if isinstance(stmt, ast.Try):
            for child in (
                stmt.body
                + [s for handler in stmt.handlers for s in handler.body]
                + stmt.orelse
                + stmt.finalbody
            ):
                self.exec_stmt(child)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self.eval(value)
            return
        # Delete / Pass / Import / Break / Continue / Nonlocal: no dataflow.
