"""Per-function summaries: the unit of whole-program analysis.

One :class:`ModuleSummary` per source module captures everything the
interprocedural rules need — so the call graph, the async-blocking
closure, the lock-order graph, and the telemetry diff can all be built
from summaries alone, without re-touching the ASTs.  A summary is a
pure function of one file's text; the engine computes every module's
summary afresh in each run and keeps none between runs.

Each :class:`FunctionSummary` records, per function or method:

- **calls** — canonicalized call sites (``repro.quality.assess_recording``,
  or method calls with a statically known receiver class), including
  ``functools.partial`` unwrapping and the lock set held at the site;
- **blocking uses** — direct blocking primitives (``time.sleep``,
  builtin ``open`` / pathlib file I/O, ``subprocess``, lock
  acquisitions) for the QA008 reachability rule;
- **lock acquisitions** — with a stable cross-process lock identity
  (``repro.runtime.metrics.Histogram._lock``) and the locks already
  held, for the QA009 ordering rule;
- **telemetry uses** — span/counter/histogram names referenced
  by registered constant or literal, for the QA010 registry diff;
- **global rebinds** and **pool-dispatch targets** — for the QA009
  worker-state check.

Resolution is deliberately conservative: only receivers whose class is
statically provable (``self``, annotated parameters, ``self.attr``
assigned or annotated in the class body, locals assigned from a known
constructor) produce method call sites.  A dynamic callable —
``self._runner(...)`` — produces no edge; the DESIGN chapter documents
this as the analysis boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..project import ModuleInfo, attribute_chain
from .imports import ModuleBindings

__all__ = [
    "CallSite",
    "BlockingUse",
    "LockAcquisition",
    "TelemetryUse",
    "GlobalRebind",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "summarize_module",
]

#: Canonical dotted calls that block the calling thread.
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "sleep",
    "subprocess.run": "subprocess",
    "subprocess.Popen": "subprocess",
    "subprocess.call": "subprocess",
    "subprocess.check_call": "subprocess",
    "subprocess.check_output": "subprocess",
    "os.system": "subprocess",
    "os.popen": "subprocess",
}

#: Attribute method names that are file I/O on any plausible receiver.
_FILE_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})

#: Dotted constructors that build a lock object.
_LOCK_CONSTRUCTORS = ("threading.Lock", "threading.RLock", "multiprocessing.Lock")

#: Telemetry-emitting method name → name kind.
_TELEMETRY_METHODS = {
    "span": "span",
    "increment": "counter",
    "observe": "histogram",
    "histogram": "histogram",
}

#: Pool map-family methods (same set the QA003 rule polices).
_MAP_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap", "apply_async"})
_POOLISH = ("pool", "executor")


@dataclass(frozen=True)
class CallSite:
    """One statically resolvable call expression.

    ``receiver_class`` is empty for plain dotted calls (the ``name`` is
    then a canonical dotted path); for method calls it is the canonical
    dotted name of the receiver's class and ``name`` is the bare method.
    """

    name: str
    receiver_class: str
    lineno: int
    via_partial: bool = False
    held_locks: tuple[str, ...] = ()


@dataclass(frozen=True)
class BlockingUse:
    """A direct use of a blocking primitive inside a function body."""

    category: str  # "sleep" | "file-io" | "subprocess" | "lock"
    symbol: str
    lineno: int


@dataclass(frozen=True)
class LockAcquisition:
    """One lock acquisition site with the locks already held there."""

    lock_id: str
    lineno: int
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class TelemetryUse:
    """One telemetry-name reference at an emission call site.

    ``form`` is ``"constant"`` (``ref`` is a canonical dotted constant,
    e.g. ``repro.obs.names.METRIC_SERVE_ADMITTED``) or ``"literal"``
    (``ref`` is the raw string).
    """

    kind: str  # "span" | "counter" | "histogram"
    ref: str
    form: str
    lineno: int


@dataclass(frozen=True)
class GlobalRebind:
    """A module-global name rebound (``global x; x = ...``) in a function."""

    name: str
    lineno: int


@dataclass(frozen=True)
class FunctionSummary:
    """Everything whole-program rules need to know about one function."""

    qualname: str
    module: str
    name: str
    lineno: int
    is_async: bool
    owner_class: str = ""
    calls: tuple[CallSite, ...] = ()
    blocking: tuple[BlockingUse, ...] = ()
    locks: tuple[LockAcquisition, ...] = ()
    telemetry: tuple[TelemetryUse, ...] = ()
    global_rebinds: tuple[GlobalRebind, ...] = ()
    pool_targets: tuple[CallSite, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """A class definition: bases, methods, and provable attribute types."""

    qualname: str
    name: str
    module: str
    lineno: int
    bases: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleSummary:
    """The per-module analysis artifact the whole-program rules read."""

    module: str
    relpath: str
    is_package: bool
    bindings: dict[str, str] = field(default_factory=dict)
    functions: tuple[FunctionSummary, ...] = ()
    classes: tuple[ClassSummary, ...] = ()
    string_constants: dict[str, tuple[str, int]] = field(default_factory=dict)
    registry_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _annotation_dotted(node: ast.expr | None) -> str | None:
    """Best-effort dotted class name out of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Subscript):
        return _annotation_dotted(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` → X (either side may carry the class).
        left = _annotation_dotted(node.left)
        right = _annotation_dotted(node.right)
        return left or right
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str) and all(
            part.isidentifier() for part in node.value.split(".")
        ):
            return node.value
        return None
    return attribute_chain(node)


def _is_lockish_name(dotted: str) -> bool:
    return "lock" in dotted.split(".")[-1].lower()


def _is_lock_constructor(dotted: str) -> bool:
    if dotted in _LOCK_CONSTRUCTORS:
        return True
    return dotted.split(".")[-1] == "FileLock"


class _ModuleExtractor:
    """Single-pass extractor building a :class:`ModuleSummary`."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.bindings = ModuleBindings.collect(module)
        self.module_defs: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_defs.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_defs.add(node.target.id)

    # -- canonicalization ----------------------------------------------

    def canonical(self, dotted: str) -> str | None:
        """Canonical dotted path for a chain, or ``None`` if unrooted."""
        head = dotted.split(".")[0]
        if head in self.bindings:
            return self.bindings.canonicalize(dotted)
        if head in self.module_defs:
            return f"{self.module.name}.{dotted}"
        return None

    # -- class table ----------------------------------------------------

    def class_summary(self, node: ast.ClassDef) -> ClassSummary:
        qualname = f"{self.module.name}.{node.name}"
        bases = tuple(
            canonical
            for base in node.bases
            if (chain := attribute_chain(base)) is not None
            and (canonical := self.canonical(chain)) is not None
        )
        methods: list[str] = []
        attr_types: dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._collect_self_attr_types(stmt, attr_types)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                dotted = _annotation_dotted(stmt.annotation)
                canonical = self.canonical(dotted) if dotted else None
                if canonical is not None:
                    attr_types[stmt.target.id] = canonical
        return ClassSummary(
            qualname=qualname,
            name=node.name,
            module=self.module.name,
            lineno=node.lineno,
            bases=bases,
            methods=tuple(methods),
            attr_types=attr_types,
        )

    def _collect_self_attr_types(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef, out: dict[str, str]
    ) -> None:
        """``self.x = Cls(...)`` / ``self.x: Cls = ...`` → provable types."""
        for node in ast.walk(method):
            target: ast.expr | None = None
            annotation: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, annotation, value = node.target, node.annotation, node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            canonical = None
            if annotation is not None:
                dotted = _annotation_dotted(annotation)
                canonical = self.canonical(dotted) if dotted else None
            if canonical is None and isinstance(value, ast.Call):
                chain = attribute_chain(value.func)
                canonical = self.canonical(chain) if chain else None
            if canonical is not None and attr not in out:
                out[attr] = canonical

    # -- module-level constants and registry sets ------------------------

    def module_constants(
        self,
    ) -> tuple[dict[str, tuple[str, int]], dict[str, tuple[str, ...]]]:
        constants: dict[str, tuple[str, int]] = {}
        sets: dict[str, tuple[str, ...]] = {}
        for node in self.module.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                constants[target.id] = (value.value, node.lineno)
                continue
            resolved = self._resolve_name_collection(value, constants, sets)
            if resolved is not None:
                sets[target.id] = resolved
        return constants, sets

    def _resolve_name_collection(
        self,
        value: ast.expr,
        constants: dict[str, tuple[str, int]],
        sets: dict[str, tuple[str, ...]],
    ) -> tuple[str, ...] | None:
        """Evaluate a registry collection display to its string values.

        Handles ``frozenset({...})`` / ``set()`` / tuple / list / dict
        displays whose elements are string literals, references to
        earlier string constants, or ``*STARRED`` earlier collections.
        Unresolvable elements are skipped (the registry parity test
        guards against the static view drifting from the runtime one).
        """
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set", "tuple")
            and len(value.args) == 1
        ):
            return self._resolve_name_collection(value.args[0], constants, sets)
        elements: list[ast.expr]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = list(value.elts)
        elif isinstance(value, ast.Dict):
            elements = [v for v in value.values if v is not None]
        else:
            return None
        out: list[str] = []
        for element in elements:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            elif isinstance(element, ast.Name):
                if element.id in constants:
                    out.append(constants[element.id][0])
                elif element.id in sets:
                    out.extend(sets[element.id])
            elif isinstance(element, ast.Starred) and isinstance(
                element.value, ast.Name
            ):
                out.extend(sets.get(element.value.id, ()))
        return tuple(out)

    # -- function bodies -------------------------------------------------

    def function_summary(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ClassSummary | None,
    ) -> FunctionSummary:
        walker = _BodyWalker(self, node, owner)
        walker.run()
        qualname = (
            f"{owner.qualname}.{node.name}"
            if owner is not None
            else f"{self.module.name}.{node.name}"
        )
        return FunctionSummary(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            owner_class=owner.qualname if owner is not None else "",
            calls=tuple(walker.calls),
            blocking=tuple(walker.blocking),
            locks=tuple(walker.locks),
            telemetry=tuple(walker.telemetry),
            global_rebinds=tuple(walker.global_rebinds),
            pool_targets=tuple(walker.pool_targets),
        )


class _BodyWalker:
    """Lexical walk of one function body, threading the held-lock stack.

    Nested function and lambda bodies are folded into the enclosing
    function's summary — a conservative over-approximation (defining a
    closure is treated like running it) that keeps the call graph free
    of unresolvable closure nodes.
    """

    def __init__(
        self,
        extractor: _ModuleExtractor,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ClassSummary | None,
    ) -> None:
        self.x = extractor
        self.node = node
        self.owner = owner
        self.calls: list[CallSite] = []
        self.blocking: list[BlockingUse] = []
        self.locks: list[LockAcquisition] = []
        self.telemetry: list[TelemetryUse] = []
        self.global_rebinds: list[GlobalRebind] = []
        self.pool_targets: list[CallSite] = []
        self._global_names: set[str] = set()
        #: local name → canonical dotted class (provable instances only)
        self._env: dict[str, str] = {}
        self._locals: set[str] = set()
        for arg in self._all_args(node):
            self._locals.add(arg.arg)
            dotted = _annotation_dotted(arg.annotation)
            canonical = self.x.canonical(dotted) if dotted else None
            if canonical is not None:
                self._env[arg.arg] = canonical

    @staticmethod
    def _all_args(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
        args = node.args
        out = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg:
            out.append(args.vararg)
        if args.kwarg:
            out.append(args.kwarg)
        return out

    def run(self) -> None:
        for stmt in self.node.body:
            self._walk(stmt, ())

    # -- receiver typing -------------------------------------------------

    def _receiver_class(self, node: ast.expr) -> str | None:
        """Canonical class of an expression, when statically provable."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self.owner is not None:
                return self.owner.qualname
            return self._env.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.owner is not None
        ):
            return self.owner.attr_types.get(node.attr)
        return None

    def _lock_identity(self, node: ast.expr) -> str | None:
        """Stable identity for a lock-shaped context expression."""
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            canonical = self.x.canonical(chain) if chain else None
            if canonical is not None and _is_lock_constructor(canonical):
                return canonical
            return None
        chain = attribute_chain(node)
        if chain is None:
            return None
        parts = chain.split(".")
        if not _is_lockish_name(chain):
            # Not named like a lock: accept only if its provable type is
            # a lock class (e.g. ``with self.guard`` annotated FileLock).
            receiver = (
                self._receiver_class(node)
                if isinstance(node, (ast.Name, ast.Attribute))
                else None
            )
            if receiver is None or not _is_lock_constructor(receiver):
                return None
        if parts[0] in ("self", "cls") and self.owner is not None:
            return f"{self.owner.qualname}.{'.'.join(parts[1:])}"
        canonical = self.x.canonical(chain)
        if canonical is not None:
            return canonical
        if parts[0] in self._locals or parts[0] in self._env:
            return f"{self.node.name}:{chain}"
        return chain

    # -- the walk ---------------------------------------------------------

    def _walk(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                self._walk(item.context_expr, held)
                lock_id = self._lock_identity(item.context_expr)
                if lock_id is not None:
                    self.locks.append(
                        LockAcquisition(
                            lock_id=lock_id,
                            lineno=item.context_expr.lineno,
                            held=new_held,
                        )
                    )
                    self.blocking.append(
                        BlockingUse(
                            category="lock",
                            symbol=f"with {lock_id}",
                            lineno=item.context_expr.lineno,
                        )
                    )
                    new_held = (*new_held, lock_id)
                if item.optional_vars is not None:
                    self._walk(item.optional_vars, held)
            for stmt in node.body:
                self._walk(stmt, new_held)
            return
        if isinstance(node, ast.Global):
            self._global_names.update(node.names)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._handle_assign(node, held)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
            for child in ast.iter_child_nodes(node):
                self._walk(child, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: fold its body into this summary.
            for stmt in node.body:
                self._walk(stmt, held)
            return
        if isinstance(node, ast.Lambda):
            self._walk(node.body, held)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)

    def _handle_assign(
        self, node: ast.Assign | ast.AugAssign | ast.AnnAssign, held: tuple[str, ...]
    ) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        value = node.value
        if value is not None:
            self._walk(value, held)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self._global_names:
                    self.global_rebinds.append(
                        GlobalRebind(name=target.id, lineno=node.lineno)
                    )
                else:
                    self._locals.add(target.id)
                    if (
                        isinstance(node, ast.Assign)
                        and len(targets) == 1
                        and isinstance(value, ast.Call)
                    ):
                        chain = attribute_chain(value.func)
                        canonical = self.x.canonical(chain) if chain else None
                        if canonical is not None:
                            self._env[target.id] = canonical
            else:
                self._walk(target, held)

    # -- call handling ----------------------------------------------------

    def _handle_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        func = node.func
        # Builtin open(): file I/O unless the name is rebound.
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and "open" not in self._locals
            and "open" not in self.x.bindings
            and "open" not in self.x.module_defs
        ):
            self.blocking.append(
                BlockingUse(category="file-io", symbol="open", lineno=node.lineno)
            )
            return

        chain = attribute_chain(func)
        canonical = self.x.canonical(chain) if chain else None

        if canonical is not None:
            category = _BLOCKING_CALLS.get(canonical)
            if category is None and canonical.split(".")[0] == "subprocess":
                category = "subprocess"
            if category is not None:
                self.blocking.append(
                    BlockingUse(
                        category=category, symbol=canonical, lineno=node.lineno
                    )
                )
            if canonical.split(".")[-1] == "partial" and node.args:
                self._record_partial(node, held)
                return
            self.calls.append(
                CallSite(
                    name=canonical,
                    receiver_class="",
                    lineno=node.lineno,
                    held_locks=held,
                )
            )

        if isinstance(func, ast.Attribute):
            self._handle_method_call(node, func, held, chain)

    def _record_partial(self, node: ast.Call, held: tuple[str, ...]) -> None:
        """``functools.partial(f, ...)`` — edge to ``f`` (later called)."""
        target = node.args[0]
        chain = attribute_chain(target)
        canonical = self.x.canonical(chain) if chain else None
        if canonical is not None:
            self.calls.append(
                CallSite(
                    name=canonical,
                    receiver_class="",
                    lineno=node.lineno,
                    via_partial=True,
                    held_locks=held,
                )
            )

    def _handle_method_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        held: tuple[str, ...],
        chain: str | None,
    ) -> None:
        method = func.attr
        # Method call on a provably typed receiver → method call site.
        receiver = self._receiver_class(func.value)
        if receiver is not None:
            self.calls.append(
                CallSite(
                    name=method,
                    receiver_class=receiver,
                    lineno=node.lineno,
                    held_locks=held,
                )
            )
        # Blocking heuristics that do not need receiver types.
        if method in _FILE_IO_METHODS:
            self.blocking.append(
                BlockingUse(
                    category="file-io",
                    symbol=f".{method}",
                    lineno=node.lineno,
                )
            )
        if method == "acquire":
            lockish = chain is not None and _is_lockish_name(
                chain.rsplit(".", 1)[0] if "." in (chain or "") else (chain or "")
            )
            typed_lock = receiver is not None and _is_lock_constructor(receiver)
            if lockish or typed_lock:
                lock_id = self._lock_identity(func.value) or (chain or "?")
                self.blocking.append(
                    BlockingUse(
                        category="lock",
                        symbol=f"{lock_id}.acquire",
                        lineno=node.lineno,
                    )
                )
                self.locks.append(
                    LockAcquisition(lock_id=lock_id, lineno=node.lineno, held=held)
                )
        # Telemetry emission.
        kind = _TELEMETRY_METHODS.get(method)
        if kind is not None and node.args:
            self._record_telemetry(kind, node.args[0], node.lineno)
        # Pool dispatch (QA003-style sites feeding the QA009 check).
        if method == "submit" or (
            method in _MAP_METHODS
            and any(
                p in (attribute_chain(func.value) or "").lower() for p in _POOLISH
            )
        ):
            if node.args:
                self._record_pool_target(node.args[0], node.lineno, held)

    def _record_telemetry(self, kind: str, arg: ast.expr, lineno: int) -> None:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self.telemetry.append(
                TelemetryUse(kind=kind, ref=arg.value, form="literal", lineno=lineno)
            )
            return
        if isinstance(arg, ast.IfExp):
            self._record_telemetry(kind, arg.body, lineno)
            self._record_telemetry(kind, arg.orelse, lineno)
            return
        chain = attribute_chain(arg)
        canonical = self.x.canonical(chain) if chain else None
        if canonical is not None:
            self.telemetry.append(
                TelemetryUse(kind=kind, ref=canonical, form="constant", lineno=lineno)
            )

    def _record_pool_target(
        self, arg: ast.expr, lineno: int, held: tuple[str, ...]
    ) -> None:
        if isinstance(arg, ast.Call):
            chain = attribute_chain(arg.func)
            canonical = self.x.canonical(chain) if chain else None
            if canonical is not None and canonical.split(".")[-1] == "partial":
                if arg.args:
                    self._record_pool_target(arg.args[0], lineno, held)
            return
        chain = attribute_chain(arg)
        canonical = self.x.canonical(chain) if chain else None
        if canonical is not None:
            self.pool_targets.append(
                CallSite(
                    name=canonical,
                    receiver_class="",
                    lineno=lineno,
                    held_locks=held,
                )
            )


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` for one parsed module."""
    extractor = _ModuleExtractor(module)
    classes: list[ClassSummary] = []
    functions: list[FunctionSummary] = []
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            summary = extractor.class_summary(node)
            classes.append(summary)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(extractor.function_summary(stmt, summary))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(extractor.function_summary(node, None))
    constants, registry_sets = extractor.module_constants()
    return ModuleSummary(
        module=module.name,
        relpath=module.relpath,
        is_package=module.is_package,
        bindings=dict(extractor.bindings.bindings),
        functions=tuple(functions),
        classes=tuple(classes),
        string_constants=constants,
        registry_sets=registry_sets,
    )
