"""QA009 — lock discipline: consistent acquisition order, no pool-global writes.

Two whole-program lock/state hazards the per-file rules cannot see:

1. **Order inversion.**  The rule tracks ``threading.Lock`` (the
   metrics registry's) and ``flock``-based ``FileLock`` instances.  Deadlock
   needs two sites acquiring two locks in opposite nesting orders —
   almost always in *different* functions, often different modules.
   This rule builds a global lock-order graph: a directed edge A→B for
   every site that acquires B while (lexically or transitively, through
   resolvable calls made under A) holding A.  If both A→B and B→A are
   observed, the minority direction's sites are flagged; ties break to
   the lexicographically smaller pair so findings are deterministic.

2. **Pool-global writes.**  QA003 guarantees pool-dispatched callables
   are module-level and picklable; it cannot see what they *do*.  A
   function in a pool target's transitive call tree that rebinds a
   module global (``global x; x = ...``) mutates per-process state the
   parent never observes — counters silently undercount, caches
   diverge.  Deliberate per-process state (the kernel plan cache's hit
   counters) is sanctioned with ``# qa: ignore[QA009]`` at the rebind
   line, which doubles as documentation.

Container mutation (``_CACHE[key] = plan``) is *not* flagged: the
per-process plan cache is the sanctioned idiom, and distinguishing it
from a rebind is exactly what ``global`` statements are for.
"""

from __future__ import annotations

from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..graph import FunctionSummary, ProgramModel

__all__ = ["LockDisciplineRule"]


@register
class LockDisciplineRule(Rule):
    """Global lock-order consistency + no module-global rebinds in pool code."""

    rule_id = "QA009"
    severity = Severity.ERROR
    description = (
        "lock acquisitions must nest in one globally consistent order "
        "(inversions deadlock under contention), and functions reachable "
        "from pool-dispatched callables must not rebind module globals "
        "(per-process writes diverge silently)"
    )

    def check_program(self, program: ProgramModel) -> Iterable[Finding]:
        yield from self._check_lock_order(program)
        yield from self._check_pool_globals(program)

    # -- lock ordering -----------------------------------------------------

    def _check_lock_order(self, program: ProgramModel) -> Iterable[Finding]:
        cg = program.callgraph
        # (held, acquired) → list of (relpath, lineno, qualname)
        edges: dict[tuple[str, str], list[tuple[str, int, str]]] = {}

        def record(held: str, acquired: str, fn: FunctionSummary, lineno: int) -> None:
            if held == acquired:
                return  # reentrancy is a different bug class
            relpath = program.summaries[fn.module].relpath
            edges.setdefault((held, acquired), []).append(
                (relpath, lineno, fn.qualname)
            )

        for module_name in sorted(program.summaries):
            for fn in program.summaries[module_name].functions:
                for acq in fn.locks:
                    for held in acq.held:
                        record(held, acq.lock_id, fn, acq.lineno)
                for site in fn.calls:
                    if not site.held_locks:
                        continue
                    target = cg.resolve_call(site)
                    if target is None:
                        continue
                    for inner in cg.transitive_locks(target):
                        for held in site.held_locks:
                            record(held, inner, fn, site.lineno)

        flagged: set[tuple[str, str]] = set()
        for (a, b), sites in sorted(edges.items()):
            reverse = edges.get((b, a))
            if reverse is None or (a, b) in flagged or (b, a) in flagged:
                continue
            # Minority direction loses; ties break lexicographically.
            if (len(sites), (b, a)) < (len(reverse), (a, b)):
                minority, majority_pair, majority = sites, (b, a), reverse
                pair = (a, b)
            else:
                minority, majority_pair, majority = reverse, (a, b), sites
                pair = (b, a)
            flagged.add(pair)
            flagged.add(majority_pair)
            for relpath, lineno, qualname in sorted(minority):
                yield self.finding(
                    relpath,
                    lineno,
                    f"`{pair[1]}` acquired while holding `{pair[0]}` in "
                    f"`{qualname}`, inverting the order observed at "
                    f"{len(majority)} other site(s) "
                    f"(`{majority_pair[0]}` before `{majority_pair[1]}`)",
                    "acquire locks in one global order everywhere, or "
                    "restructure so the inner lock is taken after the "
                    "outer one is released",
                )

    # -- pool-global rebinds ----------------------------------------------

    def _check_pool_globals(self, program: ProgramModel) -> Iterable[Finding]:
        cg = program.callgraph
        # pool-callable qualname → the dispatch origin, for the message.
        reachable: dict[str, tuple[str, str]] = {}
        for module_name in sorted(program.summaries):
            for fn in program.summaries[module_name].functions:
                for target_site in fn.pool_targets:
                    target = cg.resolve_call(target_site)
                    if target is None:
                        continue
                    for qual, chain in sorted(
                        cg.reachable_from(target).items()
                    ):
                        reachable.setdefault(qual, (fn.qualname, " -> ".join(chain)))
        for qual in sorted(reachable):
            fn = cg.functions.get(qual)
            if fn is None:
                continue
            origin, chain = reachable[qual]
            for rebind in fn.global_rebinds:
                relpath = program.summaries[fn.module].relpath
                yield self.finding(
                    relpath,
                    rebind.lineno,
                    f"module global `{rebind.name}` rebound in `{qual}`, "
                    f"which runs in pool workers (dispatched by "
                    f"`{origin}` via {chain}); per-process writes "
                    "diverge from the parent silently",
                    "return the value to the parent process, or mark "
                    "intentional per-process state with "
                    "`# qa: ignore[QA009]`",
                )
