"""REPRO-R0xx — cross-process shared-state races (whole-program).

``run_jobs`` executes campaign jobs in spawned worker processes.
Spawned workers re-import every module, so *module-level mutable
objects and class-level mutable attributes are per-process copies*: a
write made worker-side never reaches the parent.  Code that writes
such state from a worker-reachable function and reads it parent-side
is therefore silently wrong — serial runs (where parent and "worker"
are the same process) stay green while parallel campaigns read stale
or empty state.  This is the poor-man's race detector for that
pattern:

* **REPRO-R001** — a module-level mutable object written from code
  reachable from a worker entry point (a function handed to
  ``pool.submit``/``pool.map``, a pool ``initializer=`` or a
  ``Process(target=)``) and read
  from code that is *not* worker-reachable.
* **REPRO-R002** — the same split for class-level mutable attributes
  (shared through the class object, so equally per-process).

State that crosses the boundary deliberately goes through the
:data:`SHARED_STATE_ALLOWLIST` — the obs registry's snapshot-merge
protocol is the blessed pattern: each worker snapshots its own
registry into the picklable result, and the parent merges snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lint.rules import SRC_SCOPE, ProjectRule

#: (module, name) -> why cross-process use of this object is sound.
SHARED_STATE_ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("repro.obs.registry", "_PROCESS_REGISTRY"):
        "snapshot-merge protocol: workers snapshot their own registry "
        "into the picklable RunResult and the parent merges snapshots "
        "(CounterRegistry.merge_snapshot); the object itself never "
        "crosses the boundary",
    ("repro.workloads.trace", "_COUNTERS"):
        "alias of the process registry above (trace_cache.* counters "
        "ride the same snapshot-merge protocol)",
}

_GlobalKey = Tuple[str, str]  # (module-or-relpath, object name)


def _module_key(msum: dict) -> str:
    return msum["module"] or msum["rel_path"]


def _resolve_global(index, msum: dict,
                    key: str) -> Optional[Tuple[_GlobalKey, dict, str]]:
    """Resolve a dotted write/load key to a module-level mutable:
    returns ((module, name), defining module summary, name) or None.

    Handles the three spellings: a bare/attributed name in the writing
    module itself (``_TRACES[...]``, ``_HITS.value``), access through
    a module alias (``trace._TRACES``), and a ``from m import X``
    symbol."""
    parts = key.split(".")
    root = parts[0]
    if root in ("self", "cls"):
        return None
    if root in msum["module_mutables"]:
        return (_module_key(msum), root), msum, root
    target = msum["imports"].get(root)
    if target is None:
        return None
    # module alias: trace._TRACES / trace._TRACES.value
    osum = index.module(target)
    if osum is not None and len(parts) >= 2 \
            and parts[1] in osum["module_mutables"]:
        return (_module_key(osum), parts[1]), osum, parts[1]
    # imported symbol: from repro.workloads.trace import _TRACES
    if "." in target:
        mod, _, sym = target.rpartition(".")
        osum = index.module(mod)
        if osum is not None and sym == root \
                and sym in osum["module_mutables"]:
            return (_module_key(osum), sym), osum, sym
    return None


class _SharedStateBase(ProjectRule):
    scope = SRC_SCOPE

    @staticmethod
    def _is_worker(graph, f: str) -> bool:
        return f in graph.worker_reachable()


class ModuleStateRaceRule(_SharedStateBase):
    """REPRO-R001: worker-written, parent-read module globals."""

    id = "REPRO-R001"
    name = "worker-module-state"
    rationale = (
        "Spawned run_jobs workers re-import every module, so a "
        "module-level mutable written worker-side is a per-process "
        "copy: parent-side readers see import-time state.  Serial runs "
        "mask the bug (parent == worker); parallel campaigns read "
        "stale or empty data.")
    hint = ("return the data through the job's picklable result and "
            "merge parent-side (the registry snapshot-merge protocol), "
            "or keep the object strictly worker-local")
    bad = ("_RESULTS = []\n"
           "def _worker(job): _RESULTS.append(run(job))  # worker-side\n"
           "def collect(): return _RESULTS               # parent-side")
    good = ("def _worker(job): return run(job)  # data rides the result\n"
            "def collect(pool): return list(pool.map(_worker, jobs))")

    def check_project(self, project, reporter) -> None:
        graph = project.callgraph()
        index = project.index
        worker = graph.worker_reachable()
        if not worker:
            return  # no pool usage indexed: nothing can race

        # reads of each global from non-worker-reachable functions
        # (module-level statements are import-time, not parent "reads";
        # test/script reads inspect per-process state deliberately, so
        # only shipped src/ code counts as the parent side)
        parent_reads: Dict[_GlobalKey, Tuple[str, str, int]] = {}
        for f, (rel, msum, fsum) in sorted(graph.functions.items()):
            if f in worker or fsum["name"] == "<module>" \
                    or not rel.startswith("src/"):
                continue
            for key, lineno in fsum["loads"]:
                hit = _resolve_global(index, msum, key)
                if hit is not None and hit[0] not in parent_reads:
                    parent_reads[hit[0]] = (fsum["qualname"], rel, lineno)

        for f, (rel, msum, fsum) in sorted(graph.functions.items()):
            if f not in worker:
                continue
            for key, kind, lineno, col in fsum["writes"]:
                hit = _resolve_global(index, msum, key)
                if hit is None:
                    continue
                gkey, _osum, name = hit
                if gkey in SHARED_STATE_ALLOWLIST:
                    continue
                read = parent_reads.get(gkey)
                if read is None:
                    continue
                rq, rrel, rline = read
                reporter.report(
                    self, rel, lineno, col,
                    f"{fsum['qualname']} writes module-level mutable "
                    f"{name!r} (defined in {gkey[0]}) from "
                    f"worker-reachable code, but {rq} ({rrel}:{rline}) "
                    f"reads it parent-side — worker writes never reach "
                    f"the parent process")


class ClassStateRaceRule(_SharedStateBase):
    """REPRO-R002: worker-written, parent-read class attributes."""

    id = "REPRO-R002"
    name = "worker-class-state"
    rationale = (
        "A class-level mutable attribute is shared through the class "
        "object, which spawned workers re-create per process — "
        "mutating it worker-side (cls.X / ClassName.X / self.X on a "
        "class-level container) updates the worker's copy only, while "
        "parent-side readers see the import-time value.")
    hint = ("make it an instance attribute initialised in __init__, or "
            "move the data into the job's picklable result")
    bad = ("class Runner:\n"
           "    seen = []              # class-level container\n"
           "    def work(self): self.seen.append(1)  # worker-side")
    good = ("class Runner:\n"
            "    def __init__(self): self.seen = []  # per-instance")

    def check_project(self, project, reporter) -> None:
        graph = project.callgraph()
        index = project.index
        worker = graph.worker_reachable()
        if not worker:
            return

        # (module, class, attr) -> declaration site; only attrs never
        # shadowed by a self.X = ... assignment anywhere in the class.
        declared: Dict[Tuple[str, str, str], int] = {}
        for rel, msum in index.summaries.items():
            for cname, csum in msum["classes"].items():
                for attr, lineno in csum["mutable_attrs"].items():
                    if attr not in csum["self_assigned"]:
                        declared[(_module_key(msum), cname, attr)] = lineno

        def resolve(msum: dict, fsum: dict,
                    key: str) -> Optional[Tuple[str, str, str]]:
            parts = key.split(".")
            if len(parts) < 2:
                return None
            root, attr = parts[0], parts[1]
            if root in ("self", "cls") and fsum["cls"]:
                ckey = (_module_key(msum), fsum["cls"], attr)
                return ckey if ckey in declared else None
            if root in msum["classes"]:
                ckey = (_module_key(msum), root, attr)
                return ckey if ckey in declared else None
            target = msum["imports"].get(root)
            if target and "." in target:
                mod, _, cname = target.rpartition(".")
                osum = index.module(mod)
                if osum is not None and cname in osum["classes"]:
                    ckey = (_module_key(osum), cname, attr)
                    return ckey if ckey in declared else None
            return None

        parent_reads: Dict[Tuple[str, str, str],
                           Tuple[str, str, int]] = {}
        for f, (rel, msum, fsum) in sorted(graph.functions.items()):
            if f in worker or fsum["name"] == "<module>" \
                    or not rel.startswith("src/"):
                continue
            for key, lineno in fsum["loads"]:
                ckey = resolve(msum, fsum, key)
                if ckey is not None and ckey not in parent_reads:
                    parent_reads[ckey] = (fsum["qualname"], rel, lineno)

        for f, (rel, msum, fsum) in sorted(graph.functions.items()):
            if f not in worker:
                continue
            for key, kind, lineno, col in fsum["writes"]:
                # a plain `self.X = v` rebind is an instance write, not
                # a shared mutation (and such attrs are already opted
                # out via self_assigned)
                if key.split(".")[0] == "self" \
                        and kind in ("assign",):
                    continue
                ckey = resolve(msum, fsum, key)
                if ckey is None:
                    continue
                read = parent_reads.get(ckey)
                if read is None:
                    continue
                rq, rrel, rline = read
                reporter.report(
                    self, rel, lineno, col,
                    f"{fsum['qualname']} mutates class-level attribute "
                    f"{ckey[1]}.{ckey[2]} (defined in {ckey[0]}) from "
                    f"worker-reachable code, but {rq} ({rrel}:{rline}) "
                    f"reads it parent-side — worker writes never reach "
                    f"the parent process")


#: rules exported to the registry, catalog order.
SHARED_STATE_RULES: List[type] = [ModuleStateRaceRule, ClassStateRaceRule]
