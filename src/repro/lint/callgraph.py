"""Call graph over the project index, with conservative method
resolution.

Nodes are function ids of the form ``"<rel_path>::<qualname>"`` (one
per function summary, including each module's ``<module>``
pseudo-function).  Edges come from the recorded dotted callee keys,
resolved name-wise:

* ``foo(...)`` — the same-module function ``foo``, or the function an
  ``import``/``from``-import binds that name to;
* ``self.foo(...)`` / ``cls.foo(...)`` — ``foo`` up the enclosing
  class's known base-class chain; if the hierarchy doesn't declare it
  (an unindexed base), *every* indexed method named ``foo``;
* ``obj.foo(...)`` — every indexed method named ``foo`` (plus the
  module function when ``obj`` is a module alias) — classic
  class-hierarchy-analysis conservatism;
* ``ClassName(...)`` — the class's ``__init__``.

Worker-process entry references (``pool.submit(f, ...)``,
``initializer=f``, ``Process(target=f)``) are deliberately **not**
call edges — the parent never runs ``f`` — they seed
:meth:`CallGraph.worker_reachable` instead, which is the
read/write-side split the REPRO-R0xx race rules key on.

Resolution is name-based, so the graph *over*-approximates edges
(extra callers can only make the wheel-discipline discharge check more
demanding, never less) while reachability from worker entries
*over*-approximates the worker side (extra worker functions can only
shrink the parent-only read set).  Both directions err toward
reporting less, never toward vouching for code falsely — except the
wheel family, where extra callers err toward reporting *more*, which
is the direction a leap-hazard guard should fail in.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.project import ProjectIndex


def fid(rel_path: str, qualname: str) -> str:
    return f"{rel_path}::{qualname}"


class CallGraph:
    """Phase-one-and-a-half: edges + reachability over the index."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        #: fid -> (rel_path, module summary, function summary)
        self.functions: Dict[str, Tuple[str, dict, dict]] = {}
        #: method name -> fids of every method with that name
        self._methods_by_name: Dict[str, List[str]] = {}
        #: (rel_path, class name) -> class summary
        self._classes: Dict[Tuple[str, str], dict] = {}
        #: module-level function name -> fid, per rel_path
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        self.edges: Dict[str, List[str]] = {}
        self.callers: Dict[str, List[str]] = {}
        self._worker_entries: Optional[List[str]] = None
        self._worker_reachable: Optional[Set[str]] = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for rel, msum, fsum in self.index.functions():
            f = fid(rel, fsum["qualname"])
            self.functions[f] = (rel, msum, fsum)
            cls = fsum["cls"]
            if cls:
                self._methods_by_name.setdefault(
                    fsum["name"], []).append(f)
            else:
                self._module_funcs.setdefault(rel, {})[fsum["name"]] = f
        for rel, msum in self.index.summaries.items():
            for cname, csum in msum["classes"].items():
                self._classes[(rel, cname)] = csum
        for f, (rel, msum, fsum) in self.functions.items():
            out: List[str] = []
            for key, _lineno in fsum["calls"]:
                out.extend(self._resolve_call(rel, msum, fsum, key))
            # de-dup, stable order
            seen: Dict[str, bool] = {}
            uniq: List[str] = []
            for t in out:
                if t not in seen:
                    seen[t] = True
                    uniq.append(t)
            self.edges[f] = uniq
            for t in uniq:
                self.callers.setdefault(t, []).append(f)

    # -- resolution -----------------------------------------------------
    def _class_chain(self, rel: str, msum: dict,
                     cname: str) -> List[Tuple[str, str, dict]]:
        """The class plus every resolvable base, MRO-ish order."""
        out: List[Tuple[str, str, dict]] = []
        pending: List[Tuple[str, dict, str]] = [(rel, msum, cname)]
        seen: Dict[Tuple[str, str], bool] = {}
        while pending:
            crel, cmsum, name = pending.pop(0)
            csum = self._classes.get((crel, name))
            if csum is None or (crel, name) in seen:
                continue
            seen[(crel, name)] = True
            out.append((crel, name, csum))
            for base in csum["bases"]:
                target = self._resolve_class_ref(crel, cmsum, base)
                if target is not None:
                    pending.append(target)
        return out

    def _resolve_class_ref(self, rel: str, msum: dict, key: str
                           ) -> Optional[Tuple[str, dict, str]]:
        """``key`` names a class: same module, or via imports."""
        parts = key.split(".")
        if len(parts) == 1:
            if (rel, key) in self._classes:
                return rel, msum, key
            target = msum["imports"].get(key)
            if target and "." in target:
                mod, _, cname = target.rpartition(".")
                osum = self.index.module(mod)
                if osum is not None and cname in osum["classes"]:
                    return osum["rel_path"], osum, cname
            return None
        # module_alias.ClassName
        target = msum["imports"].get(parts[0])
        if target is None or len(parts) != 2:
            return None
        osum = self.index.module(target)
        if osum is not None and parts[1] in osum["classes"]:
            return osum["rel_path"], osum, parts[1]
        return None

    def _method_in_chain(self, rel: str, msum: dict, cname: str,
                         method: str) -> List[str]:
        for crel, cls_name, csum in self._class_chain(rel, msum, cname):
            if method in csum["methods"]:
                return [fid(crel, f"{cls_name}.{method}")]
        return []

    def resolve_name(self, rel: str, msum: dict, name: str
                     ) -> List[str]:
        """Function fids a bare name refers to in ``msum``'s namespace
        (same-module function, imported function, or a class's
        ``__init__``)."""
        local = self._module_funcs.get(rel, {})
        if name in local:
            return [local[name]]
        if (rel, name) in self._classes:
            return self._method_in_chain(rel, msum, name, "__init__")
        target = msum["imports"].get(name)
        if target and "." in target:
            mod, _, sym = target.rpartition(".")
            osum = self.index.module(mod)
            if osum is not None:
                return self.resolve_name(osum["rel_path"], osum, sym)
        return []

    def _resolve_call(self, rel: str, msum: dict, fsum: dict,
                      key: str) -> List[str]:
        parts = key.split(".")
        if len(parts) == 1:
            return self.resolve_name(rel, msum, key)
        root, method = parts[0], parts[-1]
        if root in ("self", "cls") and fsum["cls"] and len(parts) == 2:
            hit = self._method_in_chain(rel, msum, fsum["cls"], method)
            if hit:
                return hit
            # unindexed base: fall through to any-method resolution
        if len(parts) == 2:
            # module_alias.func / module_alias.ClassName
            target = msum["imports"].get(root)
            if target is not None:
                osum = self.index.module(target)
                if osum is not None:
                    hit = self.resolve_name(osum["rel_path"], osum, method)
                    if hit:
                        return hit
        # obj.method: every indexed method with that name
        return list(self._methods_by_name.get(method, []))

    # -- reachability ---------------------------------------------------
    def worker_entries(self) -> List[str]:
        """Functions that run in worker processes (pool submit/map first
        args, pool ``initializer=`` kwargs, ``Process(target=)``
        kwargs), resolved to fids."""
        if self._worker_entries is None:
            out: List[str] = []
            for f, (rel, msum, fsum) in sorted(self.functions.items()):
                for ref in fsum["entry_refs"]:
                    for target in self._resolve_call(rel, msum, fsum, ref) \
                            if "." in ref \
                            else self.resolve_name(rel, msum, ref):
                        if target not in out:
                            out.append(target)
            self._worker_entries = out
        return self._worker_entries

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [r for r in roots]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            stack.extend(self.edges.get(f, ()))
        return seen

    def worker_reachable(self) -> Set[str]:
        """Every function the pool's worker processes may execute."""
        if self._worker_reachable is None:
            self._worker_reachable = self.reachable_from(
                self.worker_entries())
        return self._worker_reachable
