"""Spans around named spectop functions, recorded from outside the package.

The tracer replaces each named function by a wrapper at every binding
site: the defining module, every ``spectop.*`` module that imported the
name directly (``from .primes import is_prime``), the package namespace
and module-level dicts of functions.  Wrapping only the defining module
would miss the calls made through those other names.  A named function
that no longer exists is reported as missing, never as zero calls.

Spans are kept in memory as parallel arrays (name, parent span, start,
end) and written out when the traced run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "primes", "gfpoly", "covers", "rings", "spectrum", "topology",
    "products", "maps", "construction", "jsonio", "suites", "cli",
)

# The layer functions whose calls and self time are reported.  Only these
# are wrapped: small helpers such as rings.mono_divides run millions of
# times per workload, and wrapping them would swamp the timings.
TRACED = (
    "primes.is_prime", "primes.factorint",
    "gfpoly.is_irreducible", "gfpoly.factor",
    "covers.minimal_covers",
    "rings.ideal_intersect", "rings.monomial_ideal", "rings.ideal_contains",
    "spectrum.validate_point", "spectrum.leq_specialization", "spectrum.point_contains",
    "spectrum.sample_points", "spectrum.v_locus", "spectrum.subset_le",
    "topology.zariski_closure", "topology.flat_closure", "topology.patch_closure",
    "topology.is_stable", "topology.is_dense", "topology.density_criterion",
    "products.quotient_product_image", "products.local_product_image",
    "products.brute_force_image", "products.nilradical_product_law_check",
    "maps.laying_over", "maps.contract", "maps.is_injective",
    "construction.absorbance_holds", "construction.avoidance_holds",
    "construction.supplement_report", "construction.minimal_primes_monomial",
    "jsonio.ring_from_json", "jsonio.subset_from_json", "jsonio.point_from_json",
    "jsonio.map_from_json", "jsonio.dumps_canonical",
    "suites.run_suite",
    "cli.run_command",
)

# Functions whose result length is also summed (points returned).
ITEM_COUNTED = ("spectrum.sample_points",)


class Tracer:
    def __init__(self, targets=TRACED, package: str = "spectop"):
        self.targets = tuple(targets)
        self.package = package
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = [0] * len(self.targets)
        self.missing: list[str] = []
        self._stack = [-1]
        self._sites: list[tuple[dict, object, object]] = []

    def install(self) -> None:
        pkg = self.package
        mods = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        by_name = {m.__name__: m for m in mods}
        wrappers: dict[int, tuple[object, object]] = {}
        for idx, qual in enumerate(self.targets):
            mod_name, fn_name = qual.rsplit(".", 1)
            fn = getattr(by_name.get(f"{pkg}.{mod_name}"), fn_name, None)
            if not callable(fn):
                self.missing.append(qual)
                continue
            wrappers[id(fn)] = (fn, self._wrap(fn, idx, qual in ITEM_COUNTED))
        for mod in mods:
            ns = vars(mod)
            for key, val in list(ns.items()):
                self._swap(ns, key, val, wrappers)
                if isinstance(val, dict):
                    for k, v in list(val.items()):
                        self._swap(val, k, v, wrappers)

    def _swap(self, container: dict, key, val, wrappers) -> None:
        hit = wrappers.get(id(val))
        if hit is not None and hit[0] is val:
            container[key] = hit[1]
            self._sites.append((container, key, val))

    def uninstall(self) -> None:
        for container, key, val in reversed(self._sites):
            container[key] = val
        self._sites.clear()

    def _wrap(self, fn, idx: int, count_items: bool):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, items, clock = self._stack, self.items, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count_items:
                items[idx] += len(result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self time and counted items per traced function."""
        selfs = self_times(self.parent, self.start, self.end)
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        for idx, s in zip(self.name, selfs):
            calls[idx] += 1
            self_s[idx] += s
        return {
            qual: {"calls": calls[i], "self_s": self_s[i], "items": self.items[i]}
            for i, qual in enumerate(self.targets)
            if qual not in self.missing
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": list(self.targets),
                    "missing": self.missing,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i in range(len(parent)):
        lo, hi = start[i], end[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(kids.get(i, ()), key=start.__getitem__):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out
