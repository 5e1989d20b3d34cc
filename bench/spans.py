"""Spans around calls into credeq's layers, recorded from outside the package.

``Tracer.install`` replaces, in every credeq module namespace, each function
that another module imported from a credeq module (a call into that layer),
and each public function of a module in its own namespace (so calls between
a layer's public functions, such as ``vasicek_yield`` inside
``fit_vasicek``, are spans too). ``uninstall`` puts the originals back, so
untraced passes run the package untouched.

A span is (name, start, end, parent span, op id). Spans stay in memory in
flat arrays and are written out once, by ``save``. A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

from metrics import LAYERS

OP_SPAN = "bench.op"

# Not wrapped where their own module calls them: one-line helpers called so
# often inside their layer that a span each would dwarf their cost. Calls to
# them from another layer are still spans, except for the normal density and
# distribution, whose time counts to the caller everywhere.
LEAF_HELPERS = {
    "rates": {"factor_b", "int_b", "int_b_squared", "factor_a_deta", "factor_a_dalpha"},
    "pricing": {"norm_cdf", "norm_pdf"},
}
NEVER_WRAPPED = {"pricing.norm_cdf", "pricing.norm_pdf"}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.name = array("i")
        self.sid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self._next_sid = 0
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, nid, sid, parent, t0, t1, op):
        self.name.append(nid)
        self.sid.append(sid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        self.op.append(op)

    def new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def begin_op(self, op: int) -> int:
        """Open the root span of one unit of work; returns its span id."""
        self._op = op
        sid = self.new_sid()
        self._stack.append(sid)
        self._op_t0 = perf_counter()
        return sid

    def end_op(self, name: str = OP_SPAN) -> float:
        t1 = perf_counter()
        sid = self._stack.pop()
        self.record(self.name_id(name), sid, -1, self._op_t0, t1, self._op)
        self._op = -1
        return t1 - self._op_t0

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        stack = self._stack
        new_sid = self.new_sid
        record = self.record

        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            sid = new_sid()
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                record(nid, sid, parent, t0, t1, self._op)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"credeq.{layer}")
            public = set(getattr(mod, "__all__", ()))
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("credeq."):
                    continue
                owner = obj.__module__.split(".", 1)[1]
                name = f"{owner}.{obj.__name__}"
                crosses = owner != layer
                own_public = not crosses and obj.__name__ not in LEAF_HELPERS.get(layer, ()) and (
                    attr in public or (layer == "cli" and attr.startswith("cmd_"))
                )
                if name in NEVER_WRAPPED or not (crosses or own_public):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def merge(self, spans: dict, names: list[str], parent_sid: int, op: int) -> None:
        """Adopt spans recorded in another process under one of our spans."""
        remap = np.asarray([self.name_id(n) for n in names], dtype=np.int64)
        base = self._next_sid
        n_sid = int(spans["sid"].max()) + 1 if spans["sid"].size else 0
        self._next_sid += n_sid
        for nid, sid, par, t0, t1 in zip(remap[spans["name"]], spans["sid"], spans["parent"],
                                         spans["start"], spans["end"]):
            self.record(int(nid), int(sid) + base, parent_sid if par < 0 else int(par) + base,
                        float(t0), float(t1), op)

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def load(path) -> tuple[dict, list[str]]:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "sid", "parent", "start", "end", "op")}
        return spans, [str(n) for n in data["names"]]


class Analysis:
    """Per-name and per-layer counts and times over a set of spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name = a["name"]
        self.op = a["op"]
        dur = a["end"] - a["start"]
        n = int(a["sid"].max()) + 1 if a["sid"].size else 0
        self.parent_of = np.full(n, -1, dtype=np.int64)
        self.parent_of[a["sid"]] = a["parent"]
        self.name_of = np.full(n, -1, dtype=np.int64)
        self.name_of[a["sid"]] = a["name"]
        self.sid = a["sid"]
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self.dur = dur
        self.self_time = dur - child[a["sid"]]
        self.layer_of_name = np.asarray(
            [n.split(".", 1)[0] for n in self.names], dtype=object
        )

    def ids(self, *names: str) -> np.ndarray:
        return np.asarray([self.names.index(n) for n in names if n in self.names], dtype=np.int64)

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def inclusive(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_of(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.layer_of_name[self.name] == layer

    def layer_calls(self, layer: str) -> int:
        return int(self.layer_mask(layer).sum())

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer_mask(layer)].sum())

    def op_time(self) -> float:
        return self.inclusive(OP_SPAN)

    def count_under(self, name: str, *ancestors: str) -> int:
        """Spans called ``name`` that have a span of ``ancestors`` above them."""
        targets = self.ids(*ancestors)
        sids = self.sid[self.mask(name)]
        found = np.zeros(sids.size, dtype=bool)
        cur = self.parent_of[sids]
        while True:
            live = (cur >= 0) & ~found
            if not live.any():
                break
            hit = live & np.isin(self.name_of[np.where(live, cur, 0)], targets)
            found |= hit
            cur = np.where(live & ~hit, self.parent_of[np.where(live, cur, 0)], -1)
        return int(found.sum())
