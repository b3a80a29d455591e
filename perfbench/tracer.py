"""Spans at hopftower's layer boundaries, recorded from outside the package.

``install(recorder)`` replaces every public function of each module in
``hopftower`` -- at every module-level binding, so ``expand_letters`` as
imported into ``hopf``, ``antipode``, ``characters`` and ``nsym`` is wrapped
too -- and the class attributes listed in ``METHODS`` with wrappers that
record one span per call.  Generator functions get call and item counts
instead, since their work happens while they are consumed.  A span holds
its name, start, end, parent span and operation id (the index of the job
that caused it).  Spans stay in memory in flat arrays and are written out
once, by ``Recorder.dump``.

While recording, the recorder keeps per-name aggregates: calls, self time
(the span's duration minus the time its child spans cover), exceptions
raised through the span, and the work counts listed in ``COUNTS``.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import inspect
import json
import time

MODULES = ("theory", "elements", "hopf", "antipode", "functors",
           "characters", "nsym", "combinatorics", "verify", "serialize", "cli")

# class attributes wrapped in place, with their span names
METHODS = {
    ("elements", "TensorElement", "__add__"): "elements.add",
    ("hopf", "HopfContext", "__init__"): "hopf.HopfContext",
    ("hopf", "HopfContext", "product"): "hopf.product",
    ("hopf", "HopfContext", "coproduct"): "hopf.coproduct",
    ("hopf", "HopfContext", "square_product"): "hopf.square_product",
    ("theory", "CharacterBasis", "__init__"): "theory.CharacterBasis",
}

# private functions that are the CLI's JSON boundary
PRIVATE = {("cli", "_load_element"): "cli._load_element",
           ("cli", "_emit"): "cli._emit"}

# span names that differ from "<module>.<function>"
RENAME = {
    "antipode.antipode_closed": "antipode.closed",
    "antipode.antipode_oracle": "antipode.oracle",
    "antipode.antipode_toggle_free": "antipode.toggle_free",
    "antipode.antipode_all_setcomps": "antipode.all_setcomps",
}


def _terms_out(rec, name, args, out):
    rec.counts[name + ".terms_out"] += len(out.terms)


def _words_out(rec, name, args, out):
    rec.counts[name + ".words_out"] += len(out)


def _distinct(rec, name, args):
    # (context, element): equal contexts share a key, as a memo on the
    # triple would
    ctx, x = args[0], args[1]
    rec.distinct.setdefault(name, set()).add(
        (ctx, x.degree, frozenset(x.terms.items())))


def _terms_copied(rec, name, args):
    rec.counts[name + ".terms_copied"] += len(args[0].terms)


# span name -> (hook on the arguments before the call,
#               hook on the result after it)
COUNTS = {
    "elements.expand_letters": (None, _words_out),
    "elements.add": (_terms_copied, None),
    "hopf.product": (None, _terms_out),
    "hopf.coproduct": (_distinct, _terms_out),
    "antipode.closed": (None, _terms_out),
    "antipode.oracle": (_distinct, _terms_out),
    "antipode.toggle_free": (None, _terms_out),
    "antipode.all_setcomps": (None, _terms_out),
}

# groups whose time is the union of their outermost spans
GROUPS = {
    "theory.build_s": {"theory.two_dim", "theory.cyclic4", "theory.from_table",
                       "theory.CharacterBasis", "hopf.HopfContext",
                       "hopf.induction_context", "hopf.all_ones_context",
                       "serialize.theory_from_dict"},
    "serialize.parse_s": {"cli._load_element", "serialize.element_from_dict",
                          "serialize.square_from_dict",
                          "serialize.character_from_dict",
                          "serialize.theory_from_dict",
                          "serialize.parse_expression"},
    "serialize.emit_s": {"cli._emit", "serialize.element_to_dict",
                         "serialize.square_to_dict",
                         "serialize.character_to_dict", "serialize.jsonable"},
}


class Recorder:
    """In-memory span store and per-name aggregates."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.opid = array.array("i")
        self._stack = []        # open span ids
        self._child = []        # time covered by children, per open span
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.errors = collections.Counter()
        self.items = collections.Counter()
        self.counts = collections.Counter()
        self.distinct = {}
        self.groups = collections.Counter()
        self._depth = collections.Counter()
        self._group_of = {}
        for group, members in GROUPS.items():
            for member in members:
                self._group_of.setdefault(member, []).append(group)

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid, name):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.opid.append(self.op)
        self.end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        for group in self._group_of.get(name, ()):
            self._depth[group] += 1
        start = time.perf_counter()
        self.start.append(start)
        return sid

    def leave(self, sid, name, failed):
        end = time.perf_counter()
        self.end[sid] = end
        duration = end - self.start[sid]
        self._stack.pop()
        covered = self._child.pop()
        if self._child:
            self._child[-1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if failed:
            self.errors[name] += 1
        for group in self._group_of.get(name, ()):
            self._depth[group] -= 1
            if not self._depth[group]:
                self.groups[group] += duration

    def summary(self):
        """Aggregates as JSON-ready data (spans themselves go to ``dump``)."""
        return {
            "spans": len(self.name),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "items": dict(self.items),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "groups": dict(self.groups),
        }

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["name", "i"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["op", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent,
                        self.opid):
                arr.tofile(fh)


def load_spans(path):
    """Read a file written by ``Recorder.dump`` into a list of dicts."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for key, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, n)
            cols[key] = arr
    names = header["names"]
    return [{"name": names[cols["name"][i]], "start": cols["start"][i],
             "end": cols["end"][i], "parent": cols["parent"][i],
             "op": cols["op"][i]} for i in range(n)]


def _wrap(rec, name, fn):
    if inspect.isgeneratorfunction(fn):
        # a generator's work happens as it is consumed, between other
        # spans, so it gets counts (calls, items) and no span
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if rec.enabled:
                rec.calls[name] += 1
            for item in fn(*args, **kwargs):
                if rec.enabled:
                    rec.items[name] += 1
                yield item
        return gen_wrapper

    nid = rec.intern(name)
    before, after = COUNTS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(rec, name, args)
        sid = rec.enter(nid, name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.leave(sid, name, True)
            raise
        rec.leave(sid, name, False)
        if after is not None:
            after(rec, name, args, out)
        return out
    return wrapper


def install(rec):
    """Wrap hopftower's layer boundaries so that calls report to ``rec``.

    Call after importing ``hopftower`` and before any workload runs.
    Recording starts when ``rec.enabled`` is set.
    """
    pkg = importlib.import_module("hopftower")
    mods = {m: importlib.import_module("hopftower." + m) for m in MODULES}
    wrapped = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{mname}.{attr}"
                wrapped[obj] = _wrap(rec, RENAME.get(name, name), obj)
    for (mname, attr), name in PRIVATE.items():
        obj = getattr(mods[mname], attr)
        wrapped[obj] = _wrap(rec, name, obj)
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for (mname, cls, attr), name in METHODS.items():
        klass = getattr(mods[mname], cls)
        setattr(klass, attr, _wrap(rec, name, vars(klass)[attr]))
