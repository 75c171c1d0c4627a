"""Spans and work counters for the traced run, taken from outside the package.

`instrument` replaces the public functions of m2sl2 at the names their
callers look up (for example `m2sl2.reduction.pwo_leq`, which reduce_by and
factorize_embedding call) with wrappers that record a span per call: name,
start, end and parent, kept in flat arrays in memory.  Observers on a few
wrappers count work from the arguments and results.  A layer's self time is
its spans' durations minus the time covered by their direct child spans.
"""

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a span-recording wrapper until `restore`."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def stats(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
        return out

    def child_count(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent is named `parent`."""
        c, p = self._ids.get(child), self._ids.get(parent)
        names = self.name
        return sum(1 for nid, par in zip(names, self.parent)
                   if nid == c and par >= 0 and names[par] == p)

    def write(self, stem: Path) -> None:
        """Spans as <stem>.bin (int32 name, int32 parent, float64 start,
        float64 end, each array whole, in that order) and <stem>.json."""
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {"spans": len(self.name), "names": self.names,
                  "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


# --- observers: counts taken from arguments and results ----------------------

def _bump(counts: dict, key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


def _raise_max(counts: dict, key: str, value: int) -> None:
    if value > counts.get(key, 0):
        counts[key] = value


def _words(counts, args, result):
    _bump(counts, "parsing.words_expanded", len(result))


def _pwo_hit(counts, args, result):
    if result is not None:
        _bump(counts, "orders.pwo_leq.hits")


def _leading(counts, args, result):
    _raise_max(counts, "reduction.max_coeff_bits", abs(result.lc).bit_length())


def _reduce_by(counts, args, result):
    _bump(counts, "reduction.generators", len(args[1]))
    _bump(counts, "reduction.freezes", len(result.terms))
    for c in result.terms.values():
        _raise_max(counts, "reduction.max_coeff_bits", abs(c).bit_length())


def _lattice_add(counts, args, result):
    if result:
        _bump(counts, "intlinalg.add.grew")


def instrument(tracer: Tracer) -> None:
    """Wrap the loaded m2sl2 modules' functions at their callers' names."""
    mod = {n: importlib.import_module(f"m2sl2.{n}")
           for n in ("cli", "parsing", "freealg", "genmat", "ring", "reduction", "intlinalg")}
    cli, parsing, freealg, genmat, reduction = (
        mod["cli"], mod["parsing"], mod["freealg"], mod["genmat"], mod["reduction"])
    targets = [
        (cli, "main", "cli", None),
        (cli, "format_qpoly", "cli.format", None),
        (cli, "format_monomial", "cli.format", None),
        (cli, "parse_poly", "parsing.parse_poly", None),
        (cli, "parse_words", "parsing.parse_words", _words),
        (parsing, "parse_words", "parsing.parse_words", _words),
        (parsing, "normalize", "freealg.normalize", None),
        (reduction, "normalize", "freealg.normalize", None),
        (freealg, "reduce_word", "freealg.reduce_word", None),
        (freealg.QPoly, "__mul__", "freealg.qpoly_mul", None),
        (freealg.QPoly, "__add__", "freealg.qpoly_add", None),
        (cli, "is_graded_weak_identity", "genmat.is_graded_weak_identity", None),
        (cli, "independence_report", "genmat.independence_report", None),
        (genmat, "evaluate", "genmat.evaluate", None),
        (genmat, "eval_word", "genmat.eval_word", None),
        (mod["ring"].MultiPoly, "__mul__", "ring.mul", None),
        (mod["intlinalg"].IntRowLattice, "add", "intlinalg.add", _lattice_add),
        (cli, "total_key", "orders.total_key", None),
        (reduction, "total_key", "orders.total_key", None),
        (reduction, "pwo_leq", "orders.pwo_leq", _pwo_hit),
        (reduction, "leading", "reduction.leading", _leading),
        (cli, "reduce_by", "reduction.reduce_by", _reduce_by),
        (reduction, "reduce_by", "reduction.reduce_by", _reduce_by),
        (cli, "chain_demo", "reduction.chain_demo", None),
        (reduction, "factorize_embedding", "reduction.factorize_embedding", None),
        (reduction, "apply_reducer", "reduction.apply_reducer", None),
    ]
    for owner, attr, name, observe in targets:
        tracer.patch(owner, attr, name, observe)


# (metric, unit, spans, counter): the value is the observer counter when one
# is named, else the spans' call count ("count") or summed self time ("s");
# the sample count is the number of those spans.
PER_LAYER = [
    ("parsing.self_s", "s", ("parsing.parse_poly", "parsing.parse_words"), None),
    ("parsing.words_expanded", "count", ("parsing.parse_words",), "parsing.words_expanded"),
    ("freealg.normalize.self_s", "s", ("freealg.normalize",), None),
    ("freealg.reduce_word.calls", "count", ("freealg.reduce_word",), None),
    ("freealg.qpoly_mul.self_s", "s", ("freealg.qpoly_mul",), None),
    ("freealg.qpoly_add.self_s", "s", ("freealg.qpoly_add",), None),
    ("genmat.evaluate.self_s", "s", ("genmat.evaluate",), None),
    ("genmat.eval_word.calls", "count", ("genmat.eval_word",), None),
    ("ring.mul.calls", "count", ("ring.mul",), None),
    ("ring.mul.self_s", "s", ("ring.mul",), None),
    ("orders.total_key.calls", "count", ("orders.total_key",), None),
    ("orders.total_key.self_s", "s", ("orders.total_key",), None),
    ("reduction.leading.calls", "count", ("reduction.leading",), None),
    ("reduction.leading.self_s", "s", ("reduction.leading",), None),
    ("orders.pwo_leq.calls", "count", ("orders.pwo_leq",), None),
    ("orders.pwo_leq.self_s", "s", ("orders.pwo_leq",), None),
    ("reduction.reduce_by.self_s", "s", ("reduction.reduce_by",), None),
    ("reduction.freezes", "count", ("reduction.reduce_by",), "reduction.freezes"),
    ("reduction.factorize_embedding.self_s", "s", ("reduction.factorize_embedding",), None),
    ("reduction.apply_reducer.self_s", "s", ("reduction.apply_reducer",), None),
    ("reduction.max_coeff_bits", "bits", ("reduction.leading", "reduction.reduce_by"),
     "reduction.max_coeff_bits"),
    ("intlinalg.add.calls", "count", ("intlinalg.add",), None),
    ("intlinalg.add.self_s", "s", ("intlinalg.add",), None),
    ("cli.format.self_s", "s", ("cli.format",), None),
    ("cli.self_s", "s", ("cli",), None),
]


def per_layer(tracer: Tracer) -> dict[str, tuple]:
    """metric -> (value, unit, samples); samples is the span count behind it."""
    st = tracer.stats()
    counts = tracer.counts
    zero = [0, 0.0, 0.0]
    out = {}
    for metric, unit, spans, counter in PER_LAYER:
        rows = [st.get(n, zero) for n in spans]
        calls = sum(r[0] for r in rows)
        if counter is not None:
            value = counts.get(counter, 0)
        else:
            value = sum(r[2] for r in rows) if unit == "s" else calls
        out[metric] = (value, unit, calls)
    pwo_calls = st.get("orders.pwo_leq", zero)[0]
    out["orders.pwo_leq.hit_ratio"] = (
        counts.get("orders.pwo_leq.hits", 0) / pwo_calls if pwo_calls else 0.0, "ratio", pwo_calls)
    adds = st.get("intlinalg.add", zero)[0]
    out["intlinalg.rank_growth_ratio"] = (
        counts.get("intlinalg.add.grew", 0) / adds if adds else 0.0, "ratio", adds)
    leading_in_reduce = tracer.child_count("reduction.leading", "reduction.reduce_by")
    out["reduction.steps"] = (leading_in_reduce - counts.get("reduction.generators", 0),
                              "count", st.get("reduction.reduce_by", zero)[0])
    return out
