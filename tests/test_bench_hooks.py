"""The benchmark's traced run wraps package functions by name; every name it
patches must keep resolving, or `perfbench/run.py --trace 1` stops working."""

import importlib

import m2sl2.cli
import m2sl2.genmat
from m2sl2.freealg import QPoly
from m2sl2.ring import Combination, MultiPoly
from tests.bench_pairs import bench_module

tracing = bench_module("tracing")


def test_every_traced_name_resolves_and_restores():
    originals = {
        (m2sl2.cli, "main"): m2sl2.cli.main,
        (m2sl2.genmat, "eval_word"): m2sl2.genmat.eval_word,
        (m2sl2.genmat, "evaluate"): m2sl2.genmat.evaluate,
        (QPoly, "__mul__"): QPoly.__mul__,
        (QPoly, "__add__"): QPoly.__add__,
        (MultiPoly, "__mul__"): MultiPoly.__mul__,
    }
    shared = dict(vars(Combination))
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)  # getattr without a default: a missing name raises here
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert len(patched) == len(set(patched)) >= 26
        for owner, attr in patched:
            assert getattr(owner, attr).__name__ == "traced", (owner, attr)
        # the wrappers sit on the subclasses, so the freealg.qpoly_mul and
        # ring.mul rows stay apart, and the shared algebra is never wrapped
        assert vars(Combination) == shared
        assert QPoly.__mul__ is not MultiPoly.__mul__
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn
    for owner, attr in ((QPoly, "__mul__"), (QPoly, "__add__"), (MultiPoly, "__mul__")):
        assert getattr(owner, attr) is shared[attr], (owner, attr)
    for name in ("cli", "parsing", "freealg", "genmat", "ring", "reduction", "intlinalg"):
        importlib.import_module(f"m2sl2.{name}")
