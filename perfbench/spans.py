"""Outside-in span recorder for the traced run.

The program is not changed: ``SpanRecorder.install`` replaces each named
function, wherever umbra binds it, with a wrapper that records one span per
call, and ``uninstall`` puts every original back.  A function is bound

- in its own module and in every ``umbra.*`` module that imported it with
  ``from ... import``;
- as a value of a module-level dict such as ``umbra.umbral.BASIC_ROUTES``;
- as a class attribute, for methods, including aliases like ``__rmul__``.

Spans (name, start, end, parent, request) stay in memory until the run ends;
``layer_metrics`` then folds them into per-layer and per-function totals.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer -> functions traced in it, as "<module>.<attr>" or "<module>.<Class>.<method>".
# The layer of a function is the module that defines it.  ``cli.main`` stands
# for the cli layer; ``rational`` and ``errors`` are leaf helpers, not timed.
TRACED = {
    "cli": ("cli.main",),
    "expr": ("expr.eval_expr",),
    "fps": (
        "fps.Series.__mul__",
        "fps.mul_inv",
        "fps.comp_inv",
        "fps.compose",
        "fps.pow_rat",
        "fps.Poly.__add__",
    ),
    "operators": ("operators.apply_op",),
    "umbral": (
        "umbral.basic_transfer",
        "umbral.basic_steffensen",
        "umbral.basic_recurrence",
        "umbral.basic_genfunc",
        "umbral.basic_km",
        "umbral.basic_from_inverse_series",
        "umbral.tri_compose",
        "umbral.tri_invert",
        "umbral.transform_seq",
        "umbral.is_binomial_type",
    ),
    "bell": ("bell.partial_bell",),
    "flow": ("flow.itlog", "flow.frac_iterate", "flow.phi_pow", "flow.shifted_powers"),
    "sigma": ("sigma.sigma_apply", "sigma.faulhaber"),
    "catalog": ("catalog.identity_check", "catalog.FamilySpec.basic"),
    "serialize": ("serialize.dumps",),
}
LAYERS = tuple(TRACED)
FUNCTIONS = tuple(name for names in TRACED.values() for name in names)
# Per-function metrics, reported for every name in FUNCTIONS except cli.main,
# which the cli layer rows already cover.
REPORTED_FUNCTIONS = tuple(name for name in FUNCTIONS if name != "cli.main")


def resolve(name: str):
    """(owner, attribute, original) for a dotted name below the umbra package."""
    module, *path = name.split(".")
    owner = sys.modules[f"umbra.{module}"]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1], owner.__dict__[path[-1]]


def umbra_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "umbra" or k.startswith("umbra.")]


def binding_sites(original):
    """Every (container, key, is_dict) through which umbra reaches ``original``."""
    sites = []
    for module in umbra_modules():
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key, False))
            elif isinstance(value, dict) and not key.startswith("__"):
                sites += [(value, k, True) for k, v in value.items() if v is original]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                sites += [(value, k, False) for k, v in vars(value).items() if v is original]
    return sites


class SpanRecorder:
    """Spans as parallel lists; index -1 as a parent means a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.raised: list[bool] = []
        self.request = -1
        self._stack = [-1]
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1])
            rec.requests.append(rec.request)
            rec.raised.append(False)
            rec.ends.append(0.0)
            rec._stack.append(i)
            rec.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.raised[i] = True
                raise
            finally:
                rec.ends[i] = perf_counter()
                rec._stack.pop()

        traced.__umbra_original__ = fn
        return traced

    def install(self, names=FUNCTIONS) -> dict[str, int]:
        """Wrap each named function at every binding site; returns the site counts."""
        if self._restore:
            raise RuntimeError("recorder is already installed")
        counts = {}
        try:
            for name in names:
                _, _, original = resolve(name)
                wrapper = self.wrap(name, original)
                sites = binding_sites(original)
                for container, key, is_dict in sites:
                    self._restore.append((container, key, is_dict, original))
                    if is_dict:
                        container[key] = wrapper
                    else:
                        setattr(container, key, wrapper)
                counts[name] = len(sites)
        except BaseException:
            self.uninstall()
            raise
        return counts

    def uninstall(self):
        while self._restore:
            container, key, is_dict, original = self._restore.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per layer: calls, busy_s (inclusive time of spans with no ancestor in
    the same layer), self_s (span time minus time in traced children) and
    errors (exceptions that leave the layer).  Per function: calls, self_s."""
    n = len(rec.names)
    layer = [name.split(".", 1)[0] for name in rec.names]
    duration = [rec.ends[i] - rec.starts[i] for i in range(n)]
    child_time = [0.0] * n
    # frozenset of the layers open above each span, shared between spans
    above: list[frozenset] = [frozenset()] * n
    memo: dict[tuple, frozenset] = {}
    for i in range(n):
        p = rec.parents[i]
        if p >= 0:
            child_time[p] += duration[i]
            key = (above[p], layer[p])
            if key not in memo:
                memo[key] = above[p] | {layer[p]}
            above[i] = memo[key]
    out: dict[str, float] = {}
    for name in LAYERS:
        out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0, f"{name}.errors": 0})
    for name in REPORTED_FUNCTIONS:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0})
    for i in range(n):
        lay, self_time = layer[i], duration[i] - child_time[i]
        out[f"{lay}.calls"] += 1
        out[f"{lay}.self_s"] += self_time
        if lay not in above[i]:
            out[f"{lay}.busy_s"] += duration[i]
        p = rec.parents[i]
        if rec.raised[i] and (p < 0 or layer[p] != lay):
            out[f"{lay}.errors"] += 1
        if f"{rec.names[i]}.calls" in out:
            out[f"{rec.names[i]}.calls"] += 1
            out[f"{rec.names[i]}.self_s"] += self_time
    return out
