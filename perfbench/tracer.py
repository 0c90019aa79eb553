"""Traced run of the supercong CLI, measured from outside the package.

Run as a child process with ``src`` on PYTHONPATH::

    python3 perfbench/tracer.py TRACE.json -- verify --cases eq0 --out report.json

Each public function of the six layer modules is replaced by a wrapper that
records a span ``(name, start, end, parent)`` and, for a few functions, a
counter.  Every module-level alias of a wrapped function in any ``supercong``
module is rebound as well: ``harness``, ``hypergeometric`` and ``cli`` import
functions by name, and a call made through an alias left unbound would go
unmeasured.  The spans stay in memory and are written to TRACE.json when the
CLI returns; the process exits with the CLI's exit code.

The cost of a wrapper falls outside its own span, so it is charged to the
caller's self time.  ``layer_metrics`` turns a written trace into the
per-layer metrics; it runs in the benchmark process, which never imports
supercong.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from spans import self_by_layer, self_by_name
from workloads import ALL_TAGS

LAYERS = ("exact_core", "power_series", "hypergeometric", "modular_form", "harness", "cli")

#: The functions whose self time makes up ``hypergeometric.identity.self_s``.
IDENTITY_FUNCTIONS = (
    "hypergeometric.identity_sides",
    "hypergeometric.gamma_ratio_value",
    "hypergeometric.sample_identity_params",
)

#: The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("exact_core.padic_valuation.calls", "count"),
    ("exact_core.primality.calls", "count"),
    ("exact_core.valuation_bits_max", "bits"),
    ("exact_core.self_s", "s"),
    ("power_series.pochhammer.factors", "count"),
    ("power_series.ps_mul.calls", "count"),
    ("power_series.ps_invert.calls", "count"),
    ("power_series.self_s", "s"),
    ("hypergeometric.eval_hyp_sum.calls", "count"),
    ("hypergeometric.eval_hyp_sum.terms", "count"),
    ("hypergeometric.eval_hyp_sum.self_s", "s"),
    ("hypergeometric.eval_hyp_sum_series.calls", "count"),
    ("hypergeometric.eval_hyp_sum_series.terms", "count"),
    ("hypergeometric.eval_hyp_sum_series.self_s", "s"),
    ("hypergeometric.identity.self_s", "s"),
    ("hypergeometric.result_bits_max", "bits"),
    ("hypergeometric.self_s", "s"),
    ("modular_form.eta.expansions", "count"),
    ("modular_form.eta.coeffs_expanded", "count"),
    ("modular_form.eta.hit_ratio", "ratio"),
    ("modular_form.self_s", "s"),
    ("harness.records", "count"),
    ("harness.error_records", "count"),
    ("harness.self_s", "s"),
    *((f"harness.case_s.{tag}", "s") for tag in ALL_TAGS),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.eta_cache_info = None

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(span, args, kwargs, result)

        return traced

    def _hooks(self, eta_cache_info):
        c = self.counters

        def keep_max(key, value):
            if value > c[key]:
                c[key] = value

        def valuation(span, args, kwargs, result):
            keep_max("exact_core.valuation_bits_max", _bits(_arg(args, kwargs, 0, "x")))

        def pochhammer(span, args, kwargs, result):
            c["power_series.pochhammer.factors"] += _arg(args, kwargs, 2, "k")

        def scalar_sum(span, args, kwargs, result):
            c["hypergeometric.eval_hyp_sum.terms"] += _arg(args, kwargs, 0, "s").truncation + 1
            if result is not None:
                keep_max("hypergeometric.result_bits_max", _bits(result))

        def series_sum(span, args, kwargs, result):
            c["hypergeometric.eval_hyp_sum_series.terms"] += _arg(args, kwargs, 0, "s").truncation + 1
            if result is not None:
                keep_max("hypergeometric.result_bits_max", max(_bits(x) for x in result.coeffs))

        misses_seen = [0]

        def eta(span, args, kwargs, result):
            misses = eta_cache_info().misses
            if misses > misses_seen[0]:
                c["modular_form.eta.coeffs_expanded"] += _arg(args, kwargs, 0, "N")
                misses_seen[0] = misses

        def case(span, args, kwargs, result):
            c[f"harness.case_s.{_arg(args, kwargs, 0, 'tag')}"] += span[2] - span[1]

        def suite(span, args, kwargs, result):
            if result is not None:
                c["harness.records"] += len(result)
                c["harness.error_records"] += sum(
                    1 for r in result if str(r.achieved).startswith("error:")
                )

        return {
            "exact_core.padic_valuation": valuation,
            "power_series.pochhammer_series": pochhammer,
            "power_series.pochhammer_norm_series": pochhammer,
            "hypergeometric.eval_hyp_sum": scalar_sum,
            "hypergeometric.eval_hyp_sum_series": series_sum,
            "modular_form.eta_product_expansion": eta,
            "harness.verify_congruence_case": case,
            "harness.verify_exact_case": case,
            "harness.verify_series_case": case,
            "harness.run_suite": suite,
        }

    def install(self):
        """Wrap every public function of the layers and rebind all its aliases."""
        modules = {layer: importlib.import_module(f"supercong.{layer}") for layer in LAYERS}
        eta = modules["modular_form"].eta_product_expansion
        self.eta_cache_info = eta.cache_info
        hooks = self._hooks(eta.cache_info)
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "supercong" and not mod_name.startswith("supercong."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        return modules["cli"]

    def dump(self, path):
        info = self.eta_cache_info()
        counters = dict(self.counters)
        counters["modular_form.eta.expansions"] = info.misses
        calls = info.hits + info.misses
        counters["modular_form.eta.hit_ratio"] = info.hits / calls if calls else 0.0
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counters": counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def load_spans(doc) -> list[tuple[str, float, float, int]]:
    names = doc["names"]
    return [(names[n], s, e, p) for n, s, e, p in doc["spans"]]


def layer_metrics(spans, counters, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but ``trace.overhead_s``)."""
    calls = Counter(name for name, *_ in spans)
    own = self_by_name(spans)
    layer_self = self_by_layer(spans)
    metrics = {name: 0 for name, _unit in PER_LAYER if name != "trace.overhead_s"}
    metrics.update((k, v) for k, v in counters.items() if k in metrics)
    metrics.update(
        {
            "exact_core.padic_valuation.calls": calls["exact_core.padic_valuation"],
            "exact_core.primality.calls": calls["exact_core.is_prime"] + calls["exact_core.check_prime"],
            "power_series.ps_mul.calls": calls["power_series.ps_mul"],
            "power_series.ps_invert.calls": calls["power_series.ps_invert"],
            "hypergeometric.eval_hyp_sum.calls": calls["hypergeometric.eval_hyp_sum"],
            "hypergeometric.eval_hyp_sum.self_s": own.get("hypergeometric.eval_hyp_sum", 0.0),
            "hypergeometric.eval_hyp_sum_series.calls": calls["hypergeometric.eval_hyp_sum_series"],
            "hypergeometric.eval_hyp_sum_series.self_s": own.get("hypergeometric.eval_hyp_sum_series", 0.0),
            "hypergeometric.identity.self_s": sum(own.get(n, 0.0) for n in IDENTITY_FUNCTIONS),
            "cli.render_s": sum(
                e - s for name, s, e, _p in spans if name in ("cli.render_json", "cli.render_csv")
            ),
            "cli.output_bytes": output_bytes,
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- SUPERCONG_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(argv[2:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
