"""Outside-in tracer for the seqdi package.

Wraps the public functions of each seqdi module (the layers) and records
one span per call: name, start, end, parent span and, when the call
raised, the exception's class.  The package imports names directly
(``from .numerics import solve_spd``), so every module-level binding of a
wrapped function is replaced, not only the defining module's; otherwise
nested calls would go uncounted.  Spans stay in memory until the run ends.
"""

import csv
import functools
import importlib
import sys
import time

LAYERS = {
    "numerics": ("solve_spd", "inv_spd", "weighted_ls", "logistic_fit", "chisq_sf"),
    "population": ("draw_nonprob", "generate_population", "calibrate_intercept",
                   "load_population_csv"),
    "pilot": ("fit_power_variance", "predict_sigma2"),
    "design": ("optimal_probabilities", "equal_probabilities", "pps_probabilities",
               "poisson_draw"),
    "estimators": ("WeightSpec.build", "y_di", "y_ht_seq", "y_sep_di", "y_com_di",
                   "y_greg_independent", "estimate_propensity", "y_ipw", "y_dr"),
    "homogeneity": ("fgls_np", "fgls_p", "homogeneity_test"),
    "harness": ("run_mc", "metrics", "emit_results"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Per function: (stat, unit, better).
FUNCTION_STATS = (
    ("calls_per_rep", "calls/rep", "lower"),
    ("ms_per_call", "ms", "lower"),
    ("self_share", "fraction", "lower"),
)
# Counters and ratios: (metric name, unit, better).
COUNTERS = (
    ("numerics.logistic_fit.iters", "iters/fit", "lower"),
    ("design.poisson_draw.empty", "count", "lower"),
    ("design.poisson_draw.realized_n", "units", "lower"),
    ("homogeneity.homogeneity_test.singular", "count", "lower"),
    ("harness.trace_overhead", "ratio", "higher"),
)
# A value to keep from a call's result.
OBSERVE = {"design.poisson_draw": lambda sample: sample.size}


def metric_table():
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = [(f"{name}.{stat}", unit, better)
            for name in SPAN_NAMES for stat, unit, better in FUNCTION_STATS]
    return rows + list(COUNTERS)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, exception class or None, observed value)
        self.spans = []
        self._stack = []

    def install(self):
        """Wrap every function in LAYERS and rebind each module-level alias of it."""
        wrapped = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"seqdi.{module_name}")
            for qualname in names:
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                span_name = f"{module_name}.{qualname}"
                wrapper = self._wrap(span_name, original, OBSERVE.get(span_name))
                setattr(owner, attr, wrapper)
                wrapped[id(original)] = (original, wrapper)

        modules = [m for n, m in sys.modules.items() if n == "seqdi" or n.startswith("seqdi.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for module in modules:
            for attr, value in vars(module).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} still calls the unwrapped function")

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                spans[index] = (name, start, clock(), parent, type(err).__name__, None)
                raise
            finally:
                stack.pop()
            spans[index] = (name, start, clock(), parent, None,
                            observe(result) if observe else None)
            return result

        return traced

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "error", "value"])
            for index, span in enumerate(self.spans):
                if span is not None:
                    writer.writerow([index, *span])

    def layer_metrics(self, replications):
        """Per-layer metrics, all but harness.trace_overhead, as {name: value}.

        self time is a span's duration minus that of its direct children;
        self_share divides it by the total duration of the root spans.  A
        function that was never called reads 0 on every stat.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]

        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        root_time = 0.0
        empty = singular = logistic_solves = 0
        realized = []
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, error, value = span
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            if parent < 0:
                root_time += end - start
            elif name == "numerics.solve_spd" and spans[parent][0] == "numerics.logistic_fit":
                logistic_solves += 1
            if name == "design.poisson_draw" and error == "EmptySample":
                empty += 1
            elif name == "homogeneity.homogeneity_test" and error == "SingularVariance":
                singular += 1
            if value is not None:
                realized.append(value)

        out = {}
        for name in SPAN_NAMES:
            n = calls[name]
            out[f"{name}.calls_per_rep"] = n / replications
            out[f"{name}.ms_per_call"] = 1000.0 * total[name] / n if n else 0.0
            out[f"{name}.self_share"] = self_time[name] / root_time if root_time else 0.0
        fits = calls["numerics.logistic_fit"]
        out["numerics.logistic_fit.iters"] = logistic_solves / fits if fits else 0.0
        out["design.poisson_draw.empty"] = empty
        out["design.poisson_draw.realized_n"] = sum(realized) / len(realized) if realized else 0.0
        out["homogeneity.homogeneity_test.singular"] = singular
        return out
