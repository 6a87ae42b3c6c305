"""Run ``subclust.cli.main`` with timing wrappers on each layer's entry points.

Usage: python perfbench/traced_cli.py TRACE_OUT.json cluster [cluster flags...]

The wrappers go on the names the callers look up at call time (for example
``subclust.cli.sparse_self_representation``, not only the definition in
``subclust.sparse_coding``), so every call through the pipeline is seen
without a second copy of the pipeline. Spans stay in memory and are written
to TRACE_OUT.json when ``main`` returns, together with the few counts that
can only be read from a layer's return value. The exit code is ``main``'s.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_t_import = time.perf_counter()
import subclust.cli  # noqa: E402  (timed: a fresh interpreter pays this on every call)

IMPORT_S = time.perf_counter() - _t_import

from subclust import cli, dataio, lowrank, metrics, oos, sparse_coding, spectral  # noqa: E402

# (module, attribute) pairs; the span name is "<module>.<attribute>"
WRAPPED = (
    (dataio, "load_csv"),
    (dataio, "load_labels"),
    (cli, "sparse_self_representation"),
    (sparse_coding, "solve_lasso"),
    (sparse_coding, "spectral_norm_sq"),
    (cli, "solve_lrr"),
    (lowrank, "l21_shrink"),  # once per inexact-ALM iteration under the l21 norm
    (cli, "outlier_columns"),
    (spectral, "spectral_cluster"),
    (spectral, "build_affinity"),
    (spectral, "normalized_laplacian"),
    (spectral, "smallest_eigenvectors"),
    (spectral, "kmeans"),
    (oos, "build_dictionary"),
    (oos, "code_batch"),
    (oos, "solve_lasso"),
    (oos, "classify_codes"),
    (metrics, "accuracy"),
    (metrics, "nmi"),
)


class Tracer:
    """In-memory spans ``[name, parent_index, start, end]`` plus counts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = {
            "sparse_coding.lasso_iterations": 0,
            "sparse_coding.lasso_converged": 0,
            "lowrank.flagged_columns": 0,
        }

    def wrap(self, module, attr: str, on_result=None):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        return traced


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    counts = tracer.counts

    def on_lasso(code):
        counts["sparse_coding.lasso_iterations"] += code.report.iterations
        counts["sparse_coding.lasso_converged"] += int(code.report.converged)

    def on_outliers(flagged):
        counts["lowrank.flagged_columns"] += len(flagged)

    hooks = {(sparse_coding, "solve_lasso"): on_lasso, (cli, "outlier_columns"): on_outliers}
    for module, attr in WRAPPED:
        tracer.wrap(module, attr, hooks.get((module, attr)))
    traced_main = tracer.wrap(cli, "main")
    code = traced_main(cli_args)
    with open(trace_out, "w") as fh:
        json.dump({"import_s": IMPORT_S, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
