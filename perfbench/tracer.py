"""Per-layer tracing of ``cuntz_bases`` from outside the package.

``install`` wraps functions at each layer boundary of the library and
rebinds every module-level name that refers to them (``cli`` and
``verification`` import functions by name), so a traced process records
spans and counters while the library itself is unchanged.  Hot functions
(``s_apply``, ``inner`` ...) are aggregated per name; coarser calls are also
kept as individual spans.  Everything stays in memory until ``dump``.

A layer's self time is its span time minus the time covered by its child
spans.  ``StepFunction.__init__`` is only counted, never timed, so tracing
stays cheap on the construction-heavy checks.

Run one traced CLI command::

    python3 perfbench/tracer.py --out trace.json --run-id 3 -- expand --input s.csv
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[list] = []  # [child_time, kept span id or None]
        self.agg: dict[str, list] = {}  # name -> [layer, calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [id, name, start, end, parent id, run id]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def timed(self, fn, layer: str, name, keep_span: bool = True, after=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of
        (args, result); ``after(args, kwargs, result)`` records counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
            parent = tracer._parent_span()
            frame = [0.0, span_id]
            tracer.stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                tracer.stack.pop()
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][0] += duration
                label = name if isinstance(name, str) else name(args, result)
                entry = tracer.agg.setdefault(label, [layer, 0, 0.0, 0.0])
                entry[1] += 1
                entry[2] += duration
                entry[3] += duration - frame[0]
                if keep_span:
                    tracer.spans[span_id] = [span_id, label, start, end, parent, tracer.run_id]
                if after is not None and result is not None:
                    after(args, kwargs, result)

        return wrapper

    def counted(self, fn, after):
        """Wrap ``fn`` so that ``after(args, kwargs, result)`` runs on return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "agg": self.agg, "counts": self.counts,
                       "spans": [s for s in self.spans if s is not None]}, handle)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _atoms(f) -> int:
    return len(f.atoms) if hasattr(f, "atoms") else 1


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``cuntz_bases``."""
    # by module path: the package re-exports a function named ``entropy``
    names = ("basis", "cantor", "cli", "dyadic", "entropy", "operators", "trig", "verification")
    basis, cantor, cli, dyadic, entropy, operators, trig, verification = (
        importlib.import_module(f"cuntz_bases.{name}") for name in names)
    modules = [importlib.import_module("cuntz_bases"), basis, cantor, cli, dyadic, entropy,
               operators, trig, verification]
    count = tracer.count

    def rebind(module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            return
        replacement = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
        commands = getattr(cli, "_COMMANDS", {})
        for key, value in list(commands.items()):
            if value is original:
                commands[key] = replacement

    def span(module, attr, layer, name, keep_span=True, after=None):
        rebind(module, attr, lambda fn: tracer.timed(fn, layer, name, keep_span, after))

    def counter(module, attr, after):
        rebind(module, attr, lambda fn: tracer.counted(fn, after))

    # cli: one span per subcommand; their self time is the CLI's own work
    span(cli, "main", "cli", "cli.main")
    for command in ("expand", "entropy", "verify", "walsh"):
        span(cli, f"cmd_{command}", "cli", f"cli.{command}")
    span(cli, "cmd_cantor", "cli", lambda args, _r: f"cli.cantor_{args[0].cantor_sub}")

    # verification: every registered check, named by the relation it reports
    span(verification, "run_suite", "verification", "verification.run_suite")
    checks = getattr(verification, "CHECKS", [])
    for i, (suite, fn) in enumerate(checks):
        def name(_args, report, suite=suite):
            relation = report.relation if report is not None else "error"
            return f"verification.check.{suite}/{relation}"
        wrapped = tracer.timed(fn, "verification", name)
        checks[i] = (suite, wrapped)
        if getattr(verification, "check_cantor_spectrum_gram", None) is fn:
            # run_suite dispatches on the identity of this check
            verification.check_cantor_spectrum_gram = wrapped

    # dyadic: construction is counted only; inner products are timed
    step_init = dyadic.StepFunction.__init__

    def built(args, _kwargs, _result):
        count("dyadic.steps_built")
        count("dyadic.coeffs_built", len(args[0].coeffs))

    dyadic.StepFunction.__init__ = tracer.counted(step_init, built)
    dyadic.StepFunction.inner = tracer.timed(dyadic.StepFunction.inner, "dyadic",
                                             "dyadic.inner", keep_span=False)

    # operators
    span(operators, "s_apply", "operators", "operators.s_apply", keep_span=False)
    span(operators, "s_adjoint", "operators", "operators.s_adjoint", keep_span=False)

    # basis
    span(basis, "walsh_expand", "basis", "basis.walsh_expand",
         after=lambda a, k, r: count("basis.coeffs_transformed", len(r)))
    span(basis, "walsh_synthesize", "basis", "basis.walsh_synthesize",
         after=lambda a, k, r: count("basis.coeffs_transformed", len(a[0])))
    span(basis, "ingest_signal", "basis", "basis.ingest")
    counter(basis, "walsh", lambda a, k, r: count("basis.walsh_calls"))

    # entropy: tree_nodes counts the nodes of every mass tree requested
    def nodes(index, key):
        return lambda a, k, r: count("entropy.tree_nodes", (2 << _arg(a, k, index, key)) - 1)

    span(entropy, "build_entropy_tree", "entropy", "entropy.tree", after=nodes(1, "depth"))
    span(entropy, "projection_masses", "entropy", "entropy.tree", after=nodes(1, "k"))
    span(entropy, "verify_entropy_recursion", "entropy", "entropy.verify_recursion")

    # trig
    span(trig, "hybrid_inner", "trig", "trig.hybrid_inner", keep_span=False,
         after=lambda a, k, r: count("trig.atom_pairs", _atoms(a[0]) * _atoms(a[1])))

    # cantor
    span(cantor, "gram_exponentials", "cantor", "cantor.gram",
         after=lambda a, k, r: count("cantor.pairs_checked", r.checked))
    span(cantor, "exp_coefficient", "cantor", "cantor.exp_coefficient", keep_span=False)
    counter(cantor, "mu_hat", lambda a, k, r: count("cantor.mu_hat_calls"))
    span(cantor, "indicator_relation_check", "cantor", "cantor.indicator_check")
    span(cantor, "coefficient_table", "cantor", "cantor.coefficient_table")
    span(cantor, "bessel_sum", "cantor", "cantor.bessel_sum")


def main() -> int:
    parser = argparse.ArgumentParser(description="run one cuntz-bases CLI command traced")
    parser.add_argument("--out", required=True, help="trace JSON written on exit")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import cuntz_bases.cli

    tracer = Tracer(args.run_id)
    install(tracer)
    try:
        return cuntz_bases.cli.main(cli_args)
    finally:
        tracer.dump(args.out)


if __name__ == "__main__":
    sys.exit(main())
