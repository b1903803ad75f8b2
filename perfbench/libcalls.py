"""Library calls of the benchmark workloads, run in their own process.

    python3 perfbench/libcalls.py roundtrip IN.json OUT.json [--trace-out T --run-id R]
    python3 perfbench/libcalls.py cantor IN.json OUT.json [--trace-out T --run-id R]

``roundtrip`` reads each CSV signal named in IN.json and records
``walsh_expand`` of it and ``walsh_synthesize`` of those coefficients.
``cantor`` records ``coefficient_table`` and ``bessel_sum`` of each Cantor
step and ``indicator_relation_check`` of each word.  Results go to OUT.json
as exact ``num/den`` strings or floats; the benchmark checks them after the
timed region.
"""

from __future__ import annotations

import argparse
import json
import sys

import cuntz_bases as cb
from cuntz_bases.dyadic import rational_str


def roundtrip(spec: dict) -> dict:
    out = {}
    for name, path in spec["signals"].items():
        with open(path, encoding="utf-8") as handle:
            samples = [line.strip() for line in handle if line.strip()]
        level = len(samples).bit_length() - 1
        coeffs = cb.walsh_expand(cb.ingest_signal(samples, level), level=level)
        synth = cb.walsh_synthesize(coeffs)
        out[name] = {"coeffs": [rational_str(c) for c in coeffs],
                     "synth": [rational_str(c) for c in synth.refine(level).coeffs]}
    return out


def cantor(spec: dict) -> dict:
    p = spec["p"]
    steps = [cb.CantorStep(s["level"], s["coeffs"]) for s in spec["steps"]]
    return {
        "tables": [cb.coefficient_table(f, p) for f in steps],
        "bessel": [cb.bessel_sum(f, p) for f in steps],
        "indicator": [cb.indicator_relation_check(w).to_json() for w in spec["words"]],
    }


TASKS = {"roundtrip": roundtrip, "cantor": cantor}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("inp")
    parser.add_argument("out")
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="0")
    args = parser.parse_args()
    with open(args.inp, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer(args.run_id)
        install(tracer)
    try:
        result = TASKS[args.task](spec)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
