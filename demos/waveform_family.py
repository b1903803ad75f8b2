#!/usr/bin/env python3
"""Walk through the recursive square-wave family and the exact transform.

The family starts from the constant function; index 2n duplicates the
pattern of index n, index 2n+1 duplicates it with a sign flip.  Everything
below is exact rational arithmetic, so orthonormality prints as equalities.
"""

from cuntz_bases import (
    DyadicStep,
    apply_word,
    ingest_signal,
    walsh,
    walsh_expand,
    walsh_synthesize,
    walsh_word,
)


def sign_art(step):
    return "".join("#" if c > 0 else "." for c in step.refine(5).coeffs)


print("The first sixteen basis steps (level-5 sign pattern, # = +1, . = -1):")
for n in range(16):
    w = walsh(n)
    print(f"  n={n:2d}  level={w.level}  {sign_art(w)}")

print()
print("Each index is an operator word applied to the constant function:")
for n in (3, 7, 11, 13):
    word = walsh_word(n)
    same = walsh(n) == apply_word(word, DyadicStep.ones())
    print(f"  n={n:2d}  word={''.join(map(str, word.digits))}  two paths agree: {same}")

print()
print("Orthonormality is exact (a few Gram entries):")
for i, j in [(0, 0), (3, 3), (3, 5), (7, 2)]:
    print(f"  <w{i}, w{j}> = {walsh(i).inner(walsh(j))}")

print()
print("Expanding a sampled signal (8 samples, exact decimal ingestion):")
signal = ingest_signal(["1.5", "1.5", "0.5", "-0.5", "-1", "-1", "0", "0"], 3)
coeffs = walsh_expand(signal)
for n, c in enumerate(coeffs):
    if c != 0:
        print(f"  coefficient {n}: {c}")

round_trip = walsh_synthesize(coeffs) == signal
parseval = sum(c * c for c in coeffs) == signal.norm_sq()
print(f"  synthesis returns the signal exactly: {round_trip}")
print(f"  Parseval holds with equality:        {parseval}")
