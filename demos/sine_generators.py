#!/usr/bin/env python3
"""The sine family under the subdivision operators.

Odd sines are annihilated by the first adjoint (a half-shift reflection in
disguise); even sines halve their frequency.  A seed with those symmetries
generates an orthonormal family, and the first operator word where
orthogonality fails is found by scanning words in (length, code) order.
"""

import math

from cuntz_bases import (
    build_frame,
    classify_reflection,
    compute_K,
    frames_orthogonal,
    hybrid_inner,
    make_sine,
    s_adjoint,
    s_apply,
)

print("Reflection symmetry of the first six sines:")
for n in range(1, 7):
    label = classify_reflection(make_sine(n))
    norm = math.sqrt(s_adjoint(0, make_sine(n)).norm_sq())
    print(f"  sin(2pi {n} x): {label:18s} |adjoint_0| = {norm:.3e}")

print()
print("Adjoint halving is an identity of atoms, not a small number:")
print(f"  adjoint_0 sin(2pi 4x) == sin(2pi 2x): {s_adjoint(0, make_sine(4)) == make_sine(2)}")
print(f"  apply_0   sin(2pi 3x) == sin(2pi 6x): {s_apply(0, make_sine(3)) == make_sine(6)}")

print()
print("Scanning for the first non-orthogonal word of the seed sin(2pi x):")
k_word = compute_K(make_sine(1), max_depth=4, tol=1e-10)
print(f"  first collision at word {tuple(k_word.digits)}")
value = hybrid_inner(make_sine(1), s_apply(1, s_apply(1, make_sine(1))))
print(f"  witness inner product <s1, S1 S1 s1> = {value:.6f}  (exact value -8/(15 pi) = {-8 / (15 * math.pi):.6f})")

print()
print("Frames grown from odd sines are orthonormal and mutually orthogonal:")
frame1 = build_frame(make_sine(1), k_word, 3)
frame3 = build_frame(make_sine(3), compute_K(make_sine(3), max_depth=4, tol=1e-10), 3)
print(f"  frame(s1): {len(frame1.vectors)} vectors, worst pair {frame1.max_pairwise_inner():.2e}")
print(f"  frame(s3): {len(frame3.vectors)} vectors, worst pair {frame3.max_pairwise_inner():.2e}")
print(f"  frames mutually orthogonal below 1e-10: {frames_orthogonal(frame1, frame3, 1e-10)}")
