"""Masses, entropy numbers, the chain rule, and best-basis selection."""

import json
import math
import random

import pytest

from cuntz_bases.basis import walsh
from cuntz_bases.cli import main
from cuntz_bases.dyadic import DyadicStep, MultiIndex
from cuntz_bases.entropy import (
    ZERO_MASS,
    best_basis,
    build_entropy_tree,
    entropy,
    onb_entropy,
    projection_masses,
    verify_entropy_recursion,
)
from cuntz_bases.operators import s_apply
from cuntz_bases.trig import make_sine

LN2 = math.log(2)


def _nlogn(mass) -> float:
    """The entropy term of one exact or float mass, as the tree computed it
    from Fraction masses: the reference for its integer levels."""
    if mass <= ZERO_MASS:  # exact: a Fraction compares with a float exactly
        return 0.0
    mass = float(mass)
    return -mass * math.log(mass) + 0.0


def random_unit_mixture(rng, level):
    """Random nonzero integer step at the given level (normalized internally
    by the entropy machinery)."""
    while True:
        f = DyadicStep(level, [rng.randint(-5, 5) for _ in range(1 << level)])
        if not f.normalize().is_zero():
            return f


class TestMasses:
    def test_constant_all_on_first_branch(self):
        masses = projection_masses(walsh(0), 1)
        assert masses[MultiIndex((0,))] == pytest.approx(1.0)
        assert masses[MultiIndex((1,))] == pytest.approx(0.0)

    def test_even_mixture(self):
        f = walsh(0) + walsh(1)  # normalization happens inside
        masses = projection_masses(f, 1)
        assert masses[MultiIndex((0,))] == pytest.approx(0.5)
        assert masses[MultiIndex((1,))] == pytest.approx(0.5)

    def test_odd_sine_mass_on_flip_branch(self):
        masses = projection_masses(make_sine(1), 1)
        assert masses[MultiIndex((0,))] == pytest.approx(0.0, abs=1e-12)
        assert masses[MultiIndex((1,))] == pytest.approx(1.0, abs=1e-10)

    def test_partition_of_unity_each_level(self):
        rng = random.Random(51)
        f = random_unit_mixture(rng, 5)
        for k in (1, 2, 3, 4):
            assert sum(projection_masses(f, k).values()) == pytest.approx(1.0, abs=1e-12)

    def test_children_refine_parent(self):
        rng = random.Random(53)
        f = random_unit_mixture(rng, 5)
        tree = build_entropy_tree(f, 4)
        for word, mass in tree.masses.items():
            if len(word) < 4:
                assert mass == pytest.approx(
                    tree.masses[word + (0,)] + tree.masses[word + (1,)], abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            projection_masses(DyadicStep.zero(), 1)


class TestEntropy:
    def test_concentrated_zero(self):
        assert entropy(walsh(0), 1) == 0.0

    def test_even_pair(self):
        assert entropy(walsh(0) + walsh(1), 1) == pytest.approx(LN2, abs=1e-12)

    def test_four_way_uniform(self):
        f = walsh(0) + walsh(1) + walsh(2) + walsh(3)
        assert entropy(f, 2) == pytest.approx(2 * LN2, abs=1e-12)

    def test_range(self):
        rng = random.Random(57)
        for _ in range(10):
            f = random_unit_mixture(rng, 4)
            for k in (1, 2, 3):
                assert -1e-12 <= entropy(f, k) <= k * LN2 + 1e-12

    def test_branch_label_permutation_invariance(self):
        rng = random.Random(59)
        f = random_unit_mixture(rng, 4)
        half = len(f.coeffs) // 2
        swapped = DyadicStep(f.level, f.coeffs[half:] + f.coeffs[:half])
        for k in (1, 2, 3):
            assert entropy(f, k) == pytest.approx(entropy(swapped, k), abs=1e-12)


class TestChainRule:
    def test_random_steps(self):
        rng = random.Random(61)
        worst = 0.0
        for _ in range(100):
            f = random_unit_mixture(rng, 6)
            for k in (1, 2, 3, 4):
                report = verify_entropy_recursion(f, k)
                assert report.passed, report
                worst = max(worst, report.max_violation)
        assert worst < 1e-12

    def test_gap_equal_to_tol_passes(self):
        # the one pass rule of every report is worst <= tol, not worst < tol
        f = random_unit_mixture(random.Random(61), 6)
        gap = verify_entropy_recursion(f, 4).max_violation
        assert gap > 0
        at_gap = verify_entropy_recursion(f, 4, tol=gap)
        assert at_gap.passed and at_gap.witness is None and at_gap.checked == 1
        below = verify_entropy_recursion(f, 4, tol=gap / 2)
        assert not below.passed and below.max_violation == gap
        assert below.witness.startswith("lhs=")

    def test_constant_trivial(self):
        report = verify_entropy_recursion(walsh(0), 2)
        assert report.passed and report.max_violation < 1e-15

    def test_single_branch_shifts_depth(self):
        rng = random.Random(67)
        g = random_unit_mixture(rng, 4)
        f = s_apply(0, g)
        for k in (1, 2, 3):
            assert entropy(f, k + 1) == pytest.approx(entropy(g, k), abs=1e-12)


class TestOnbEntropy:
    def test_single_coefficient(self):
        assert onb_entropy([0, 0, 0, 0, 0, 1]) == 0.0

    def test_even_pair(self):
        v = 1 / math.sqrt(2)
        assert onb_entropy([v, v]) == pytest.approx(LN2, abs=1e-12)

    def test_basis_dependence(self):
        # the same vector has entropy ln 2 in one basis and 0 in a rotated one
        v = 1 / math.sqrt(2)
        assert onb_entropy([v, v, 0, 0]) == pytest.approx(LN2, abs=1e-12)
        assert onb_entropy([1, 0, 0, 0]) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            onb_entropy([1, 1])


def all_antichains(word, depth):
    """Every leaf antichain of the binary tree rooted at word (exhaustive)."""
    yield [word]
    if depth > 0:
        for left in all_antichains(word + (0,), depth - 1):
            for right in all_antichains(word + (1,), depth - 1):
                yield left + right


class TestBestBasis:
    def test_flat_function_keeps_root(self):
        leaves, cost = best_basis(walsh(0), 3)
        assert [w.digits for w in leaves] == [()]
        assert cost == 0.0

    def test_depth_zero_keeps_root_of_step_and_hybrid(self):
        for f in (DyadicStep(2, [1, -2, 3, 4]), make_sine(1)):
            assert best_basis(f, 0) == ((MultiIndex(()),), 0.0)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_zero_step_raises_at_every_depth(self, depth):
        zero = DyadicStep(1, [0, 0])
        for analyze in (best_basis, build_entropy_tree, entropy):
            with pytest.raises(ValueError, match="cannot analyze the zero function"):
                analyze(zero, depth)

    def test_single_branch_structure(self):
        # two-mass mixture pushed into branch 0: the split happens at the
        # root and then once more inside branch 0, as hand computation shows
        g = walsh(0) + walsh(1)
        f = s_apply(0, g)
        leaves, cost = best_basis(f, 2)
        assert cost <= entropy(f, 2) + 1e-12
        assert sum(1 for w in leaves if w.digits[:1] == (1,)) <= 1

    def test_matches_exhaustive_search(self):
        rng = random.Random(71)
        for _ in range(10):
            f = random_unit_mixture(rng, 4)
            tree = build_entropy_tree(f, 3)
            best_exhaustive = min(
                sum(-tree.masses[w] * math.log(tree.masses[w])
                    if tree.masses[w] > 1e-15 else 0.0 for w in chain)
                for chain in all_antichains((), 3))
            _, cost = best_basis(f, 3)
            assert cost == pytest.approx(best_exhaustive, abs=1e-12)

    def test_beats_uniform_partitions(self):
        rng = random.Random(73)
        for _ in range(10):
            f = random_unit_mixture(rng, 5)
            _, cost = best_basis(f, 5)
            for k in (1, 2, 3, 4, 5):
                assert cost <= entropy(f, k) + 1e-12

    def test_leaves_partition_unity(self):
        rng = random.Random(79)
        f = random_unit_mixture(rng, 5)
        tree = build_entropy_tree(f, 4)
        assert sum(tree.masses[w.digits] for w in tree.best_leaves) == pytest.approx(1.0, abs=1e-12)


class TestTreeSerialization:
    def test_rows_ordered_and_complete(self):
        tree = build_entropy_tree(walsh(0) + walsh(3), 3)
        rows = list(tree.rows())
        assert len(rows) == 1 + 2 + 4 + 8  # 2^(depth+1) - 1 nodes
        words = [w.digits for w, *_ in rows]
        assert words == sorted(words, key=lambda d: (len(d), MultiIndex(d).code))

    def test_json_shape(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        src.write_text("".join(f"{v}\n" for v in walsh(1).coeffs), encoding="utf-8")
        assert main(["entropy", "--input", str(src), "--depth", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"depth", "nodes", "levelEntropy", "bestCost"}
        assert len(data["levelEntropy"]) == 2
        tree = build_entropy_tree(walsh(1), 2)
        assert data == {"depth": 2, "levelEntropy": list(tree.level_entropy),
                        "bestCost": tree.best_cost,
                        "nodes": [{"word": str(w), "mass": float(m), "entropy": e, "bestLeaf": b}
                                  for w, m, e, b in tree.rows()]}

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_output_matches_word_sorted_oracle(self, tmp_path, capsys, depth):
        # rows, levels, leaves and JSON as they were computed from MultiIndex
        # words: rows sorted by the validated sort key, level sums in the
        # masses' insertion order, the antichain recursion on digit tuples
        rng = random.Random(4099)
        samples = [rng.randint(-9, 9) for _ in range(1 << 12)]
        f = DyadicStep(12, samples)
        tree = build_entropy_tree(f, depth)
        masses = tree.masses
        terms = [[] for _ in range(depth + 1)]
        for w, m in masses.items():
            terms[len(w)].append(_nlogn(m))
        assert tree.level_entropy == tuple(sum(t) for t in terms[1:])

        def antichain(word, depth_left):
            keep = _nlogn(masses[word])
            if depth_left == 0 or masses[word] <= ZERO_MASS:
                return [word], keep
            left, cl = antichain(word + (0,), depth_left - 1)
            right, cr = antichain(word + (1,), depth_left - 1)
            return ([word], keep) if keep <= cl + cr else (left + right, cl + cr)

        leaves, cost = antichain((), depth)
        assert [w.digits for w in tree.best_leaves] == leaves and tree.best_cost == cost
        words = sorted((MultiIndex(w) for w in masses), key=lambda w: w.sort_key)
        best = set(leaves)
        rows = [(w, masses[w.digits], _nlogn(masses[w.digits]), w.digits in best)
                for w in words]
        assert list(tree.rows()) == rows
        oracle = {"depth": depth,
                  "nodes": [{"word": str(w), "mass": float(m), "entropy": e, "bestLeaf": b}
                            for w, m, e, b in rows],
                  "levelEntropy": list(tree.level_entropy), "bestCost": cost}
        src = tmp_path / "sig.csv"
        src.write_text("".join(f"{v}\n" for v in samples), encoding="utf-8")
        assert main(["entropy", "--input", str(src), "--depth", str(depth),
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
