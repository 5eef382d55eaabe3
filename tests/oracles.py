"""Independent reference implementations used only by the tests.

Everything here is written in the most literal style available (explicit
loops, ``Fraction`` rates, stdlib ``bisect``/``statistics``) so that a bug
would have to be made twice, in two different shapes, to slip through.  The
only deliberate overlap with the library is the midpoint formula of the
candidate grid, which is part of the contract and must match bit-for-bit.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# threshold-sweep metrics


def midpoint_grid(values):
    """Candidate thresholds: midpoints of distinct sorted values + sentinels."""
    xs = sorted({float(v) for v in values})
    grid = [xs[0] - 1.0]
    for lo, hi in zip(xs, xs[1:]):
        mid = lo + (hi - lo) / 2.0
        # a midpoint rounded onto lo (adjacent floats) or overflowed: hi splits alike
        grid.append(mid if lo < mid <= hi else hi)
    grid.append(xs[-1] + 1.0)
    return sorted(set(grid))


def count_ge(sorted_scores, tau):
    return len(sorted_scores) - bisect_left(sorted_scores, tau)


def count_lt(sorted_scores, tau):
    return bisect_left(sorted_scores, tau)


def rate_ge(scores, tau) -> Fraction:
    return Fraction(count_ge(sorted(scores), tau), len(scores))


def rate_lt(scores, tau) -> Fraction:
    return Fraction(count_lt(sorted(scores), tau), len(scores))


def threshold_at_fmr(nonmated, target):
    """Smallest grid threshold with an exact-rational FMR <= target."""
    xs = sorted(nonmated)
    want = Fraction(float(target))
    for tau in midpoint_grid(xs):
        if Fraction(count_ge(xs, tau), len(xs)) <= want:
            return tau
    raise AssertionError("the above-max sentinel is always feasible")


def d_eer(bonafide, attack):
    """Exhaustive sweep over the pooled grid, first minimal |APCER - BPCER|."""
    bona, att = sorted(bonafide), sorted(attack)
    best_gap = None
    best = None
    for tau in midpoint_grid(bona + att):
        a = Fraction(count_ge(att, tau), len(att))
        b = Fraction(count_lt(bona, tau), len(bona))
        gap = abs(a - b)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = (float((a + b) / 2), tau)
    return best


def bpcer_at_apcer(bonafide, attack, target):
    bona, att = sorted(bonafide), sorted(attack)
    want = Fraction(float(target))
    for tau in midpoint_grid(att):
        if Fraction(count_ge(att, tau), len(att)) <= want:
            return float(Fraction(count_lt(bona, tau), len(bona))), tau
    raise AssertionError("the above-max sentinel is always feasible")


def det_points(positives, negatives):
    """(threshold, x_rate, y_rate) triples over the pooled grid."""
    pos, neg = sorted(positives), sorted(negatives)
    out = []
    for tau in midpoint_grid(pos + neg):
        x = Fraction(count_ge(neg, tau), len(neg))
        y = Fraction(count_lt(pos, tau), len(pos))
        out.append((tau, float(x), float(y)))
    return out


# ---------------------------------------------------------------------------
# depth variance


def dv_reference(depth_values, landmark_points, min_valid):
    """stdlib recomputation of the depth-variance score (or None if too few)."""
    height = len(depth_values)
    width = len(depth_values[0])
    picked = []
    for x, y in landmark_points:
        col = math.floor(float(x) + 0.5)
        row = math.floor(float(y) + 0.5)
        if not (0 <= col < width and 0 <= row < height):
            continue
        value = int(depth_values[row][col])
        if value != 0:
            picked.append(value)
    if len(picked) < min_valid:
        return None
    return statistics.pstdev(picked), len(picked)


# ---------------------------------------------------------------------------
# fusion


def fuse_reference(ids_a, scores_a, ids_b, scores_b, w_a, w_b):
    """Dict-based min-max fusion; returns fused scores in a's order."""
    lo_a, hi_a = min(scores_a), max(scores_a)
    lo_b, hi_b = min(scores_b), max(scores_b)

    def norm(s, lo, hi):
        if hi == lo:
            return 0.5
        return min(max((s - lo) / (hi - lo), 0.0), 1.0)

    by_id_b = dict(zip(ids_b, scores_b))
    return [
        w_a * norm(sa, lo_a, hi_a) + w_b * norm(by_id_b[i], lo_b, hi_b)
        for i, sa in zip(ids_a, scores_a)
    ]


# ---------------------------------------------------------------------------
# one-class SVM dual


def project_box_simplex(v, c):
    """Euclidean projection onto {a : 0 <= a_i <= c, sum(a) = 1} by bisection."""
    v = np.asarray(v, dtype=np.float64)
    lo = float(v.min()) - c - 1.0  # everything clips to c: sum = n*c >= 1
    hi = float(v.max())  # everything clips to 0: sum = 0 <= 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, c).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    out = np.clip(v - 0.5 * (lo + hi), 0.0, c)
    # exact simplex repair: spread the residual over strictly interior entries
    gap = 1.0 - out.sum()
    interior = (out > 0.0) & (out < c)
    if interior.any():
        out[interior] += gap / interior.sum()
    return np.clip(out, 0.0, c)


def dual_objective(q, alpha):
    return 0.5 * float(alpha @ q @ alpha)


def _active_set_polish(q, alpha, c):
    """Exact equality-constrained solve on the active set guessed from alpha."""
    n = alpha.size
    margin = 1e-7 * c
    at_zero = alpha <= margin
    at_c = alpha >= c - margin
    free = ~(at_zero | at_c)
    fixed = np.where(at_c, c, 0.0)
    budget = 1.0 - fixed.sum()
    if not free.any():
        if abs(budget) > 1e-12:
            return None
        return fixed
    f = np.flatnonzero(free)
    q_ff = q[np.ix_(f, f)]
    rhs_lin = -q[np.ix_(f, np.flatnonzero(at_c))].sum(axis=1) * c
    k = f.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = q_ff
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.concatenate([rhs_lin, [budget]])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    alpha_f = solution[:k]
    if (alpha_f < -1e-9).any() or (alpha_f > c + 1e-9).any():
        return None
    polished = fixed.copy()
    polished[f] = np.clip(alpha_f, 0.0, c)
    if abs(polished.sum() - 1.0) > 1e-9:
        return None
    # final exact repair of the simplex constraint
    polished[f] += (1.0 - polished.sum()) / k
    if (polished < -1e-12).any() or (polished > c + 1e-12).any():
        return None
    return np.clip(polished, 0.0, c)


def ocsvm_dual_oracle(x, nu, max_steps=30000):
    """FISTA projected gradient on the one-class dual, plus active-set polish.

    Returns ``(alpha, objective)`` with ``objective = min`` over the FISTA
    iterate and the polished candidate.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    c = 1.0 / (nu * n)
    q = x @ x.T
    lips = float(np.linalg.eigvalsh(q)[-1])
    step = 1.0 / lips if lips > 0.0 else 1.0
    alpha = project_box_simplex(np.full(n, 1.0 / n), c)
    carry = alpha.copy()
    t = 1.0
    best = alpha.copy()
    best_obj = dual_objective(q, alpha)
    last_progress = 0
    for k in range(max_steps):
        grad = q @ carry
        nxt = project_box_simplex(carry - step * grad, c)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        carry = nxt + ((t - 1.0) / t_next) * (nxt - alpha)
        moved = float(np.abs(nxt - alpha).max())
        alpha = nxt
        t = t_next
        obj = dual_objective(q, alpha)
        if obj < best_obj - 1e-13 * max(abs(best_obj), 1e-30):
            last_progress = k
        if obj < best_obj:
            best_obj = obj
            best = alpha.copy()
        elif obj > best_obj:  # momentum overshoot: restart
            carry = best.copy()
            alpha = best.copy()
            t = 1.0
        if moved < 1e-14 and k > 50:
            break
        if k - last_progress > 400:  # no measurable descent in 400 steps
            break
    polished = _active_set_polish(q, best, c)
    if polished is not None:
        pol_obj = dual_objective(q, polished)
        if pol_obj < best_obj:
            return polished, pol_obj
    return best, best_obj


def dual_grid_search_2d(x, nu, steps=100001):
    """Dense grid search over the n=2 dual simplex (alpha2 = 1 - alpha1)."""
    x = np.asarray(x, dtype=np.float64)
    assert x.shape[0] == 2
    c = 1.0 / (nu * 2)
    q = x @ x.T
    best = None
    best_obj = None
    for a1 in np.linspace(0.0, 1.0, steps):
        a2 = 1.0 - a1
        if not (0.0 <= a1 <= c and 0.0 <= a2 <= c):
            continue
        alpha = np.array([a1, a2])
        obj = dual_objective(q, alpha)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = alpha
    return best, best_obj


# ---------------------------------------------------------------------------
# counter-based random stream (scalar reference)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_uniforms(seed: int, tag: int, count: int) -> list[float]:
    """First ``count`` uniforms of the tagged stream, via pure-int arithmetic."""
    base = mix64((seed ^ tag) & _MASK)
    out = []
    for k in range(1, count + 1):
        bits = mix64((base + k * _GOLDEN) & _MASK)
        out.append((bits >> 11) * 2.0**-53)
    return out


def stream_normals(seed: int, tag: int, count: int) -> list[float]:
    """Box-Muller on uniform pairs, mirroring the library's draw order."""
    pairs = (count + 1) // 2
    u = stream_uniforms(seed, tag, 2 * pairs)
    out = []
    for k in range(pairs):
        radius = math.sqrt(-2.0 * math.log1p(-u[2 * k]))
        angle = 2.0 * math.pi * u[2 * k + 1]
        out.append(radius * math.cos(angle))
        out.append(radius * math.sin(angle))
    return out[:count]
