"""Recorded-data memory for concurrent-learning update laws.

The stack holds triples (Y_k, u_k, xdot_hat_k) sampled along the trajectory,
where xdot_hat_k is a numerical estimate of the state derivative at the
sample time.  Its information content is measured by the minimum eigenvalue
of gram = sum_k Y_k^T Y_k; once that clears a threshold the recorded data
pins down the parameter vector without persistent excitation.

Insertion never lowers the minimum eigenvalue: appends add a positive
semidefinite term, and once full a candidate only replaces the entry whose
removal-and-substitution maximizes the minimum eigenvalue, and only if that
strictly improves on the current value.  A full-stack candidate is first
screened: a Rayleigh-quotient bound rules out the trial swaps that cannot
beat the current value, and only the rest go to LAPACK.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import _integral, _real
from .model import PlantModel

Array = np.ndarray
_EPS = np.finfo(float).eps


class StackEntry(NamedTuple):
    Y: Array
    u: Array
    xdot_hat: Array


def _central_difference(x_before: Array, x_after: Array, t_before: float,
                        t_after: float) -> Array:
    """State derivative at the midpoint of two samples,
    (x(t+h) - x(t-h)) / (2h), unchecked: t_after > t_before and the states
    have equal shapes."""
    return (x_after - x_before) / (t_after - t_before)


class HistoryStack:
    """Bounded stack of recorded regressor data with cached gram matrix."""

    def __init__(self, dim_state: int, dim_param: int, capacity: int,
                 min_eig_threshold: float):
        self.min_eig_threshold = _real(min_eig_threshold, "min_eig_threshold", "non-negative")
        self.dim_state = _integral(dim_state, "dim_state", 1)
        self.dim_param = _integral(dim_param, "dim_param", 1)
        self.capacity = _integral(capacity, "capacity", 0)
        self._entries: list[StackEntry] = []
        # Y_k^T Y_k and Y_k^T (xdot_hat_k - u_k) of each entry, stacked in
        # entry order, so a full-stack try_insert forms every trial gram in
        # one subtraction; gram and proj are their sums, and cl_term is
        # proj - gram @ theta
        self._grams = np.empty((0, self.dim_param, self.dim_param))
        self._projs = np.empty((0, self.dim_param))
        self._revision = 0  # bumped by every stack change, a reverted swap too
        self._recompute()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def gram(self) -> Array:
        return self._gram

    def _validate(self, Y, u, xdot_hat) -> StackEntry:
        Y = np.asarray(Y, dtype=float)
        u = np.asarray(u, dtype=float)
        xd = np.asarray(xdot_hat, dtype=float)
        if Y.shape != (self.dim_state, self.dim_param):
            raise ValueError(
                f"entry regressor has shape {Y.shape}, expected "
                f"({self.dim_state}, {self.dim_param})"
            )
        if u.shape != (self.dim_state,) or xd.shape != (self.dim_state,):
            raise ValueError("entry input and derivative must have state dimension")
        # exact on Python floats, and cheaper than three numpy reductions
        if not all(map(math.isfinite, Y.ravel().tolist() + u.tolist() + xd.tolist())):
            raise ValueError("stack entries must be finite")
        return StackEntry(Y, u, xd)

    def _recompute(self):
        """Form the state a stack change derives, on every change: the gram
        and projection sums, the excitation level and, when the stack is
        full, the swap screen (v, key, max(key)).  v is the unit
        eigenvector of the gram's smallest eigenvalue, and
        key[i] = v'Gv - |Y_i v|^2 + 1e-9 trace(G).

        Trial swap i has the gram T_i = G - G_i + C, with C = Y_c'Y_c the
        candidate's.  By Courant-Fischer its smallest eigenvalue is at most
        v'T_i v = v'Gv - |Y_i v|^2 + |Y_c v|^2, so
        key[i] + |Y_c v|^2 + 1e-9 trace(C) bounds it from above.  The slack
        1e-9 (trace(G) + trace(C)) is at least 1e-9 trace(T_i) >= 1e-9
        |T_i|_2, about six orders of magnitude above the rounding of the
        bound, of forming T_i and of eigvalsh's backward error; so
        eigvalsh returns no more than the bound plus the slack for T_i."""
        # a sum along axis 0 adds the entries in order, as a loop would
        self._gram = self._grams.sum(axis=0)
        self._proj = self._projs.sum(axis=0)
        eigs = np.linalg.eigvalsh(self._gram)
        tol = self.dim_param * _EPS * eigs[-1]
        self._min_eig = float(eigs[0]) if eigs[0] > tol else 0.0
        self._screen = None
        if 0 < len(self._entries) == self.capacity:
            v = np.linalg.eigh(self._gram)[1][:, 0]
            key = v @ self._gram @ v - (self._grams @ v) @ v + 1e-9 * self._gram.trace()
            self._screen = (v, key, float(key.max()))
        self._revision += 1

    def excitation_level(self) -> float:
        """Minimum eigenvalue of the gram matrix; 0 for an empty stack, and
        for one at or below round-off (matrix_rank's tolerance)."""
        return self._min_eig

    @property
    def assumption_met(self) -> bool:
        level = self.excitation_level()
        return level > 0.0 and level >= self.min_eig_threshold

    def try_insert(self, Y, u, xdot_hat) -> bool:
        """Insert if the stack has room, else swap against the entry whose
        replacement maximizes the minimum gram eigenvalue.  Returns whether
        the stack changed; the excitation level never decreases."""
        cand = self._validate(Y, u, xdot_hat)
        if self.capacity == 0:
            return False
        Y = cand.Y
        if len(self._entries) < self.capacity:
            self._entries.append(cand)
            self._grams = np.concatenate([self._grams, [Y.T.dot(Y)]])
            self._projs = np.concatenate([self._projs, [(cand.xdot_hat - cand.u).dot(Y)]])
            self._recompute()
            return True
        current = self.excitation_level()
        bar = current * (1.0 + 1e-12)
        # a trial whose bound (see _recompute) is at most bar computes to
        # at most bar, so it can neither win nor turn a rejection into a
        # swap: only the live trials go to eigvalsh, which returns the same
        # values for a matrix in any batch
        v, key, key_max = self._screen
        yv = Y.dot(v)
        reach = float(yv.dot(yv)) + 1e-9 * float(Y.ravel().dot(Y.ravel()))
        if key_max + reach <= bar:
            return False
        live = (key + reach > bar).nonzero()[0]
        cand_gram = Y.T.dot(Y)
        eigs = np.linalg.eigvalsh(self._gram - self._grams[live] + cand_gram)[:, 0]
        # argmax keeps the first of equally good swaps, in entry order
        best = int(eigs.argmax())
        if eigs[best] <= bar:
            return False
        best_idx = int(live[best])
        cand_proj = (cand.xdot_hat - cand.u).dot(Y)
        removed = (self._entries[best_idx], self._grams[best_idx].copy(),
                   self._projs[best_idx].copy())
        self._entries[best_idx], self._grams[best_idx], self._projs[best_idx] = (
            cand, cand_gram, cand_proj)
        self._recompute()
        # guard against trial-vs-recomputed eigenvalue drift near the margin
        if self.excitation_level() <= current:
            self._entries[best_idx], self._grams[best_idx], self._projs[best_idx] = removed
            self._recompute()
            return False
        return True

    def cl_term(self, theta_hat) -> Array:
        """sum_k Y_k^T (xdot_hat_k - u_k - Y_k theta_hat)."""
        th = np.asarray(theta_hat, dtype=float)
        if th.shape != (self.dim_param,):
            raise ValueError(
                f"theta_hat has shape {th.shape}, expected ({self.dim_param},)"
            )
        return self._proj - self._gram @ th


def write_csv(path_or_buf, header, rows) -> None:
    """Write a header line and one line per row to a path or an open text
    file.  Numbers are printed with 17 significant digits, which reads back
    as the same double; string cells are written as they are.  The line
    format is built once, from the first row: %s where it holds a string,
    %.17g elsewhere, which prints a float or an int as format(v, ".17g")
    does; every row must have the length of the first and its strings in
    the same places."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w") as fh:
            write_csv(fh, header, rows)
        return
    path_or_buf.write(",".join(header) + "\n")
    fmt = None
    for row in rows:
        if fmt is None:
            fmt = ",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) + "\n"
        path_or_buf.write(fmt % tuple(row))


def fill_with_exact_model_data(stack: HistoryStack, plant: PlantModel, states) -> int:
    """Prefill from exact model evaluations at zero input (offline
    collection with a perfect derivative sensor): xdot_hat = Y(x) theta
    identically.  Each state is offered to try_insert in turn, so a state
    that is not finite raises after the states before it are in.  Returns
    the number of accepted insertions."""
    accepted = 0
    for x in states:
        Y = plant.eval_regressor(x)
        # each entry gets its own input array; no two entries share one
        u = np.zeros(plant.dim_state)
        accepted += stack.try_insert(Y, u, Y @ plant.theta + u)
    return accepted
