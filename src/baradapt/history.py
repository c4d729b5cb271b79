"""Recorded-data memory for concurrent-learning update laws.

The stack holds triples (Y_k, u_k, xdot_hat_k) sampled along the trajectory,
where xdot_hat_k is a numerical estimate of the state derivative at the
sample time.  Its information content is measured by the minimum eigenvalue
of gram = sum_k Y_k^T Y_k; once that clears a threshold the recorded data
pins down the parameter vector without persistent excitation.

Insertion never lowers the minimum eigenvalue: appends add a positive
semidefinite term, and once full a candidate only replaces the entry whose
removal-and-substitution maximizes the minimum eigenvalue, and only if that
strictly improves on the current value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InsufficientWindow
from .model import PlantModel

Array = np.ndarray


class StackEntry(NamedTuple):
    Y: Array
    u: Array
    xdot_hat: Array


def estimate_state_derivative(times, states) -> Array:
    """Central difference at the window midpoint:
    (x(t+h) - x(t-h)) / (2h) from >= 3 equally spaced samples."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(states, dtype=float)
    if t.ndim != 1 or len(t) < 3:
        raise InsufficientWindow("derivative estimation needs at least 3 samples")
    if x.shape[0] != len(t):
        raise ValueError("times and states disagree in length")
    steps = np.diff(t)
    h = steps[0]
    if h <= 0 or np.any(np.abs(steps - h) > 1e-6 * abs(h)):
        raise ValueError("samples must be equally spaced in time")
    mid = len(t) // 2
    return (x[mid + 1] - x[mid - 1]) / (t[mid + 1] - t[mid - 1])


class HistoryStack:
    """Bounded stack of recorded regressor data with cached gram matrix."""

    def __init__(self, dim_state: int, dim_param: int, capacity: int = 20,
                 min_eig_threshold: float = 1e-3):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if min_eig_threshold < 0:
            raise ValueError("min_eig_threshold must be non-negative")
        self.dim_state = int(dim_state)
        self.dim_param = int(dim_param)
        self.capacity = int(capacity)
        self.min_eig_threshold = float(min_eig_threshold)
        self._entries: list[StackEntry] = []
        self._entry_grams: list[Array] = []  # Y_k^T Y_k, parallel to _entries
        self._gram = np.zeros((self.dim_param, self.dim_param))
        # cached sum_k Y_k^T (xdot_hat_k - u_k); cl_term is this minus gram @ theta
        self._proj = np.zeros(self.dim_param)
        self._min_eig: float | None = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[StackEntry, ...]:
        return tuple(self._entries)

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
        if not (np.isfinite(Y).all() and np.isfinite(u).all() and np.isfinite(xd).all()):
            raise ValueError("stack entries must be finite")
        return StackEntry(Y, u, xd)

    def _recompute(self):
        gram = np.zeros((self.dim_param, self.dim_param))
        proj = np.zeros(self.dim_param)
        for ent, ent_gram in zip(self._entries, self._entry_grams):
            gram += ent_gram
            proj += ent.Y.T @ (ent.xdot_hat - ent.u)
        self._gram = gram
        self._proj = proj
        self._min_eig = None

    def excitation_level(self) -> float:
        """Minimum eigenvalue of the gram matrix (0 for an empty stack)."""
        if self._min_eig is None:
            self._min_eig = max(float(np.linalg.eigvalsh(self._gram)[0]), 0.0)
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
        cand_gram = cand.Y.T @ cand.Y
        if len(self._entries) < self.capacity:
            self._entries.append(cand)
            self._entry_grams.append(cand_gram)
            self._recompute()
            return True
        current = self.excitation_level()
        # every trial swap at once: one batched eigvalsh over the stacked
        # grams; argmax keeps the first of equally good swaps
        trials = self._gram - np.array(self._entry_grams) + cand_gram
        eigs = np.linalg.eigvalsh(trials)[:, 0]
        best_idx = int(np.argmax(eigs))
        if eigs[best_idx] <= current * (1.0 + 1e-12):
            return False
        removed = self._entries[best_idx], self._entry_grams[best_idx]
        self._entries[best_idx], self._entry_grams[best_idx] = cand, cand_gram
        self._recompute()
        # guard against trial-vs-recomputed eigenvalue drift near the margin
        if self.excitation_level() <= current:
            self._entries[best_idx], self._entry_grams[best_idx] = removed
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
        if not self._entries:
            return np.zeros(self.dim_param)
        return self._cl_term(th)

    def _cl_term(self, th: Array) -> Array:
        """cl_term from the cached sums, unchecked: th must have length
        dim_param and the stack must be non-empty."""
        return self._proj - self._gram @ th

    def to_csv(self, path_or_buf) -> None:
        """Dump entries as rows: index, Y flattened row-major, u, xdot_hat."""
        n, p = self.dim_state, self.dim_param
        header = (
            ["k"]
            + [f"Y{i + 1}{j + 1}" for i in range(n) for j in range(p)]
            + [f"u{i + 1}" for i in range(n)]
            + [f"xdot_hat{i + 1}" for i in range(n)]
        )
        rows = [np.concatenate([[float(k)], ent.Y.ravel(), ent.u, ent.xdot_hat])
                for k, ent in enumerate(self._entries)]
        write_csv(path_or_buf, header, rows)


def write_csv(path_or_buf, header, rows) -> None:
    """Write a header line and one line per row to a path or an open text
    file.  Numbers are printed with 17 significant digits, which reads back
    as the same double; string cells are written as they are."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w") as fh:
            write_csv(fh, header, rows)
        return
    path_or_buf.write(",".join(header) + "\n")
    for row in rows:
        path_or_buf.write(",".join(
            [v if isinstance(v, str) else format(v, ".17g") for v in row]
        ) + "\n")


def fill_with_exact_model_data(stack: HistoryStack, plant: PlantModel, states) -> int:
    """Prefill from exact model evaluations at zero input (offline
    collection with a perfect derivative sensor): xdot_hat = Y(x) theta
    identically.  Returns the number of accepted insertions."""
    accepted = 0
    for x in states:
        Y = plant.eval_regressor(x)
        # each entry gets its own input array; no two entries share one
        u = np.zeros(plant.dim_state)
        if stack.try_insert(Y, u, Y @ plant.theta + u):
            accepted += 1
    return accepted
