"""Validated noise matrices over finite message alphabets.

A *noise matrix* (Section 1.3, item 3 of the model) is a row-stochastic
matrix ``N`` indexed by the communication alphabet ``Sigma``: when an agent
samples another agent displaying message ``sigma``, it observes ``sigma'``
with probability ``N[sigma, sigma']``, independently across observations.

Messages are represented as integers ``0 .. d-1``.  The SF protocol uses
``d = 2`` (messages are opinions); the SSF protocol uses ``d = 4`` with
message ``2*first_bit + second_bit``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import NoiseMatrixError
from ..linalg import (
    is_delta_lower_bounded,
    is_delta_uniform,
    is_delta_upper_bounded,
    minimal_upper_delta,
    validate_stochastic,
)
from ..types import RngLike, coerce_rng


class NoiseMatrix:
    """A validated stochastic noise matrix with sampling helpers.

    Parameters
    ----------
    matrix:
        A ``d x d`` row-stochastic matrix.  Row = displayed message,
        column = observed message.

    Notes
    -----
    Instances are immutable: the wrapped array has ``writeable = False``.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        array = validate_stochastic(matrix)
        array = array.copy()
        array.flags.writeable = False
        self._matrix = array
        self._cumulative = np.cumsum(array, axis=1)
        # Guard against cumulative rounding: the last column must be 1 so
        # that the inversion never falls off the end.
        self._cumulative[:, -1] = 1.0
        self._cumulative.flags.writeable = False
        # Row j holds cumulative column j for every displayed symbol: the
        # d-1 thresholds the general-d inversion compares against (the
        # last column is exactly 1.0 and never compares below a variate).
        self._thresholds = np.ascontiguousarray(self._cumulative[:, :-1].T)
        self._thresholds.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, delta: float, size: int = 2) -> "NoiseMatrix":
        """The delta-uniform matrix of Definition 1.

        Diagonal entries ``1 - (d-1)*delta``, off-diagonal entries
        ``delta``.  Requires ``0 <= delta <= 1/d``.
        """
        if size < 2:
            raise NoiseMatrixError(f"alphabet size must be >= 2, got {size}")
        if not 0.0 <= delta <= 1.0 / size:
            raise NoiseMatrixError(
                f"uniform noise requires delta in [0, 1/{size}], got {delta}"
            )
        matrix = np.full((size, size), delta, dtype=float)
        np.fill_diagonal(matrix, 1.0 - (size - 1) * delta)
        return cls(matrix)

    @classmethod
    def binary_symmetric(cls, delta: float) -> "NoiseMatrix":
        """The binary symmetric channel: a 2-letter delta-uniform matrix."""
        return cls.uniform(delta, size=2)

    @classmethod
    def identity(cls, size: int = 2) -> "NoiseMatrix":
        """The noiseless channel (delta = 0)."""
        return cls(np.eye(size))

    @classmethod
    def random_upper_bounded(
        cls, delta: float, size: int, rng: RngLike = None
    ) -> "NoiseMatrix":
        """A random delta-upper-bounded stochastic matrix.

        Each row is sampled by drawing off-diagonal entries uniformly in
        ``[0, delta]`` and putting the remaining mass on the diagonal; the
        construction guarantees Eq. (1) holds.  Used by property tests and
        the noise-reduction benchmark (experiment E8).
        """
        if size < 2:
            raise NoiseMatrixError(f"alphabet size must be >= 2, got {size}")
        if not 0.0 <= delta < 1.0 / size:
            raise NoiseMatrixError(
                f"delta-upper-bounded noise requires delta in [0, 1/{size}), got {delta}"
            )
        generator = coerce_rng(rng)
        matrix = generator.uniform(0.0, delta, size=(size, size))
        np.fill_diagonal(matrix, 0.0)
        np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
        return cls(matrix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) stochastic matrix."""
        return self._matrix

    @property
    def size(self) -> int:
        """Alphabet size ``d = |Sigma|``."""
        return self._matrix.shape[0]

    def is_uniform(self, delta: Optional[float] = None, atol: float = 1e-9) -> bool:
        """Check delta-uniformity; infers ``delta`` from the matrix if omitted."""
        if delta is None:
            delta = float(self._matrix[0, 1]) if self.size > 1 else 0.0
        return is_delta_uniform(self._matrix, delta, atol=atol)

    def is_upper_bounded(self, delta: float, atol: float = 1e-9) -> bool:
        """Check delta-upper-boundedness (Definition 1 / Eq. 1)."""
        return is_delta_upper_bounded(self._matrix, delta, atol=atol)

    def is_lower_bounded(self, delta: float, atol: float = 1e-9) -> bool:
        """Check delta-lower-boundedness (Definition 1)."""
        return is_delta_lower_bounded(self._matrix, delta, atol=atol)

    @property
    def upper_delta(self) -> Optional[float]:
        """Minimal ``delta < 1/d`` such that the matrix is upper bounded.

        ``None`` when the matrix is too noisy to be delta-upper-bounded.
        """
        return minimal_upper_delta(self._matrix)

    @property
    def uniform_delta(self) -> float:
        """For a uniform matrix, its off-diagonal ``delta``.

        Raises :class:`NoiseMatrixError` when the matrix is not uniform.
        """
        delta = float(self._matrix[0, 1]) if self.size > 1 else 0.0
        if not self.is_uniform(delta):
            raise NoiseMatrixError("matrix is not delta-uniform")
        return delta

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def corrupt(
        self, messages: np.ndarray, rng: RngLike = None, validate: bool = True
    ) -> np.ndarray:
        """Apply the channel independently to an array of messages.

        ``messages`` is an integer array of displayed symbols (any shape);
        the result has the same shape and holds the observed symbols.  The
        implementation draws one uniform variate per message and inverts
        the per-row CDF — O(len * d) vectorized work, with a Python-level
        loop over the d-1 CDF columns only, never over messages.

        ``validate=False`` skips the range scan over ``messages`` — two
        full passes that the engines, which already enforce the protocol's
        alphabet contract once per run, pay on every round otherwise.  The
        drawn variates and hence the output are identical either way.
        """
        generator = coerce_rng(rng)
        symbols = np.asarray(messages)
        if symbols.size == 0:
            return symbols.copy()
        if validate and (symbols.min() < 0 or symbols.max() >= self.size):
            raise NoiseMatrixError(
                f"messages must lie in [0, {self.size}), got range "
                f"[{symbols.min()}, {symbols.max()}]"
            )
        uniforms = generator.random(symbols.size)
        return self.corrupt_with_uniforms(symbols, uniforms)

    def corrupt_with_uniforms(
        self, messages: np.ndarray, uniforms: np.ndarray, dtype=np.int64
    ) -> np.ndarray:
        """Invert the per-row CDF for externally drawn uniform variates.

        The deterministic half of :meth:`corrupt`: given one uniform
        variate per message, return the observed symbols.  Splitting the
        draw from the inversion lets the batched engine draw per-replica
        variate blocks (preserving bit-identical per-replica streams)
        while corrupting the whole ``(R, n, h)`` batch in one call.
        ``dtype`` selects the output dtype (the batched engine asks for
        ``int8`` to quarter the observation-buffer bandwidth).

        Raises :class:`NoiseMatrixError` unless there is exactly one
        variate per message.
        """
        symbols = np.asarray(messages)
        flat = symbols.ravel()
        u = np.asarray(uniforms).ravel()
        if u.size != flat.size:
            raise NoiseMatrixError(
                f"need one uniform variate per message: got {u.size} "
                f"variates for {flat.size} messages"
            )
        if self.size == 2:
            # Binary fast path: the observed symbol is 1 exactly when the
            # variate clears the displayed symbol's P(observe 0) — the
            # same strict comparison as the general branch below.  With
            # t1 <= t0 the comparison factors into boolean algebra
            # ((u > t1) and (u > t0 or displayed 1)), which avoids
            # materializing a float64 threshold array per message — the
            # engines' hottest per-round allocation.  Results are
            # bit-identical to the general branch either way.
            t0 = self._cumulative[0, 0]  # P(observe 0 | displayed 0)
            t1 = self._cumulative[1, 0]  # P(observe 0 | displayed 1)
            if t1 <= t0:
                observed = u > t1
                observed &= (u > t0) | (flat != 0)
            else:
                observed = u > t0
                observed &= (u > t1) | (flat == 0)
            if np.dtype(dtype) == np.int8:
                # A bool array is one byte of 0/1 per element: reuse the
                # buffer instead of copying it.
                return observed.view(np.int8).reshape(symbols.shape)
            return observed.astype(dtype).reshape(symbols.shape)
        # General d: the observed symbol is the number of the displayed
        # row's CDF thresholds strictly below the variate.  Count them one
        # column at a time (a d-entry lookup and a compare per message),
        # summed in the smallest unsigned integer that holds d-1.
        index = flat.astype(np.intp, copy=False)
        observed = np.zeros(flat.size, dtype=np.min_scalar_type(self.size - 1))
        for column in self._thresholds:
            observed += column.take(index) < u
        if np.dtype(dtype) == np.int8 and observed.dtype == np.uint8:
            return observed.view(np.int8).reshape(symbols.shape)
        return observed.astype(dtype).reshape(symbols.shape)

    def observation_probabilities(self, display_distribution: np.ndarray) -> np.ndarray:
        """Distribution of a single noisy observation.

        Given the population's display distribution ``p`` (``p[sigma]`` =
        fraction of agents currently displaying ``sigma``), a uniformly
        sampled noisy observation is distributed as ``p @ N``.
        """
        p = np.asarray(display_distribution, dtype=float)
        if p.shape != (self.size,):
            raise NoiseMatrixError(
                f"display distribution must have shape ({self.size},), got {p.shape}"
            )
        if not np.isclose(p.sum(), 1.0, atol=1e-9) or p.min() < -1e-12:
            raise NoiseMatrixError("display distribution must be a probability vector")
        out = p @ self._matrix
        # Clip away negative rounding dust and renormalize exactly.
        out = np.clip(out, 0.0, None)
        return out / out.sum()

    def compose(self, other: "NoiseMatrix") -> "NoiseMatrix":
        """The channel 'self then other' (matrix product ``self @ other``)."""
        if other.size != self.size:
            raise NoiseMatrixError(
                f"cannot compose channels of sizes {self.size} and {other.size}"
            )
        return NoiseMatrix(self._matrix @ other.matrix)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoiseMatrix(size={self.size}, upper_delta={self.upper_delta})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoiseMatrix):
            return NotImplemented
        return self.size == other.size and bool(
            np.allclose(self._matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.size, self._matrix.tobytes()))
