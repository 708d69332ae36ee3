"""The noise channel's inversion, pinned three ways.

:meth:`NoiseMatrix.corrupt` is a uniform-variate draw plus the
deterministic :meth:`NoiseMatrix.corrupt_with_uniforms` inversion (with a
``validate=`` fast path).  These tests pin the contract for every matrix
family the repo ships: given the same variates the two spellings agree
bit-for-bit, on every alphabet size (the binary fast path and the
column-threshold path for d >= 3), every dtype, and every shape.  The
column-threshold path is also checked against the earlier gather of each
message's CDF row, kept here as the reference, including variates placed
exactly on a threshold.  :func:`symbol_tallies`, which turns the channel's
output into per-agent counts, is checked against the per-symbol loop it
replaced.
"""

import numpy as np
import pytest

from repro.exceptions import NoiseMatrixError
from repro.model.sampling import symbol_tallies
from repro.noise import NoiseMatrix
from repro.noise.dynamic import drifting_uniform_schedule

# One representative per matrix family: uniform (binary fast path and
# column-threshold path), identity, and heterogeneous-row
# delta-upper-bounded matrices where every row has a different CDF.
MATRICES = {
    "uniform-binary": NoiseMatrix.uniform(0.2, 2),
    "uniform-4": NoiseMatrix.uniform(0.15, 4),
    "identity-3": NoiseMatrix.identity(3),
    "heterogeneous-3": NoiseMatrix.random_upper_bounded(
        0.25, 3, np.random.default_rng(42)
    ),
    "heterogeneous-4": NoiseMatrix.random_upper_bounded(
        0.2, 4, np.random.default_rng(43)
    ),
}


def _messages(matrix: NoiseMatrix, shape, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, matrix.size, size=shape)


@pytest.mark.parametrize("name", sorted(MATRICES))
class TestCorruptEquivalence:
    def test_same_seed_same_symbols(self, name):
        """corrupt(rng) == draw uniforms from the same rng + invert."""
        matrix = MATRICES[name]
        messages = _messages(matrix, 513)
        direct = matrix.corrupt(messages, np.random.default_rng(9))
        uniforms = np.random.default_rng(9).random(messages.size)
        assert np.array_equal(
            direct, matrix.corrupt_with_uniforms(messages, uniforms)
        )

    def test_validate_flag_does_not_change_draws(self, name):
        """validate=False must consume the identical variate stream."""
        matrix = MATRICES[name]
        messages = _messages(matrix, 257, seed=1)
        checked = matrix.corrupt(messages, np.random.default_rng(5))
        unchecked = matrix.corrupt(
            messages, np.random.default_rng(5), validate=False
        )
        assert np.array_equal(checked, unchecked)

    def test_multidimensional_shapes(self, name):
        """(R, n, h)-style batches corrupt identically to the flat view."""
        matrix = MATRICES[name]
        messages = _messages(matrix, (3, 16, 5), seed=2)
        uniforms = np.random.default_rng(6).random(messages.size)
        batch = matrix.corrupt_with_uniforms(messages, uniforms)
        flat = matrix.corrupt_with_uniforms(messages.ravel(), uniforms)
        assert batch.shape == messages.shape
        assert np.array_equal(batch.ravel(), flat)

    def test_dtype_request_is_honored(self, name):
        matrix = MATRICES[name]
        messages = _messages(matrix, 64, seed=3)
        uniforms = np.random.default_rng(7).random(messages.size)
        as_int8 = matrix.corrupt_with_uniforms(
            messages, uniforms, dtype=np.int8
        )
        as_int64 = matrix.corrupt_with_uniforms(messages, uniforms)
        assert as_int8.dtype == np.int8
        assert as_int64.dtype == np.int64
        assert np.array_equal(as_int8.astype(np.int64), as_int64)


class TestValidatePath:
    def test_out_of_range_rejected_only_when_validating(self):
        matrix = NoiseMatrix.uniform(0.1, 2)
        bad = np.array([0, 1, 2])  # symbol 2 outside the binary alphabet
        with pytest.raises(NoiseMatrixError):
            matrix.corrupt(bad, np.random.default_rng(0))
        # validate=False is a caller-vouches fast path: no range scan.
        matrix.corrupt(bad % 2, np.random.default_rng(0), validate=False)

    def test_negative_symbols_rejected(self):
        matrix = NoiseMatrix.uniform(0.1, 4)
        with pytest.raises(NoiseMatrixError):
            matrix.corrupt(np.array([-1, 0]), np.random.default_rng(0))

    def test_empty_messages_round_trip(self):
        matrix = NoiseMatrix.uniform(0.1, 4)
        out = matrix.corrupt(np.array([], dtype=np.int64),
                             np.random.default_rng(0))
        assert out.size == 0


class TestDynamicSchedules:
    def test_equivalence_holds_for_every_scheduled_matrix(self):
        """Dynamic noise: the per-round matrices obey the same contract."""
        schedule = drifting_uniform_schedule(
            [0.05, 0.15, 0.25], period=2, size=2
        )
        messages = np.random.default_rng(11).integers(0, 2, size=301)
        for round_index in range(6):
            matrix = schedule.matrix_at(round_index)
            direct = matrix.corrupt(
                messages, np.random.default_rng(round_index)
            )
            uniforms = np.random.default_rng(round_index).random(
                messages.size
            )
            assert np.array_equal(
                direct, matrix.corrupt_with_uniforms(messages, uniforms)
            )

    def test_drift_actually_changes_the_matrix(self):
        schedule = drifting_uniform_schedule([0.0, 0.25], period=1, size=2)
        assert schedule.matrix_at(0) != schedule.matrix_at(1)


class TestUniformsLength:
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("count", [1, 5, 7])
    def test_one_variate_per_message_is_required(self, size, count):
        """A single variate used to broadcast over every message."""
        matrix = NoiseMatrix.uniform(0.1, size)
        messages = [0, 1, 0, 1, 1, 0]
        with pytest.raises(NoiseMatrixError, match="one uniform variate"):
            matrix.corrupt_with_uniforms(messages, np.full(count, 0.95))


def _gather_reference(matrix, messages, uniforms, dtype=np.int64):
    """The earlier general-d inversion: gather each message's CDF row as a
    ``(k, d-1)`` float matrix and count thresholds strictly below its
    variate."""
    cumulative = np.cumsum(matrix.matrix, axis=1)
    cumulative[:, -1] = 1.0
    symbols = np.asarray(messages)
    cdf_rows = cumulative[symbols.ravel(), : matrix.size - 1]
    observed = (cdf_rows < np.ravel(uniforms)[:, None]).sum(axis=1)
    return observed.reshape(symbols.shape).astype(dtype)


GENERAL_SIZES = [3, 4, 5, 8, 300]


def _general_matrix(family: str, size: int) -> NoiseMatrix:
    delta = 0.5 / size
    if family == "uniform":
        return NoiseMatrix.uniform(delta, size)
    return NoiseMatrix.random_upper_bounded(
        delta, size, np.random.default_rng(size)
    )


@pytest.mark.parametrize("size", GENERAL_SIZES)
@pytest.mark.parametrize("family", ["uniform", "random_upper_bounded"])
class TestColumnThresholdsMatchGather:
    def test_random_variates(self, family, size):
        matrix = _general_matrix(family, size)
        messages = _messages(matrix, 4099, seed=size)
        uniforms = np.random.default_rng(size + 1).random(messages.size)
        assert np.array_equal(
            matrix.corrupt_with_uniforms(messages, uniforms),
            _gather_reference(matrix, messages, uniforms),
        )

    def test_variates_on_thresholds(self, family, size):
        """Ties: a variate equal to a threshold does not pass it (strict <),
        and its float neighbours fall on either side."""
        matrix = _general_matrix(family, size)
        cumulative = np.cumsum(matrix.matrix, axis=1)
        rows = np.repeat(np.arange(size), size - 1)
        ties = cumulative[:, :-1].ravel()
        messages = np.concatenate([rows, rows, rows, np.arange(size)])
        uniforms = np.concatenate([
            ties,
            np.nextafter(ties, 0.0),
            np.nextafter(ties, 1.0),
            np.zeros(size),
        ])
        observed = matrix.corrupt_with_uniforms(messages, uniforms)
        assert np.array_equal(
            observed, _gather_reference(matrix, messages, uniforms)
        )
        # A zero variate clears no positive threshold.
        first_positive = np.argmax(cumulative > 0.0, axis=1)
        assert np.array_equal(observed[-size:], first_positive)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_batch_shapes_and_dtypes(self, family, size, dtype):
        """(R, n, h) batches with int8 or int64 messages and output."""
        matrix = _general_matrix(family, size)
        messages = _messages(matrix, (3, 16, 5), seed=size + 2)
        if size <= np.iinfo(np.int8).max:
            messages = messages.astype(dtype)
        uniforms = np.random.default_rng(size + 3).random(messages.size)
        observed = matrix.corrupt_with_uniforms(messages, uniforms, dtype=dtype)
        assert observed.shape == messages.shape
        assert observed.dtype == dtype
        assert np.array_equal(
            observed, _gather_reference(matrix, messages, uniforms, dtype)
        )


def _tally_loop(observations: np.ndarray, d: int) -> np.ndarray:
    """The per-symbol comparison loop :func:`symbol_tallies` replaced."""
    return np.stack(
        [(observations == sigma).sum(axis=1) for sigma in range(d)], axis=1
    )


class TestSymbolTallies:
    @pytest.mark.parametrize("d", [2, 4, 7])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_matches_per_symbol_loop(self, d, dtype):
        obs = np.random.default_rng(d).integers(0, d, size=(257, 16))
        obs = obs.astype(dtype)
        tallies = symbol_tallies(obs, d)
        assert tallies.shape == (257, d)
        assert tallies.dtype == np.int64
        assert np.array_equal(tallies, _tally_loop(obs, d))
        assert np.all(tallies.sum(axis=1) == 16)

    def test_zero_rows(self):
        obs = np.zeros((0, 5), dtype=np.int64)
        tallies = symbol_tallies(obs, 4)
        assert tallies.shape == (0, 4)
        assert np.array_equal(tallies, _tally_loop(obs, 4))

    def test_zero_width(self):
        obs = np.zeros((6, 0), dtype=np.int64)
        tallies = symbol_tallies(obs, 4)
        assert tallies.shape == (6, 4)
        assert not tallies.any()
