import numpy as np
import pytest

from acbound import transform
from acbound.entropy_model import ParameterError
from acbound.transform import (
    DCT_MATRIX,
    forward_dct,
    inverse_dct,
    level_shift,
    validate_pixel_block,
    zigzag_scan,
)
from references import (
    ac_ball_condition,
    ac_energy,
    cube_condition,
    integer_condition,
    zigzag_unscan,
)


def random_blocks(rng, n):
    return rng.integers(-128, 128, size=(n, 8, 8), dtype=np.int64)


class TestDctMatrix:
    def test_orthogonality(self):
        residual = np.abs(DCT_MATRIX @ DCT_MATRIX.T - np.eye(8)).max()
        assert residual <= 1e-12
        residual = np.abs(DCT_MATRIX.T @ DCT_MATRIX - np.eye(8)).max()
        assert residual <= 1e-12

    def test_energy_preservation(self, rng):
        blocks = random_blocks(rng, 1000).astype(np.float64)
        coeffs = np.einsum("xu,nxy,yv->nuv", DCT_MATRIX, blocks, DCT_MATRIX, optimize=True)
        gap = np.abs((blocks ** 2).sum(axis=(1, 2)) - (coeffs ** 2).sum(axis=(1, 2)))
        assert gap.max() <= 1e-6


class TestForwardInverse:
    def test_flat_darkest_block(self):
        F = forward_dct(np.full((8, 8), -128, dtype=np.int64))
        assert F[0, 0] == pytest.approx(-1024, abs=1e-9)
        assert np.abs(F).sum() - abs(F[0, 0]) <= 1e-9

    def test_zero_block(self):
        assert np.abs(forward_dct(np.zeros((8, 8), dtype=np.int64))).max() <= 1e-12

    def test_round_trip(self, rng):
        worst = 0.0
        for block in random_blocks(rng, 500):
            back = inverse_dct(forward_dct(block))
            worst = max(worst, np.abs(back - block).max())
        assert worst <= 1e-9

    def test_dc_basis(self):
        F = np.zeros((8, 8))
        F[0, 0] = -1024
        assert np.abs(inverse_dct(F) + 128).max() <= 1e-9

    def test_inverse_of_zero(self):
        assert np.abs(inverse_dct(np.zeros((8, 8)))).max() == 0


class TestZigzag:
    def test_round_trip(self, rng):
        grid = rng.integers(0, 100, size=(8, 8))
        assert (zigzag_unscan(zigzag_scan(grid)) == grid).all()

    def test_chroma_table_listing(self):
        # zigzag of the chrominance example table starts 17 then
        # 18,18,24,21,24,47,26,26,47,99,66,56,66,99 at k=1..14
        from acbound.quantization import K2_CHROMINANCE
        zig = zigzag_scan(np.array(K2_CHROMINANCE).reshape(8, 8))
        assert zig[0] == 17
        assert list(zig[1:15]) == [18, 18, 24, 21, 24, 47, 26, 26, 47, 99, 66, 56, 66, 99]

    def test_permutation_is_bijection(self):
        assert sorted(transform.RASTER_OF_ZIGZAG) == list(range(64))
        assert sorted(transform.ZIGZAG_OF_RASTER) == list(range(64))


class TestMembership:
    def test_ac_ball_strict_for_pixel_blocks(self, rng):
        blocks = random_blocks(rng, 100_000).astype(np.float64)
        K = DCT_MATRIX
        coeffs = np.einsum("xu,nxy,yv->nuv", K, blocks, K, optimize=True)
        energy = (coeffs ** 2).sum(axis=(1, 2)) - coeffs[:, 0, 0] ** 2
        assert energy.max() < 2.0 ** 20

    def test_ac_ball_boundary(self):
        F = np.zeros((8, 8))
        F[0, 1] = 1024.0
        assert not ac_ball_condition(F)
        F[0, 1] = 1023.9
        assert ac_ball_condition(F)

    def test_ac_energy_ignores_dc(self):
        F = np.zeros((8, 8))
        F[0, 0] = 5000.0
        assert ac_energy(F) == 0
        assert ac_ball_condition(F)

    def test_cube_condition(self, rng):
        for block in random_blocks(rng, 50):
            assert cube_condition(forward_dct(block))
        too_big = np.zeros((8, 8))
        too_big[0, 0] = 2048.0
        assert not cube_condition(too_big)
        boundary = np.zeros((8, 8))
        boundary[0, 0] = 1024.0  # constant +128, inside the printed bound
        assert cube_condition(boundary)

    def test_integer_condition(self, rng):
        for block in random_blocks(rng, 20):
            assert integer_condition(forward_dct(block), 1e-6)
        assert integer_condition(np.zeros((8, 8)), 1e-9)
        assert not integer_condition(np.full((8, 8), 0.5), 1e-6)
        with pytest.raises(ValueError):
            integer_condition(np.zeros((8, 8)), 0.0)


class TestValidation:
    def test_level_shift(self):
        raw = np.arange(64).reshape(8, 8) * 4
        shifted = level_shift(raw)
        assert shifted.min() == -128
        assert (shifted == raw - 128).all()
        with pytest.raises(ParameterError):
            level_shift(np.full((8, 8), 256))

    def test_pixel_block_bounds(self):
        with pytest.raises(ParameterError):
            validate_pixel_block(np.full((8, 8), 128, dtype=np.int64))
        with pytest.raises(ParameterError):
            validate_pixel_block(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(ParameterError):
            validate_pixel_block(np.zeros((8, 8)))  # floats rejected
