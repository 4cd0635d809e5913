"""The bracket table of the inverse-CDF normals, and when it is built.

``rng.normal_brackets`` must bracket ``normals_from_uniforms`` wherever a
draw can fall: at the grid points ``k / 4096``, where a cell starts, a few
ulps on either side of each, at the clamped ends (an exact 0.0 and the
largest draw, ``1 - 2**-53``) and on 10^7 Philox draws.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from noma_uplink import rng
from noma_uplink.rng import normal_brackets, normals_from_uniforms, trial_stream

_SRC = str(Path(rng.__file__).parents[1])


def outside(u):
    """Draws ``u`` whose normal lies outside its bracket ``[mid - rad, mid + rad]``."""
    z = normals_from_uniforms(u)
    mid, rad = normal_brackets(u)
    return u[np.abs(z - mid) > rad]


def test_each_cell_brackets_its_grid_points_exactly():
    # In exact arithmetic mid - rad <= Z_k and Z_{k+1} <= mid + rad, where
    # Z_k is the normal of the draw k / 4096, clamped as a draw is.
    mid, rad = rng._bracket_table()
    assert mid.shape == rad.shape == (rng._CELLS,)
    grid = np.arange(rng._CELLS + 1) / rng._CELLS
    grid[-1] = 1.0 - 2.0**-53
    z = normals_from_uniforms(grid)
    for k in range(rng._CELLS):
        m, q = Fraction(float(mid[k])), Fraction(float(rad[k]))
        assert m - q <= Fraction(float(z[k])) and Fraction(float(z[k + 1])) <= m + q
        assert q >= rng._BRACKET_SLACK * abs(m)


def test_brackets_hold_at_grid_points_and_their_neighbours():
    grid = np.arange(rng._CELLS) / rng._CELLS
    near = [grid]
    up, down = grid, grid
    for _ in range(4):
        up, down = np.nextafter(up, 1.0), np.nextafter(down, 0.0)
        near += [up, down]
    u = np.concatenate(near)
    u = u[(u >= 0.0) & (u < 1.0)]
    assert len(outside(u)) == 0


def test_brackets_hold_at_the_clamped_ends():
    # an exact 0.0 gives the normal of 2**-54, in the first cell
    u = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52])
    assert len(outside(u)) == 0
    assert np.array_equal((u * rng._CELLS).astype(int), [0, 0, rng._CELLS - 1, rng._CELLS - 1])


def test_brackets_hold_on_ten_million_draws():
    gen = trial_stream(20261021)
    for _ in range(10):
        assert len(outside(gen.random(1_000_000))) == 0


def test_brackets_read_any_memory_order():
    u = trial_stream(5).random((300, 16))
    mid, rad = normal_brackets(u[:, 2:14])
    for rows in (np.asfortranarray(u)[:, 2:14], np.ascontiguousarray(u[:, 2:14])):
        m, q = normal_brackets(rows)
        assert np.array_equal(m, mid) and np.array_equal(q, rad)
    assert mid.flags.c_contiguous and rad.flags.c_contiguous


def test_the_table_is_read_only():
    mid, rad = rng._bracket_table()
    for a in (mid, rad):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_the_table_is_built_by_the_first_ml_point_only():
    # Import, a bound and a SIC point leave the table unbuilt; an ML point
    # builds it. Run in a fresh interpreter, where nothing has built it yet.
    script = (
        "import noma_uplink as nu\n"
        "from noma_uplink import rng\n"
        "built = lambda: rng._bracket_table.cache_info().currsize\n"
        "states = [built()]\n"
        "nu.union_bound_value(nu.build_constellation('qam16'), 0.7, 0.01)\n"
        "states.append(built())\n"
        "cfg = nu.SimConfig(detector='sic', max_codewords=100)\n"
        "nu.run_ber_point(cfg, 0.9, 20.0)\n"
        "states.append(built())\n"
        "nu.run_ber_point(nu.SimConfig(max_codewords=100), 0.9, 20.0)\n"
        "states.append(built())\n"
        "print(states)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": _SRC})
    assert out.stdout.split() == ["[0,", "0,", "0,", "1]"]


def test_a_bound_run_of_the_cli_builds_no_table(tmp_path):
    script = (
        "import sys\n"
        "from noma_uplink import cli, rng\n"
        "cli.main(['bound', '--constellation', 'qpsk', '--alpha-grid', '0.5:0.9:0.1',\n"
        "          '--snr-grid-db', '0:20:10', '--out', sys.argv[1]])\n"
        "print(rng._bracket_table.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "bound.csv")],
                         check=True, capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": _SRC})
    assert out.stdout.split()[-1] == "0"
