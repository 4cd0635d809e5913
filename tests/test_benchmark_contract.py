"""The functions the benchmark's layer tracer wraps must exist by name.

``perfbench/layertrace.py`` finds each boundary function by name and
reports a missing one as null metrics instead of failing, so a rename in
the package would otherwise go unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("home,name", [(home, name) for home, name, _ in _boundaries()])
def test_traced_boundary_is_public_callable(home, name):
    module = importlib.import_module(f"noma_uplink.{home}")
    assert callable(getattr(module, name, None))
