"""tools/bits.py's loader: one package per side, and the benchmark's workloads bound to each without a run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bits():
    spec = importlib.util.spec_from_file_location("bits_under_test", ROOT / "tools" / "bits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = ("prosinfo_bits_a", "prosinfo_bits_b")
    yield module, names
    for key in [k for k in sys.modules if k.startswith(names)]:
        del sys.modules[key]


def test_each_side_binds_the_benchmark_workloads_to_its_own_package(bits, tmp_path):
    module, names = bits
    before = sys.modules.get("prosinfo")
    packages = [module.load(None, name, tmp_path) for name in names]
    bound = [module.bind_workloads(P) for P in packages]
    assert sys.modules.get("prosinfo") is before
    assert [W.P for W in bound] == packages and packages[0] is not packages[1]
    assert [W.__name__ for W in bound] == [f"{name}_workloads" for name in names]
    for catalogue in ("grid_catalogue", "mc_catalogue", "query_catalogue"):
        assert getattr(bound[0], catalogue)() == getattr(bound[1], catalogue)(), catalogue


def test_the_worst_case_is_named_by_relative_size_not_by_ulps(bits):
    module, _ = bits
    # an entry that is rounding noise around 0 moves by ~1e18 ulp; the case beside it moves by 1e-9 relative
    left = {"noise": np.array([1.0, -3.8e-18]), "move": np.array([2.0, 0.5])}
    right = {"noise": np.array([1.0, 3.9e-17]), "move": np.array([2.0 * (1.0 + 1e-9), 0.5])}
    ok, line = module.compare("fisher", left, right)
    assert not ok and line == "fisher: 2 of 2 cases moved; worst 'move': relative 1e-09, 4503600 ulp"
    # within one case, the noise entry does not hide the move either
    ok, line = module.compare("fisher", {"fi": np.concatenate(list(left.values()))},
                              {"fi": np.concatenate(list(right.values()))})
    assert line == "fisher: 1 of 1 cases moved; worst 'fi': relative 1e-09, 4503600 ulp"
