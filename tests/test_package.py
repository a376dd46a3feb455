"""The package surface and the README's library example."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import share_sense

README = Path(__file__).resolve().parents[1] / "README.md"


# serialize is left out: the package does not re-export it
@pytest.mark.parametrize("module", ["arrivals", "cargo", "duality", "lp_core", "sensitivity"])
def test_every_public_name_exists_and_is_reexported(module):
    mod = importlib.import_module(f"share_sense.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
    absent = [n for n in mod.__all__ if getattr(share_sense, n, None) is not getattr(mod, n)]
    assert not absent, f"share_sense does not re-export {module}.{absent}"


def test_readme_library_quick_start_runs_as_commented():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    solution = scope["solution"]
    np.testing.assert_allclose(solution.x, [0.0, 2.0, 1.0], atol=1e-12)
    assert solution.objective == pytest.approx(-7.0, abs=1e-12)
    assert scope["verdict"].changes
