"""The README library example and the demos, run as a reader runs them."""

import doctest
import runpy
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_library_example():
    # python -m doctest -o ELLIPSIS README.md
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False,
                              optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0 and result.failed == 0


def test_demos_run_with_every_warning_an_error():
    # python -W error demos/<name>.py, each in this process
    assert DEMOS
    for demo in DEMOS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runpy.run_path(str(demo), run_name="__main__")
