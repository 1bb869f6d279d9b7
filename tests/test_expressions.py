"""Config values are numbers, never code: a builder parameter that is given
an expression, or a constant that is not a finite real, is refused as a
usage error before anything runs."""

import re

import pytest

from phenopart.cli import UsageError, load_config

# [model] drift0 has a number default, [initial] centers a tuple default
NUMBER_CFG = "[model]\nname = nldrift1d\ndrift0 = {value}\n"
TUPLE_CFG = ("[initial]\nprofile = bump-pair\n"
             "centers = ((0, 0), ({value}, 0))\n")


def _refused(tmp_path, text, word):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(UsageError, match=re.escape(word)):
        load_config(str(path))


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x.real",
    "x[0]",
    "lambda y: y",
    "x if x > 0 else -x",
    "x > 0",
    "open('f')",
    "unknown_name + 1",
    "sin",
    "x; y",
    "sin(x, y)",
    "where(x, y)",
])
def test_rejects_non_arithmetic(tmp_path, bad):
    """literal_eval reads the value, so no name is looked up and no call is
    made: the text is refused, not run."""
    _refused(tmp_path, NUMBER_CFG.format(value=bad),
             f"[model] drift0: expected a finite number, got {bad!r}")
    _refused(tmp_path, TUPLE_CFG.format(value=bad), "[initial] centers: "
             "expected finite numbers nested like")


@pytest.mark.parametrize("value", [
    "1+2j", "1/0", "1e999", "1e308/1e-308", "1e999/1e999", "np.inf",
], ids=["complex", "zero-division", "inf", "overflow", "nan", "numpy-inf"])
def test_constant_that_is_not_finite_real_is_rejected(tmp_path, value):
    """A value that parses to a complex, infinite or nan number, or does not
    parse, is refused with the key it was given to."""
    _refused(tmp_path, NUMBER_CFG.format(value=value),
             f"[model] drift0: expected a finite number, got {value!r}")
    _refused(tmp_path, TUPLE_CFG.format(value=value), "[initial] centers: "
             "expected finite numbers nested like")
