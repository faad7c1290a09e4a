import json
import math

import numpy as np
import pytest

from ortho_subselect.jsonio import dumps


@pytest.mark.parametrize(
    "obj, text",
    [(-0.0, "-0"), (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
     (True, "true"), (False, "false"), (7, "7"), ("a\"b", '"a\\"b"'),
     ({"k": [1, 2.5, {"x": []}], "b": False},
      '{"k": [1, 2.5, {"x": []}], "b": false}')],
    ids=["neg-zero", "tenth", "np-float64", "true", "false", "int", "str", "nested"],
)
def test_dumps_text_of_each_kept_type(obj, text):
    assert dumps(obj) == text
    assert json.loads(text) == obj


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_dumps_rejects_non_finite_floats(x):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"v": [x]})


@pytest.mark.parametrize("obj", [np.int64(1), (1, 2), None], ids=["np-int64", "tuple", "none"])
def test_dumps_rejects_types_the_formats_never_hold(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps([obj])
