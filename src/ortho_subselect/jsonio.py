"""JSON text emission with fixed 17-significant-digit floats.

The stdlib encoder formats floats with repr(); the file formats here pin
%.17g instead so every emitted number is losslessly re-parseable and the
byte stream is stable across runs. Parsing uses plain ``json.loads``.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in output: {x!r}")
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Serialize dicts, lists, bools, ints, floats and strs to compact JSON
    with %.17g floats; ``np.float64`` is a float and serializes too."""
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
