"""Certificates and report values are written with one number encoding."""

import json
from fractions import Fraction

import numpy as np

from tilewalsh.certificates import Certificate
from tilewalsh.signal import json_text, num_to_json


def test_numpy_float_in_context_is_a_plain_float_repr():
    x = np.float64(0.9460138)
    cert = Certificate.make("c", Fraction(1, 3), 1.0, context={"ratio": x, "rows": [{"r": x}]})
    ctx = json.loads(json_text(cert))["context"]
    assert ctx == {"ratio": repr(float(x)), "rows": [{"r": repr(float(x))}]}


def test_one_encoding_for_bounds_contexts_and_reports():
    cert = Certificate.make("c", 2, Fraction(7, 2), context={"q": 3, "note": "n", "ok": True, "x": 0.1})
    out = json.loads(json_text(cert))
    assert (out["lhs"], out["rhs"]) == ("2/1", "7/2")
    assert out["context"] == {"q": 3, "note": "n", "ok": True, "x": "0.1"}
    report = json.loads(json_text({"certificates": [cert], "form": Fraction(-1, 4), "pair": (1.5, None)}))
    assert report == {"certificates": [out], "form": "-1/4", "pair": ["1.5", None]}
    assert [num_to_json(v) for v in (Fraction(6, 4), 5, np.float64(2.5), 1e-300)] == [
        "3/2", "5/1", "2.5", "1e-300"
    ]
