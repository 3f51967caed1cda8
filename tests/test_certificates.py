"""Certificates and report values serialize with one number encoding."""

import json
from fractions import Fraction

import numpy as np

from tilewalsh.certificates import Certificate, jsonable
from tilewalsh.signal import num_to_json


def test_numpy_float_in_context_is_a_plain_float_repr():
    x = np.float64(0.9460138)
    cert = Certificate.make("c", Fraction(1, 3), 1.0, context={"ratio": x, "rows": [{"r": x}]})
    ctx = cert.to_json()["context"]
    assert ctx == {"ratio": repr(float(x)), "rows": [{"r": repr(float(x))}]}
    json.dumps(cert.to_json())


def test_one_encoding_for_bounds_contexts_and_reports():
    cert = Certificate.make("c", 2, Fraction(7, 2), context={"q": 3, "note": "n", "ok": True, "x": 0.1})
    out = cert.to_json()
    assert (out["lhs"], out["rhs"]) == ("2/1", "7/2")
    assert out["context"] == {"q": 3, "note": "n", "ok": True, "x": "0.1"}
    report = jsonable({"certificates": [cert], "form": Fraction(-1, 4), "pair": (1.5, None), 2: "k"})
    assert report == {"certificates": [out], "form": "-1/4", "pair": ["1.5", None], "2": "k"}
    assert [num_to_json(v) for v in (Fraction(6, 4), 5, np.float64(2.5), 1e-300)] == [
        "3/2", "5/1", "2.5", "1e-300"
    ]
