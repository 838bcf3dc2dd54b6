import json

import numpy as np
import pytest

from tiltgen.manifest import format_value, write_csv, write_json_atomic


def test_booleans_format_as_digits():
    assert [format_value(v) for v in (True, False, np.True_, np.False_)] == ["1", "0", "1", "0"]


def test_write_csv_numpy_bool_row(tmp_path):
    path = tmp_path / "curve.csv"
    reliable = np.array([True, False])
    write_csv(path, ["beta", "reliable"], [(0.5, reliable[0]), (1.0, reliable[1])])
    assert path.read_text() == "beta,reliable\n0.5,1\n1,0\n"


def test_write_json_atomic_writes_numpy_values_as_plain_json(tmp_path):
    path = tmp_path / "report.json"
    payload = {"edges": np.array([0.0, 0.5]), "flags": np.array([True, False]),
               "count": np.int64(3), "score": np.float64(1.25)}
    write_json_atomic(path, payload)
    assert json.loads(path.read_text()) == {
        "edges": [0.0, 0.5], "flags": [True, False], "count": 3, "score": 1.25,
    }
    assert not path.with_suffix(".json.tmp").exists()


def test_write_json_atomic_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="set"):
        write_json_atomic(tmp_path / "bad.json", {"values": {1, 2}})
