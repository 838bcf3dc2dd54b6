import numpy as np

from tiltgen.manifest import format_value, write_csv


def test_booleans_format_as_digits():
    assert [format_value(v) for v in (True, False, np.True_, np.False_)] == ["1", "0", "1", "0"]


def test_write_csv_numpy_bool_row(tmp_path):
    path = tmp_path / "curve.csv"
    reliable = np.array([True, False])
    write_csv(path, ["beta", "reliable"], [(0.5, reliable[0]), (1.0, reliable[1])])
    assert path.read_text() == "beta,reliable\n0.5,1\n1,0\n"
