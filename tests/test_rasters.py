import numpy as np
import pytest

from cloudmotion.fractal_field import kstar_to_levels, levels_to_kstar, make_clearsky_field
from cloudmotion.rasters import read_pgm, write_clearsky_pgm, write_pgm
from helpers import MALFORMED_PGMS, field_kstar, read_clearsky_pgm


def test_pgm_round_trip(tmp_path):
    levels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "t.pgm"
    write_pgm(path, levels)
    assert np.array_equal(read_pgm(path), levels)


def test_pgm_rejects_non_uint8(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "t.pgm", np.zeros((2, 2), dtype=np.float32))


def test_pgm_reads_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    arr = read_pgm(path)
    assert arr.shape == (2, 3)
    assert arr.tobytes() == body


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValueError):
        read_pgm(path)


@pytest.mark.parametrize("raw", MALFORMED_PGMS.values(), ids=MALFORMED_PGMS.keys())
def test_pgm_malformed_error_names_file(tmp_path, raw):
    path = tmp_path / "m.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_pgm(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_clearsky_pgm_round_trip(tmp_path):
    # 257 rows end in a partial block of the row-blocked level conversion
    for side in (32, 257):
        field = make_clearsky_field(side, 1.5, seed=4, pixel_size_m=2.5)
        path = tmp_path / f"field{side}.pgm"
        write_clearsky_pgm(field, path)
        assert (tmp_path / f"field{side}.txt").read_text().strip() == "2.5"
        assert np.array_equal(read_pgm(path), kstar_to_levels(field_kstar(field)))
        back = read_clearsky_pgm(path)
        # the pipeline quantizes by default, so the round trip is exact
        kstar = field_kstar(back)
        assert np.array_equal(kstar, field_kstar(field))
        assert kstar.dtype == np.float32
        assert np.array_equal(kstar, levels_to_kstar(read_pgm(path)))
        assert back.pixel_size_m == 2.5
        assert back.side_px == side


def test_clearsky_pgm_byte_identical_for_same_seed(tmp_path):
    f1 = make_clearsky_field(16, 1.5, seed=9)
    f2 = make_clearsky_field(16, 1.5, seed=9)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_clearsky_pgm(f1, p1)
    write_clearsky_pgm(f2, p2)
    assert p1.read_bytes() == p2.read_bytes()
