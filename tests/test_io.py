"""File-format tests: exact round trips, bulk parsing across chunk
boundaries, error messages that name the position, and one parse per input
file in a factorize grid."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfact.cli as cli
import freqfact.io as fio
from freqfact import SpatioTemporalTensor, TensorFormatError

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]


@st.composite
def tensors(draw):
    A, B, T = (draw(st.integers(1, 5)) for _ in range(3))
    cell = st.one_of(st.sampled_from(EDGE_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(draw(st.lists(cell, min_size=A * B * T, max_size=A * B * T)))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))
        mask[draw(st.integers(0, T - 1))] = True
    return SpatioTemporalTensor(values.reshape(A, B, T), mask)


def assert_same_tensor(got: SpatioTemporalTensor, want: SpatioTemporalTensor, mask=True):
    assert got.dims == want.dims
    # bitwise, so -0.0 and the subnormals must survive too
    assert got.values.tobytes() == want.values.tobytes()
    if mask:
        assert (got.time_mask is None) == (want.time_mask is None)
        if want.time_mask is not None:
            assert np.array_equal(got.time_mask, want.time_mask)


@settings(max_examples=60, deadline=None)
@given(t=tensors(), binary=st.booleans())
def test_tensor_round_trip_is_exact(tmp_path_factory, t, binary):
    d = tmp_path_factory.mktemp("rt")
    fio.write_tensor(d / "a", t, binary)
    back = fio.read_tensor(d / "a")
    assert_same_tensor(back, t, mask=not binary)
    fio.write_tensor(d / "b", back, binary)
    assert (d / "a").read_bytes() == (d / "b").read_bytes()


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from(EDGE_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


@settings(max_examples=30, deadline=None)
@given(m=matrices())
def test_matrix_round_trip_is_exact(tmp_path_factory, m):
    d = tmp_path_factory.mktemp("mrt")
    fio.write_matrix(d / "a", m)
    back = fio.read_matrix(d / "a")
    assert back.tobytes() == m.tobytes()
    fio.write_matrix(d / "b", back)
    assert (d / "a").read_bytes() == (d / "b").read_bytes()


def test_text_matches_reference_line_format(tmp_path):
    # block t holds A lines of B values; floats are written with repr
    values = np.arange(12, dtype=float).reshape(2, 3, 2) / 7.0
    fio.write_tensor(tmp_path / "t.csv", SpatioTemporalTensor(values, np.array([True, False])))
    want = ["stf-v1,2,3,2", "mask,1,0"]
    for k in range(2):
        for a in range(2):
            want.append(",".join(repr(float(v)) for v in values[a, :, k]))
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_chunk_size_changes_nothing(tmp_path, monkeypatch, chunk):
    # 15 data lines: chunks that divide them and chunks that leave a remainder
    t = SpatioTemporalTensor(np.random.default_rng(chunk).standard_normal((3, 2, 5)))
    fio.write_tensor(tmp_path / "ref.csv", t)
    monkeypatch.setattr(fio, "_CHUNK_LINES", chunk)
    fio.write_tensor(tmp_path / "t.csv", t)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)


def test_round_trip_across_default_chunk_boundary(tmp_path):
    A, T = 7, (fio._CHUNK_LINES // 7) + 3  # a few lines past one chunk
    t = SpatioTemporalTensor(np.random.default_rng(0).standard_normal((A, 1, T)))
    fio.write_tensor(tmp_path / "t.csv", t)
    assert_same_tensor(fio.read_tensor(tmp_path / "t.csv"), t)


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("stf-v1,2,2,2\n\n1.0,2.0\n   \n3.0,4.0\n5.0,6.0\n\n7.0,8.0\n\n")
    t = fio.read_tensor(p)
    assert np.array_equal(t.values[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(t.values[:, :, 1], [[5.0, 6.0], [7.0, 8.0]])


def read_error(tmp_path, text: str) -> str:
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(TensorFormatError) as exc:
        fio.read_tensor(p)
    msg = str(exc.value)
    assert msg.startswith(f"{p}: ")
    return msg[len(f"{p}: "):]


@pytest.mark.parametrize("text, message", [
    ("stf-v1,2,2,1\n1.0,2.0\n3.0\n", "line 3: expected 2 columns, got 1"),
    # equal cell totals: one long line and one short line
    ("stf-v1,2,2,1\n1.0,2.0,3.0\n4.0\n", "line 2: expected 2 columns, got 3"),
    ("stf-v1,2,1,1\n1.0\n2.0,\n", "line 3: expected 1 columns, got 2"),
    ("stf-v1,2,2,1\n1.0,2.0\n3.0,x\n", "line 3, column 2: could not parse 'x' as float"),
    ("stf-v1,2,2,1\n1.0,2.0\n3.0,\n", "line 3, column 2: could not parse '' as float"),
    ("stf-v1,2,2,2\n1,2\n3,4\n5,6\n", "expected 4 data lines (2 blocks of 2), got 3"),
    ("stf-v1,1,1,2\nmask,1\n1\n2\n", "line 2: mask has 1 entries, expected 2"),
    ("stf-v1,2,1\n1\n", "line 1: bad header 'stf-v1,2,1'"),
    ("stf-v1,2,x,1\n1\n", "line 1: non-integer dims in 'stf-v1,2,x,1'"),
    ("stf-v1,-1,1,-1\n1\n", "line 1: negative dims in 'stf-v1,-1,1,-1'"),
    # non-finite values name their position; blank lines count as lines
    ("stf-v1,2,2,1\n1.0,2.0\n\n3.0,nan\n", "line 4, column 2: non-finite value"),
    ("stf-v1,1,3,1\n-inf,1,2\n", "line 2, column 1: non-finite value"),
    # the first bad line in file order wins
    ("stf-v1,3,1,1\n1\nnan\nx\n", "line 3, column 1: non-finite value"),
])
def test_malformed_text_names_position(tmp_path, text, message):
    assert read_error(tmp_path, text) == message


def test_error_in_later_chunk_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(fio, "_CHUNK_LINES", 2)
    body = ["1.0,2.0"] * 5 + ["3.0,oops"]
    text = "stf-v1,3,2,2\n" + "\n".join(body) + "\n"
    assert read_error(tmp_path, text) == "line 7, column 2: could not parse 'oops' as float"


def test_binary_nonfinite_names_flat_index(tmp_path):
    values = np.zeros((2, 1, 3))
    values[1, 0, 2] = np.inf
    p = tmp_path / "t.bin"
    # written around the tensor constructor, which rejects non-finite values
    p.write_bytes(np.array([2, 1, 3], dtype="<u8").tobytes() + values.astype("<f8").tobytes())
    with pytest.raises(TensorFormatError, match=r"t\.bin: value 5 \(flat \(a, b, t\) index\): non-finite value"):
        fio.read_tensor(p)


def test_matrix_errors_name_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("stf-matrix-v1,2,2\n1.0,2.0\n\n3.0,inf\n")
    with pytest.raises(TensorFormatError, match=r"m\.csv: line 4, column 2: non-finite value"):
        fio.read_matrix(p)
    p.write_text("stf-matrix-v1,2,2\n1.0,2.0\n")
    with pytest.raises(TensorFormatError, match=r"m\.csv: expected 2 rows, got 1"):
        fio.read_matrix(p)


def test_grid_parses_each_input_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 30, "freqs": [3, 5], "seed": 2}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "n_iters": 3, "sub_iters": 10, "train_t": 24,
        "grid": [{"xi": 0.5}, {"xi": 2.0}],
    }))
    events = []
    real_read, real_point = fio.read_tensor, cli._run_factorize_point

    def counting_read(path):
        events.append(str(path))
        return real_read(path)

    def point(pcfg, out, load):
        # inputs are shared between points, so no point may write to them
        assert not load(pcfg.x).flags.writeable
        events.append("point")
        return real_point(pcfg, out, load)

    monkeypatch.setattr(fio, "read_tensor", counting_read)
    monkeypatch.setattr(cli, "_run_factorize_point", point)
    inputs = sorted(str(data / n) for n in ("X.csv", "Y0.csv", "Y1.csv"))
    outs = {}
    for jobs in (1, 2):
        events.clear()
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert cli.main(["factorize", "--config", str(cfg), "--out", str(outs[jobs]),
                     "--jobs", str(jobs)]) == 0
        # every input parsed once, all before the first point starts
        assert sorted(events[:3]) == inputs
        assert events[3:] == ["point", "point"]
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert len(files) == 1 + 2 * 4  # index.json, then W, Wp, H and report per point
    for rel in files:
        assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes()


def test_grid_points_share_one_read_only_aux_stack(tmp_path, monkeypatch):
    data = tmp_path / "data"
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 30, "freqs": [3, 5], "seed": 2}))
    assert cli.main(["synth", "--config", str(synth), "--out", str(data)]) == 0
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "x": str(data / "X.csv"), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "r": 2, "n_iters": 2, "sub_iters": 5, "grid": [{"xi": 0.5}, {"xi": 2.0}],
    }))
    stacks = []
    real_point = cli._run_factorize_point

    def point(pcfg, out, load):
        stacks.append(load.aux(pcfg.y))
        return real_point(pcfg, out, load)

    monkeypatch.setattr(cli, "_run_factorize_point", point)
    assert cli.main(["factorize", "--config", str(cfg), "--out", str(tmp_path / "m"),
                     "--jobs", "2"]) == 0
    assert len(stacks) == 2 and stacks[0] is stacks[1]
    assert not stacks[0].flags.writeable
