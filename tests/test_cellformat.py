"""The text format kernel against ``repr``: cell for cell on floats of every
kind and layout, with every cell proved as the kernel finds it and with
every cell left to ``repr``; the writers byte-equal with the kernel on and
off; and no kernel in a command that writes only small text."""

import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freqfact.cellformat as cellformat
import freqfact.io as fio
from freqfact import SpatioTemporalTensor
from test_cli import factorize, run_cli, synth_dataset
from test_io import assert_no_child_left, forked  # noqa: F401 (a fixture)


def repr_lines(values, cols: int) -> bytes:
    rows = np.asarray(values, float).reshape(-1, cols).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def ulps(values):
    """Each value and its neighbours one ulp below and above."""
    v = np.asarray(values, float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


rng = np.random.default_rng(29)
CASES = {
    "zeros and subnormals": [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                             2.2250738585072014e-308, -2.225073858507201e-308],
    "powers of two": ulps(np.ldexp(1.0, np.arange(-1022, 1024, 7))),
    "powers of ten": ulps(10.0 ** np.arange(-307, 309)),
    "integers": ulps([2.0**53, 2.0**53 + 2, 2.0**54, 2.0**60 + 2**8, 9007199254740993.0,
                      123456789012345678.0, 1e15 + 1, 1e16 + 2, 1e17 + 16, 1e22, 1e23])
                .tolist() + rng.integers(-2**62, 2**62, 200).astype(float).tolist()
                + rng.integers(-10**6, 10**6, 200).astype(float).tolist(),
    "decimals of 1-17 digits": [float(f"{rng.integers(1, 10**d)}e{rng.integers(-30, 30)}")
                                for d in rng.integers(1, 18, 600)],
    "float32-rounded": rng.standard_normal(300).astype(np.float32).astype(float).tolist()
                       + (rng.standard_normal(300) * 1e6).astype(np.float32).astype(float).tolist(),
    "layout edges": ulps([1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e15, 1e99, 1e100, 1e-99,
                          1e-100, 1e308, 1e-308, 1.7976931348623157e308, 0.1, 0.5, 1.0]),
    "normal, scaled": (rng.standard_normal(600)
                       * 10.0 ** rng.integers(-300, 301, 600)).tolist(),
    "non-finite": [np.inf, -np.inf, np.nan, 1.0],
}


# each kernel case runs with the cells proved as the kernel finds them, then
# with none proved, as if the kernel could prove no cell's digits
PROVED = pytest.mark.parametrize("proved", [True, False], ids=["as proved", "none proved"])


def kernel_format(values, cols: int, proved: bool) -> bytes:
    with pytest.MonkeyPatch.context() as mp:
        if not proved:
            shortest = cellformat._shortest

            def nothing_proved(x):
                digits, e10, found = shortest(x)
                return digits, e10, np.zeros_like(found)

            mp.setattr(cellformat, "_shortest", nothing_proved)
        return cellformat.format_cells(values, cols)


@PROVED
@pytest.mark.parametrize("cols", [1, 2, 3, 4])
@pytest.mark.parametrize("case", CASES)
def test_kernel_writes_reprs(proved, case, cols):
    values = np.asarray(CASES[case], float)
    values = np.concatenate([values, -values])
    values = values[: values.size // cols * cols]
    assert kernel_format(values, cols, proved) == repr_lines(values, cols)


@PROVED
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40), cols=st.integers(1, 4))
@example(values=[600000000000000.25, 600000000000000.75, 1426773850989732.25,
                 -26730843195327.6875], cols=2)  # ties of 16 and 17 digits
def test_kernel_writes_reprs_of_any_floats(proved, values, cols):
    values = np.array(values[: len(values) // cols * cols] or [0.0] * cols)
    assert kernel_format(values, cols, proved) == repr_lines(values, cols)


def test_kernel_proves_nearly_every_cell():
    x = np.random.default_rng(1).standard_normal(1 << 15)
    assert cellformat._shortest(x)[2].all()
    x = np.concatenate([x * 1e-30, x * 1e30, x.astype(np.float32)])
    assert cellformat._shortest(x)[2].mean() > 0.99


@pytest.fixture(params=["kernel on", "kernel off"])
def kernel_or_repr(request, monkeypatch):
    monkeypatch.setattr(fio, "_KERNEL_CELLS", 0 if request.param == "kernel on" else 1 << 62)


def files(d):
    """Every file under ``d``, by its path there: its bytes."""
    return {str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()}


VALUES = rng.standard_normal((12, 3, 40))
VALUES[0, 0, :6] = [0.0, -0.0, 5e-324, 1e16, 1e-5, 2.0**60]


def write_all(d):
    d.mkdir()
    fio.write_tensor(d / "t.csv", SpatioTemporalTensor(VALUES, np.arange(40) % 3 > 0))
    fio.write_matrix(d / "m.csv", VALUES.reshape(36, 40))
    fio.write_slices(d / "pred", VALUES)
    return files(d)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_writers_are_byte_equal_with_the_kernel_on_and_off(tmp_path, monkeypatch, forked,
                                                          workers):
    set_workers, forks = forked
    set_workers(workers)
    monkeypatch.setattr(fio, "_FORMAT_CHUNK_CELLS", 64)
    monkeypatch.setattr(fio, "_CHUNK_CELLS", 15)  # 5 tensor lines of 3 cells
    with monkeypatch.context() as m:
        m.setattr(fio, "_KERNEL_CELLS", 1 << 62)
        want = write_all(tmp_path / "repr")
    monkeypatch.setattr(fio, "_KERNEL_CELLS", 0)
    assert write_all(tmp_path / "kernel") == want
    assert len(forks) == (6 * workers if workers > 1 else 0)
    assert_no_child_left()


def test_write_slices_is_byte_equal_to_one_write_slice_per_slice(tmp_path, kernel_or_repr):
    fio.write_slices(tmp_path / "batch", VALUES)
    (tmp_path / "loop").mkdir()
    for k in range(VALUES.shape[2]):
        fio.write_slice(tmp_path / "loop" / f"slice_{k:04d}.csv", VALUES[:, :, k], k)
    assert files(tmp_path / "batch") == files(tmp_path / "loop")


def test_hard_scan_sized_forecast_and_atom_scan_never_import_the_kernel(tmp_path,
                                                                       monkeypatch):
    # hard_scan's shapes: 64 rows, 256 columns of which 192 train, 4 atoms
    data = synth_dataset(tmp_path, d=64, T=256, freqs=(14, 6), sigma=0.5, x_sigma=0.5)
    model = factorize(tmp_path, data, r=4, train_t=192, n_iters=2, sub_iters=5,
                      penalty={"kind": "hard_freq", "R": 3})
    cfg = tmp_path / "fc.json"
    cfg.write_text(json.dumps({
        "model": str(model), "y": [str(data / "Y0.csv"), str(data / "Y1.csv")],
        "x_true": str(data / "X.csv"), "penalty": {"kind": "hard_freq", "R": 3},
        "sweeps": 2, "sub_iters": 5}))
    monkeypatch.delitem(sys.modules, "freqfact.cellformat", raising=False)
    assert run_cli("forecast", "--config", cfg, "--out", tmp_path / "fc") == 0
    assert run_cli("atom-scan", "--config", cfg, "--out", tmp_path / "scan") == 0
    assert "freqfact.cellformat" not in sys.modules
    fio.write_matrix(tmp_path / "large.csv", np.zeros((fio._KERNEL_CELLS, 1)))
    assert "freqfact.cellformat" in sys.modules
