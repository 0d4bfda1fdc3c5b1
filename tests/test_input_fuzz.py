"""Fuzzed input files: a truncated or corrupted tensor or model file makes
every command that reads it exit 2 (or 3), print no traceback and write no
output, as the fuzzed configs in ``test_cli`` do, whether its text is
parsed in one call or in forked workers."""

import contextlib
import io
import json
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freqfact.io as fio
from freqfact.cli import main

# bytes that make any text cell, header or line they land in unreadable
# (a newline could only add a blank line, which the text parse skips)
TOKENS = [b"x", b"\xff", b"\x00", b",", b"nan", b"--"]

# per command, the input files it reads: tensors by name, model files by file
READS = {
    "factorize": ["X", "Y0", "Y1"],
    "forecast": ["Y0", "Y1", "X", "W.csv", "Wp.csv", "H.csv"],
    "atom-scan": ["Y0", "Y1", "X", "W.csv", "Wp.csv", "H.csv"],
    "evaluate": ["X", "P"],
}


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The intact files: text and binary tensors from one synth seed and a
    model factorized from them."""
    root = tmp_path_factory.mktemp("intact")
    synth = root / "synth.json"
    synth.write_text(json.dumps({"d": 6, "T": 40, "freqs": [3, 7], "sigma": 0.1,
                                 "x_sigma": 0.1}))
    files = {}
    for ext, flag in (("csv", []), ("bin", ["--binary"])):
        assert main(["synth", "--config", str(synth), "--out", str(root / ext),
                     "--seed", "3"] + flag) == 0
        files.update({(name, ext): (root / ext / f"{name}.{ext}").read_bytes()
                      for name in ("X", "Y0", "Y1")})
    fact = root / "factorize.json"
    fact.write_text(json.dumps({"x": str(root / "csv" / "X.csv"),
                                "y": [str(root / "csv" / f"Y{k}.csv") for k in (0, 1)],
                                "r": 2, "xi": 0.5, "train_t": 30, "n_iters": 2, "sub_iters": 5,
                                "penalty": {"kind": "hard_freq", "R": 3}}))
    assert main(["factorize", "--config", str(fact), "--out", str(root / "model")]) == 0
    for name in ("W.csv", "Wp.csv", "H.csv"):
        files[(name, "csv")] = (root / "model" / name).read_bytes()
    # evaluate scores a prediction: a copy of X, scored against X
    files[("P", "csv")] = files[("X", "csv")]
    return files


def corrupt(data: bytes, binary: bool, draw) -> bytes:
    """``data`` truncated, with a token inserted, with eight bytes set to
    0xff (a binary file's NaN, or dims it does not hold), cut to its header
    with one dim set to 0 (a file of no values), or replaced by arbitrary
    bytes; each leaves no readable file of the same dims."""
    mode = draw(st.sampled_from(["truncate", "insert", "overwrite", "zero_dim", "replace"]))
    if mode == "zero_dim":
        if binary:
            dims = list(struct.unpack("<QQQ", data[:24]))
            dims[draw(st.integers(0, 2))] = 0
            return struct.pack("<QQQ", *dims)
        head = data[: data.index(b"\n")].split(b",")
        head[draw(st.integers(1, len(head) - 1))] = b"0"
        return b",".join(head) + b"\n"
    if mode == "truncate":
        # a text file keeps whole lines or loses its last one: a cut within
        # the last line can leave a shorter number that still reads
        last = len(data) - 1 if binary else data.rindex(b"\n", 0, len(data) - 1) + 1
        return data[: draw(st.integers(0, last))]
    if mode == "insert":
        at = draw(st.integers(0, len(data)))
        token = draw(st.sampled_from(TOKENS))
        return data[:at] + token + data[at:]
    if mode == "overwrite" and binary:
        at = draw(st.integers(0, (len(data) - 8) // 8)) * 8
        return data[:at] + b"\xff" * 8 + data[at + 8 :]
    return draw(st.binary(max_size=64).filter(lambda b: b != data))


@st.composite
def broken_inputs(draw):
    command = draw(st.sampled_from(sorted(READS)))
    name = draw(st.sampled_from(READS[command]))
    binary = "." not in name and name != "P" and draw(st.booleans())
    return command, name, binary, draw(st.data())


def write_case(d, files, command, name, binary, data):
    """The command's inputs in ``d``, with ``name`` corrupted; returns its argv."""
    ext = "bin" if binary else "csv"
    paths = {}
    for tensor in ("X", "Y0", "Y1", "P"):
        paths[tensor] = d / f"{tensor}.{ext if tensor == name else 'csv'}"
        paths[tensor].write_bytes(files[(tensor, ext if tensor == name else "csv")])
    (d / "model").mkdir()
    for f in ("W.csv", "Wp.csv", "H.csv"):
        paths[f] = d / "model" / f
        paths[f].write_bytes(files[(f, "csv")])
    paths[name].write_bytes(corrupt(paths[name].read_bytes(), binary, data.draw))
    out = d / "out"
    if command == "evaluate":
        return ["evaluate", "--truth", paths["X"], "--pred", paths["P"], "--out", out], out
    cfg = d / "c.json"
    ys = [str(paths["Y0"]), str(paths["Y1"])]
    if command == "factorize":
        config = {"x": str(paths["X"]), "y": ys, "r": 2, "n_iters": 2, "sub_iters": 5,
                  "train_t": 30}
    else:
        config = {"model": str(d / "model"), "y": ys, "x_true": str(paths["X"]),
                  "sweeps": 2, "sub_iters": 5, "penalty": {"kind": "hard_freq", "R": 3}}
    cfg.write_text(json.dumps(config))
    return [command, "--config", cfg, "--out", out], out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=broken_inputs(), forked=st.booleans())
def test_broken_input_file_exits_2_without_output(tmp_path_factory, inputs, case, forked):
    command, name, binary, data = case
    d = tmp_path_factory.mktemp("fuzz")
    argv, out = write_case(d, inputs, command, name, binary, data)
    with pytest.MonkeyPatch.context() as mp:
        if forked:  # text blocks of 64 bytes or more parsed on up to 3 forked workers
            mp.setattr(fio, "_PARSE_CHUNK_BYTES", 32)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            mp.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
        rc, err = run_quietly(argv)
    with pytest.raises(ChildProcessError):  # every forked worker reaped
        os.waitpid(-1, os.WNOHANG)
    assert rc in (2, 3), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("data", [
    b"stf-v1,0,1,40\n", b"stf-v1,6,1,0\n", struct.pack("<QQQ", 0, 1, 40),
    struct.pack("<QQQ", 6, 0, 40),
], ids=["text-no-cells", "text-no-times", "binary-no-cells", "binary-no-cols"])
def test_tensor_of_no_values_exits_2(tmp_path, data):
    # such a file used to read as an empty tensor: evaluate then wrote an
    # NSE of NaN and exited 0
    path = tmp_path / "empty.stf"
    path.write_bytes(data)
    out = tmp_path / "out"
    rc, err = run_quietly(["evaluate", "--truth", path, "--pred", path, "--out", out])
    assert rc == 2 and f"{path}:" in err and "hold no value" in err
    assert not out.exists()
