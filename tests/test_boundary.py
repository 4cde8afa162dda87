"""No input reaches a traceback: `mapthermo run` and `map-info`, in process,
on drawn configs and on mutated map files.

Every model section's keys are drawn from its parameter record (floats
over the whole finite range with both signs, ints, choices), with the
scenario and tolerance keys beside them; sizes stay small (n_steps <= 64,
n_max <= 6). Map files are a small valid d = 2 file with byte flips,
truncation, inserted separators, `nan`, `1e999` or CRLF line ends, and
duplicated lines. Each call must exit 0, 2 or 3 without a traceback, and an
exit-2 message must name a `[section]` or a `path:line`.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapthermo import cli
from mapthermo.dynamics import save_map_trajectory
from mapthermo.params import (DRIVE_MODES, WeakCouplingParams,
                              weak_coupling_rates)
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.records import Field, fields

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
# most draws near the defaults, so that runs also get past the parser
NUMBER = st.one_of(st.floats(-4.0, 4.0), ANY_FLOAT, st.floats(0.01, 3.0))


def _value(field: Field):
    """A strategy for the config text of one parameter field."""
    if field.name == "drive_mode":
        return st.sampled_from(DRIVE_MODES + ("sideways",))
    if field.name == "n_max":
        return st.integers(-1, 6).map(str)
    return NUMBER.map(repr)


def _section(cls) -> st.SearchStrategy:
    """Some of the fields of `cls`, each with a drawn value."""
    keys = {f.name: _value(f) for f in fields(cls)}
    if "n_max" in keys:   # an explicit cutoff keeps every draw small
        return st.fixed_dictionaries({"n_max": keys.pop("n_max")},
                                     optional=keys)
    return st.fixed_dictionaries({}, optional=keys)


def _floats_text(size: int) -> st.SearchStrategy:
    return st.lists(NUMBER, max_size=size).map(
        lambda xs: ", ".join(map(repr, xs)))


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(cli._PARAMS)))
    scenario = {"model": model}
    scenario.update(draw(st.fixed_dictionaries({}, optional={
        "beta_list": _floats_text(3),
        "t_max": NUMBER.map(repr),
        "n_steps": st.integers(-2, 64).map(str),
        "distribution_times": _floats_text(2),
        "series": st.lists(st.sampled_from(
            ("lambda", "invertibility", "pc_coefficients", "coherent",
             "bogus")), max_size=3, unique=True).map(", ".join)})))
    if model != "closed_coherent":
        scenario.setdefault("beta_list", "1.0")
    scenario.setdefault("n_steps", "32")
    sections = {"scenario": scenario,
                model: draw(_section(cli._params_class(model)))}
    if draw(st.booleans()):
        sections["tolerances"] = draw(_section(cli.Tolerances))
    return sections


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check(code: int, err: str, path: str) -> None:
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        where = re.compile(r"\[\w+\]|" + re.escape(path) + r":\d+")
        assert where.search(err), err


@given(sections=configs())
@FUZZ
def test_drawn_configs_exit_cleanly(tmp_path_factory, sections):
    work = tmp_path_factory.mktemp("config")
    sections["scenario"]["out_dir"] = str(work / "out")
    path = str(work / "scenario.ini")
    with open(path, "w") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
    code, err = _main(["run", path])
    _check(code, err, path)


@pytest.fixture(scope="module")
def valid_map_file(tmp_path_factory):
    """A valid d = 2 map file of nine rows, with derivatives."""
    p = WeakCouplingParams(gamma=0.1)
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(8))
    path = tmp_path_factory.mktemp("maps") / "valid.maps"
    save_map_trajectory(traj, str(path))
    return path


INSERTS = (b",", b"\n", b"nan", b"1e999", b"\r\n")
EDITS = st.tuples(
    st.sampled_from(("flip", "truncate", "insert", "duplicate")),
    st.floats(0.0, 1.0),    # where, as a fraction of the file's length
    st.integers(1, 255), st.sampled_from(INSERTS))


def _mutate(data: bytes, edits) -> bytes:
    for kind, where, mask, insert in edits:
        pos = min(int(where * len(data)), max(len(data) - 1, 0))
        if kind == "flip" and data:
            data = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
        elif kind == "truncate":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + insert + data[pos:]
        elif kind == "duplicate":   # the line holding pos
            start = data.rfind(b"\n", 0, pos) + 1
            end = data.find(b"\n", pos) + 1 or len(data)
            data = data[:end] + data[start:end] + data[end:]
    return data


@given(edits=st.lists(EDITS, min_size=1, max_size=3))
@FUZZ
def test_mutated_map_files_exit_cleanly(tmp_path_factory, valid_map_file,
                                        edits):
    work = tmp_path_factory.mktemp("mutated")
    path = str(work / "trajectory.maps")
    with open(path, "wb") as fh:
        fh.write(_mutate(valid_map_file.read_bytes(), edits))
    config = str(work / "scenario.ini")
    with open(config, "w") as fh:
        fh.write("[scenario]\nmodel = custom_map_file\nbeta_list = 1.0, 2.0\n"
                 f"out_dir = {work / 'out'}\n"
                 "[custom_map_file]\npath = trajectory.maps\n")
    for argv, named in ((["run", config], path), (["map-info", path], path)):
        code, err = _main(argv)
        _check(code, err, named)


def test_a_map_file_without_data_rows_names_the_line_it_expected(tmp_path):
    path = tmp_path / "header_only.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=0\n")
    assert _main(["map-info", str(path)]) == (
        2, f"config error: {path}:3: no data rows\n")
    path.write_text("")
    assert _main(["map-info", str(path)]) == (
        2, f"config error: {path}:1: no data rows\n")


@pytest.mark.parametrize("rel,grid", [(".", False), ("bad.maps", True)])
def test_run_names_the_config_key_of_a_bad_map_file(tmp_path, rel, grid):
    # a directory, which cannot be read, and a file that reads but whose
    # grid repeats a time
    identity = ",".join(map(repr, np.eye(4, dtype=complex).reshape(-1)
                            .view(float).tolist()))
    (tmp_path / "bad.maps").write_text(
        "# mapthermo-maps v1\n"
        "# dim=2 vectorization=column-stacking derivatives=0\n"
        + "".join(f"{t},{identity}\n" for t in (0.0, 0.1, 0.1)))
    config = tmp_path / "scenario.ini"
    config.write_text("[scenario]\nmodel = custom_map_file\nbeta_list = 1\n"
                      f"out_dir = {tmp_path / 'out'}\n"
                      f"[custom_map_file]\npath = {rel}\n")
    code, err = _main(["run", str(config)])
    assert code == 2
    assert err.endswith(f" ([custom_map_file] path of {config})\n")
    assert ("grid must be strictly increasing" in err) == grid


def test_a_grid_too_large_to_allocate_exits_2_naming_the_config(tmp_path):
    # 10^12 steps: numpy refuses the 7 TiB time grid at once
    config = tmp_path / "big.ini"
    config.write_text("[scenario]\nmodel = weak_coupling\nbeta_list = 1\n"
                      "n_steps = 1000000000000\nseries = lambda\n"
                      f"out_dir = {tmp_path / 'out'}\n[weak_coupling]\n")
    code, err = _main(["run", str(config)])
    assert code == 2, err
    assert err.startswith(
        f"config error: {config}: the run does not fit in memory: "), err
    assert "Traceback" not in err
