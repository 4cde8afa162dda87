"""The record classes behave as the frozen dataclasses they replaced.

Each record class of the package refuses assignment and deletion of its
attributes, compares and hashes by value (or, for the array records, by
identity), and builds through a constructor that raises TypeError on a
missing, unexpected or repeated argument as `dataclass` does.
"""

import importlib
import pkgutil
from functools import cached_property

import numpy as np
import pytest

import mapthermo
from mapthermo.cli import ScenarioConfig, Tolerances, parse_config
from mapthermo.records import fields, record
from mapthermo.trajectory import MapTrajectory
from mapthermo.validation import CheckResult
from reference import replace


def _record_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(mapthermo.__path__):
        module = importlib.import_module(f"mapthermo.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "__record_fields__" in vars(obj)]
    return sorted(found, key=lambda cls: cls.__qualname__)


RECORD_CLASSES = _record_classes()
# the records holding arrays compare and hash by identity
BY_IDENTITY = {"FluctuationTable", "MapTrajectory", "OutcomeDistribution",
               "PCMapCoefficients", "PCMapEntries", "PCThermo"}


def _filled(cls, offset: int = 0):
    """An instance of `cls` with field k set to k + offset, built without
    its constructor's checks."""
    obj = cls.__new__(cls)
    for k, f in enumerate(fields(cls)):
        object.__setattr__(obj, f.name, k + offset)
    return obj


def test_the_package_record_classes_are_found():
    names = {cls.__qualname__ for cls in RECORD_CLASSES}
    assert BY_IDENTITY | {"ScenarioConfig", "Tolerances", "CheckResult",
                          "WeakCouplingParams", "PCRates"} <= names


@pytest.mark.parametrize("cls", RECORD_CLASSES,
                         ids=lambda cls: cls.__qualname__)
def test_a_record_refuses_assignment_and_deletion(cls):
    obj = _filled(cls)
    name = fields(cls)[0].name
    with pytest.raises(AttributeError):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) == 0


@pytest.mark.parametrize("cls", RECORD_CLASSES,
                         ids=lambda cls: cls.__qualname__)
def test_a_record_compares_and_hashes_by_value_or_by_identity(cls):
    obj, same, other = _filled(cls), _filled(cls), _filled(cls, offset=1)
    assert obj == obj and obj != other and obj != object()
    if cls.__qualname__ in BY_IDENTITY:
        assert obj != same
        assert hash(obj) == object.__hash__(obj)
    else:
        assert obj == same and hash(obj) == hash(same)


def test_a_scenario_config_is_unhashable(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario]\nmodel = weak_coupling\nbeta_list = 1.0\n"
                    f"n_steps = 64\nout_dir = {tmp_path / 'out'}\n"
                    "[weak_coupling]\n")
    config = parse_config(str(path))
    assert isinstance(config, ScenarioConfig)
    assert config == replace(config)
    with pytest.raises(TypeError, match="unhashable"):
        hash(config)


def test_the_constructor_takes_fields_by_position_or_keyword():
    assert Tolerances(2.0, 1e-6) == Tolerances(invariant_tol=1e-6,
                                               cond_threshold=2.0)
    assert Tolerances(2.0).invariant_tol == Tolerances().invariant_tol
    assert (repr(CheckResult("a", True, "b"))
            == "CheckResult(name='a', passed=True, detail='b')")


@pytest.mark.parametrize("build,message", [
    (lambda: CheckResult("a", True), "missing required argument 'detail'"),
    (lambda: Tolerances(1.0, 1e-9, 3), "takes 2 positional arguments but 3"),
    (lambda: Tolerances(tol=1.0), "unexpected keyword argument 'tol'"),
    (lambda: Tolerances(2.0, cond_threshold=3.0),
     "multiple values for argument 'cond_threshold'"),
])
def test_the_constructor_rejects_a_bad_argument_list(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_post_init_is_looked_up_at_each_construction(monkeypatch):
    calls = []
    monkeypatch.setattr(Tolerances, "__post_init__",
                        lambda self: calls.append(self.cond_threshold))
    Tolerances(0.5)   # the patched check lets cond_threshold < 1 through
    assert calls == [0.5]


def test_a_cached_property_caches_on_a_record():
    traj = MapTrajectory(np.linspace(0.0, 1.0, 5), np.stack([np.eye(4)] * 5))
    assert traj.spacing == 0.25
    assert traj.__dict__["spacing"] == 0.25

    @record
    class Counted:
        x: int

        @cached_property
        def doubled(self):
            calls.append(self.x)
            return 2 * self.x

    calls = []
    counted = Counted(3)
    assert counted.doubled == counted.doubled == 6
    assert calls == [3]
