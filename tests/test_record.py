"""Every ``record`` class behaves like the ``dataclass`` it replaces.

For each class that ``src/`` declares with ``@record``, a ``@dataclass``
twin is built from the same fields (and the same ``__post_init__`` and
own methods).  Both must agree on what callers and stored files see:
``repr``, ``==``, ``hash``, the instance ``__dict__`` (keys and their
order fix the pickle bytes), ``dataclasses.replace``,
``fields``, ``asdict``, ``inspect.signature``, and the exception types of
bad calls and of writes to a frozen instance.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pickle

import pytest

import repro
from repro._record import record
from repro.cpu.trace import StreamParams
from repro.cpu.workloads import workload_by_name
from repro.harness.experiment import RunSpec
from repro.sim.config import Variant
from repro.sim.stats import Stats

ROOT = pathlib.Path(repro.__file__).parent

#: A valid value for a required field, by its annotation.
SAMPLES = {
    "str": "x", "int": 16, "float": 0.5, "bool": True, "object": (1, 2),
    "Callable": len, "Variant": Variant.COMPLETE, "Optional[dict]": None,
    "Optional[int]": None, "Optional[str]": None, "Union[float, str]": 48.0,
    "StreamParams": StreamParams(),
    "WorkloadProfile": workload_by_name("canneal"),
    "RunSpec": RunSpec(16, Variant.BASELINE, "canneal"), "Stats": Stats(),
    "Tuple[Variant, ...]": (Variant.BASELINE,), "Tuple[str, ...]": ("x",),
}


def _record_classes():
    """``(class, frozen)`` for every ``@record`` class in ``src/repro``."""
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(ROOT)
                          .with_suffix("").parts).replace(".__init__", "")
        for node in ast.walk(ast.parse(path.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                call = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(call, ast.Name) and call.id == "record":
                    frozen = any(k.arg == "frozen" and k.value.value
                                 for k in getattr(deco, "keywords", ()))
                    cls = getattr(importlib.import_module(module), node.name)
                    found.append(pytest.param(cls, frozen, id=node.name))
    return found


CLASSES = _record_classes()

#: What ``dataclass`` (or ``record``) puts on a class itself.
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
              "__delattr__", "__dict__", "__weakref__", "__match_args__",
              "__dataclass_fields__", "__dataclass_params__"}


def _twin(cls, frozen):
    """A ``@dataclass`` with ``cls``'s fields and own methods."""
    namespace = {}
    for klass in reversed(cls.__mro__[:-1]):
        namespace.update(
            (name, value) for name, value in vars(klass).items()
            if name not in _GENERATED  # or the class body defines it:
            or getattr(value, "__module__", None) == cls.__module__)
    specs = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, repr=f.repr,
        hash=f.hash, compare=f.compare, metadata=f.metadata))
        for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen,
                                      namespace=namespace)


def _required(cls):
    required = {}
    for f in dataclasses.fields(cls):
        if f.default is f.default_factory is dataclasses.MISSING:
            if f.type not in SAMPLES:
                pytest.fail(f"{cls.__name__}.{f.name}: no sample value "
                            f"for the annotation {f.type!r}; add one to "
                            "SAMPLES")
            required[f.name] = SAMPLES[f.type]
    return required


def _raises(make):
    try:
        make()
    except Exception as err:  # noqa: BLE001 - the type is the result
        return type(err)
    return None


def test_a_required_field_without_a_sample_fails_by_name():
    @record
    class Odd:
        weights: "FrozenSet[int]"

    with pytest.raises(pytest.fail.Exception,
                       match=r"Odd\.weights: .*'FrozenSet\[int\]'"):
        _required(Odd)


def test_the_record_classes_are_found():
    assert len(CLASSES) >= 23  # every value class in src/ at the time
    names = {param.id for param in CLASSES}
    assert {"RunSpec", "RunResult", "SystemConfig", "Cell"} <= names


@pytest.mark.parametrize("cls,frozen", CLASSES)
def test_a_record_matches_its_dataclass_twin(cls, frozen):
    twin = _twin(cls, frozen)
    required = _required(cls)
    ours, theirs = cls(**required), twin(**required)
    assert repr(ours) == repr(theirs)
    assert list(vars(ours).items()) == list(vars(theirs).items())
    assert pickle.dumps(vars(ours)) == pickle.dumps(vars(theirs))
    assert list(vars(pickle.loads(pickle.dumps(ours)))) == list(vars(ours))
    assert pickle.dumps(dataclasses.asdict(ours)) \
        == pickle.dumps(dataclasses.asdict(theirs))
    assert [(f.name, f.type, f.default, f.default_factory, f.repr, f.hash,
             f.compare, f.init) for f in dataclasses.fields(cls)] \
        == [(f.name, f.type, f.default, f.default_factory, f.repr, f.hash,
             f.compare, f.init) for f in dataclasses.fields(twin)]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert dataclasses.is_dataclass(ours)
    # Every way to call __init__ fills the same __dict__.
    values = vars(ours).copy()
    positional = list(values.values())
    first = next(iter(values))
    for args, kwargs in [(positional, {}), ((), values),
                         (positional[:1], dict(list(values.items())[1:]))]:
        assert list(vars(cls(*args, **kwargs)).items()) \
            == list(vars(twin(*args, **kwargs)).items())
    # Equality and hashing.
    assert ours == cls(**values) and ours != theirs
    other = next((f.name for f in dataclasses.fields(cls)
                  if f.compare and isinstance(values[f.name], int)
                  and not isinstance(values[f.name], bool)
                  and f.name not in ("n_cores", "length")), None)
    if other is not None:
        changed = dataclasses.replace(ours, **{other: values[other] + 1})
        assert vars(changed) == vars(dataclasses.replace(
            theirs, **{other: values[other] + 1}))
        assert (changed == ours) is False
    assert (cls.__hash__ is None) == (twin.__hash__ is None) == (not frozen)
    if frozen:
        assert hash(ours) == hash(theirs)
    # Bad calls and writes fail with the same exception types.
    for make in (cls, twin):
        assert _raises(lambda: make(*positional, 0)) is TypeError
        assert _raises(lambda: make(**values, no_such_field=0)) is TypeError
        assert _raises(lambda: make(values[first], **values)) is TypeError
        if required:
            assert _raises(make) is TypeError
    for obj in (ours, theirs):
        expected = dataclasses.FrozenInstanceError if frozen else None
        assert _raises(lambda: setattr(obj, first, values[first])) \
            is expected
        assert _raises(lambda: delattr(obj, first)) is expected


def test_a_record_keeps_the_methods_its_body_defines():
    from repro.validate.conformance import Cell

    cell = Cell(Variant.COMPLETE, 48.0, 2000, seed=3)
    assert repr(cell) == "Cell(Variant.COMPLETE, 48.0, 2000, seed=3)"
    assert "__repr__" in vars(Cell) and Cell.__repr__.__module__ \
        == "repro.validate.conformance"
