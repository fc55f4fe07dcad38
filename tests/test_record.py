import subprocess
import sys

import pytest

from techcycle.config import ReferenceConfig
from techcycle.cycle import CrossoverResult, CycleEvents
from techcycle.growth import LogisticParams

# (class, positional arguments, repr, hashable)
RECORDS = [
    (LogisticParams, (1.0, 2.0, 0.5), "LogisticParams(k=1.0, a=2.0, b=0.5)", True),
    (
        CycleEvents,
        ("cd", 1984, 2000, 2019),
        "CycleEvents(technology='cd', a_year=1984, m_year=2000, z_year=2019, censored=False)",
        True,
    ),
    (
        CrossoverResult,
        (1990, 42.5),
        "CrossoverResult(year=1990, established_share=42.5, boundary=False)",
        True,
    ),
    (
        ReferenceConfig,
        (),
        "ReferenceConfig(end_threshold_rel=0.01, "
        "table1_old='cassette', table1_new='cd', table1_window=None, table2_old='cd', "
        "table2_new='streaming', table2_window=None, table3_pairs=(), dp_residual_max=0.1, "
        "a_overrides=mappingproxy({}))",
        False,  # a mapping field makes the record unhashable
    ),
]


@pytest.mark.parametrize("cls, args, text, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_frozen_record_semantics(cls, args, text, hashable):
    record = cls(*args)
    assert repr(record) == text

    first_field = next(iter(cls.__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, first_field, None)
    with pytest.raises(AttributeError):
        delattr(record, first_field)
    assert repr(record) == text

    twin = cls(*args)
    assert record == twin and not record != twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)

    class Other(cls):
        pass

    assert record != Other(*args)


def test_positional_and_keyword_construction_agree():
    assert LogisticParams(1.0, 2.0, b=0.5) == LogisticParams(k=1.0, a=2.0, b=0.5)
    assert CycleEvents("cd", 1984, 2000, 2019, True).censored is True


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1.0, 2.0), {}),  # missing b
        ((1.0, 2.0, 0.5, 9.0), {}),  # one positional too many
        ((1.0,), {"k": 1.0, "a": 2.0, "b": 0.5}),  # k given twice
        ((), {"k": 1.0, "a": 2.0, "b": 0.5, "c": 1.0}),  # no field c
    ],
)
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        LogisticParams(*args, **kwargs)


def test_overrides_are_read_only_and_unshared(reference):
    first, second = ReferenceConfig(), ReferenceConfig()
    for record in (first, reference):
        with pytest.raises(TypeError):
            record.a_overrides["vinyl"] = 1900
    assert first.a_overrides == second.a_overrides == {}
    assert reference.a_overrides["vinyl"] == 1930


def test_cli_import_skips_the_introspection_modules(checkout_env):
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, techcycle.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=checkout_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
