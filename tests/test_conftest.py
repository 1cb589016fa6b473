"""When a pytest session may overwrite the tier-1 wall record."""

import importlib.util
import pathlib
import types

import pytest

# By path: tests/dist has a conftest module of the same name.
_SPEC = importlib.util.spec_from_file_location(
    "tier1_conftest", pathlib.Path(__file__).parents[1] / "conftest.py"
)
_CONFTEST = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_CONFTEST)
records_suite = _CONFTEST.records_suite

ROOT = "/repo"


def _config(args=(ROOT,), keyword="", markexpr="", collectonly=False):
    return types.SimpleNamespace(
        args=list(args),
        invocation_params=types.SimpleNamespace(dir=ROOT),
        option=types.SimpleNamespace(
            keyword=keyword, markexpr=markexpr, collectonly=collectonly
        ),
    )


def test_full_run_records():
    assert records_suite(_config(), tests_run=1584)


@pytest.mark.parametrize(
    "config, tests_run",
    [
        (_config(collectonly=True), 0),
        (_config(collectonly=True), 1584),
        (_config(), 0),
        (_config(args=(f"{ROOT}/tests/nn",)), 200),
        (_config(keyword="census"), 30),
        (_config(markexpr="slow"), 3),
    ],
    ids=["collect-only", "collect-only-with-reports", "no-test-ran", "path", "k", "m"],
)
def test_partial_or_empty_sessions_do_not_record(config, tests_run):
    assert not records_suite(config, tests_run)
