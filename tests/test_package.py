"""The package namespace: every name in the export table resolves to its
home module's object, and the README session runs."""

import importlib
import re
from pathlib import Path

import pytest

import tropicorr
from tropicorr import _EXPORTS

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", list(_EXPORTS))
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"tropicorr.{_EXPORTS[name]}")
    assert getattr(tropicorr, name) is getattr(home, name)


def test_dir_lists_every_export():
    assert set(_EXPORTS) <= set(dir(tropicorr))
    assert sorted(tropicorr.__all__) == sorted(_EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropicorr.no_such_name
    assert not hasattr(tropicorr, "_smith")
    assert not hasattr(tropicorr, "snf")


def test_readme_session_runs(capsys):
    text = README.read_text(encoding="utf-8")
    session = re.search(r"A quick session:\s*```python\n(.*?)```", text,
                        re.DOTALL).group(1)
    exec(compile(session, str(README), "exec"), {})
    assert capsys.readouterr().out == "1\n"
