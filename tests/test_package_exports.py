"""Every package's public names resolve lazily to their defining objects.

Packages bind their ``__all__`` names on first access (PEP 562).  These
tests pin that ``getattr``, ``dir`` and ``from pkg import *`` see the
same objects the defining modules hold.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


def test_every_package_is_listed():
    assert {"repro", "repro.dsp", "repro.algorithms.dli"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_to_defining_objects(name):
    pkg = importlib.import_module(name)
    assert pkg.__all__, name
    listed = dir(pkg)
    for export in pkg.__all__:
        value = getattr(pkg, export)
        # The lazy hook answers the same object the cached attribute holds.
        assert pkg.__getattr__(export) is value, export
        assert vars(pkg)[export] is value, export
        assert export in listed, export
        module = getattr(value, "__module__", "")
        if isinstance(value, (type, types.FunctionType)) and module.startswith(name + "."):
            home = sys.modules[module]
        else:
            # A constant or an alias: some module of the package binds it.
            home = next(
                m for m in list(sys.modules.values())
                if getattr(m, "__name__", "").startswith(name + ".")
                and vars(m).get(export) is value
            )
        assert getattr(home, export) is value, export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    pkg = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in pkg.__all__:
        assert namespace[export] is getattr(pkg, export), export


def test_unknown_name_raises_attribute_error():
    import repro.fusion

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.fusion.no_such_name  # noqa: B018


def test_dsp_function_names_survive_their_submodule_imports():
    # ``repro.dsp.envelope`` and ``repro.dsp.stft`` are modules that
    # export functions of the same names.  Importing a submodule binds
    # it to its name in the package, so in a fresh interpreter the two
    # names must still be the functions afterwards.
    code = (
        "import json\n"
        "import repro.dsp.envelope, repro.dsp.stft\n"
        "import repro.dsp\n"
        "from repro.dsp import envelope, stft\n"
        "print(json.dumps([f.__module__ + '.' + f.__name__ for f in "
        "(envelope, stft, repro.dsp.envelope, repro.dsp.stft)]))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == [
        "repro.dsp.envelope.envelope",
        "repro.dsp.stft.stft",
        "repro.dsp.envelope.envelope",
        "repro.dsp.stft.stft",
    ]
    import repro.dsp

    assert isinstance(repro.dsp.envelope, types.FunctionType)
    assert isinstance(repro.dsp.stft, types.FunctionType)
