"""Import budget: each process loads only the layers it runs.

Every check imports in a fresh interpreter and compares ``sys.modules``
before and after, so the result depends only on the source tree, not on
what this pytest run has already imported or on the host's speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a PDME intake process (shard router, wire decode, report log)
#: must never load: the DC side, optional extensions and heavy or
#: unused dependencies.
PDME_FORBIDDEN = (
    "networkx",
    "http.server",
    "multiprocessing",
    "repro.dc",
    "repro.dsp",
    "repro.algorithms",
    "repro.plant",
    "repro.sbfr",
    "repro.hpc",
    "repro.fusion.bayes",
    "repro.fusion.survival",
    "repro.fusion.spatial",
    "repro.fusion.hierarchy",
)


def loaded_by(statement: str) -> set[str]:
    """Modules that ``statement`` adds to a fresh interpreter."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


def under(modules: set[str], package: str) -> list[str]:
    """The modules that are ``package`` or lie inside it."""
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


def test_import_repro_loads_no_submodule():
    loaded = loaded_by("import repro")
    assert "repro" in loaded
    assert under(loaded, "repro") == ["repro"]


def test_pdme_intake_modules_load_no_dc_stack():
    loaded = loaded_by("import repro.pdme.shard, repro.protocol.wire, repro.oosm.persistence")
    assert {"repro.pdme.shard", "repro.protocol.wire", "repro.oosm.persistence"} <= loaded
    for forbidden in PDME_FORBIDDEN:
        assert under(loaded, forbidden) == [], forbidden


def test_gateway_service_loads_no_networkx():
    loaded = loaded_by("import repro.gateway.service")
    assert "repro.gateway.service" in loaded
    assert under(loaded, "networkx") == []


def test_system_build_loads_no_extension_modules():
    # The Figure-1 system runs none of the extension modules, so
    # assembling it loads none of them either.
    loaded = loaded_by(
        "from repro.system import build_mpros_system\n"
        "build_mpros_system(n_chillers=1)"
    )
    assert "repro.dc.concentrator" in loaded
    for extension in (
        "networkx",
        "multiprocessing",
        "repro.fusion.bayes",
        "repro.fusion.survival",
        "repro.fusion.spatial",
        "repro.fusion.hierarchy",
        "repro.pdme.resident",
        "repro.hpc.parallel",
        "repro.dsp.wavelet",
    ):
        assert under(loaded, extension) == [], extension


def test_cli_loads_no_system():
    loaded = loaded_by("import repro.cli")
    assert "repro.cli" in loaded
    assert under(loaded, "repro.system") == []


def test_serve_command_loads_no_dc_stack():
    # Boot the server and answer no request: everything the command
    # imports to serve is loaded by then.  The server is a PDME-side
    # process, so it loads what intake does plus ``http.server``.
    loaded = loaded_by(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['serve', '--quick', '--host', '127.0.0.1', '--port', '0',"
        " '--max-requests', '0']) == 0"
    )
    assert "repro.gateway.server" in loaded
    for forbidden in PDME_FORBIDDEN:
        if forbidden != "http.server":
            assert under(loaded, forbidden) == [], forbidden
