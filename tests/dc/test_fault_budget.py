"""A DC vibration test re-faults no memory once it is warm.

Each test transforms a 32768-sample block several ways.  Were its
block-sized scratch (and the FFT's own) mapped afresh per test, every
test would take hundreds of minor page faults, each paid again on the
next.  The budget is counted with ``ru_minflt`` in a fresh interpreter,
so what earlier tests in this process have allocated cannot decide it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

WARMUP_TESTS = 3
MEASURED_TESTS = 20
#: Minor faults allowed across all measured tests together.
FAULT_BUDGET = 20

_CHILD = f"""
import resource

import numpy as np

from repro.dc.concentrator import DataConcentrator
from repro.netsim.kernel import EventKernel
from repro.obs.registry import MetricsRegistry
from repro.plant.chiller import ChillerSimulator
from repro.plant.faults import FaultKind, seeded

registry = MetricsRegistry()
dc = DataConcentrator(
    dc_id="dc:0",
    kernel=EventKernel(metrics=registry),
    sink=lambda report: None,
    rng=np.random.default_rng(0),
    metrics=registry,
)
sim = ChillerSimulator(rng=np.random.default_rng(1))
sim.inject(seeded(FaultKind.BEARING_WEAR, onset=0.0, severity=0.8))
machine = dc.attach_machine("obj:chiller-0", "A/C Compressor Motor 1", sim, 0)
block = sim.sample_vibration(32768)
block.setflags(write=False)
sim.sample_vibration = lambda n_samples: block


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


for i in range({WARMUP_TESTS}):
    dc.run_vibration_tests(60.0 * (i + 1))
before = minflt()
for i in range({WARMUP_TESTS}, {WARMUP_TESTS + MEASURED_TESTS}):
    dc.run_vibration_tests(60.0 * (i + 1))
print(minflt() - before, dc.reports_sent)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as Linux counts it")
def test_warm_vibration_tests_take_no_page_faults():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    faults, reports = map(int, out.stdout.split())
    # The block carries a fault, so the suites do report (the path under
    # budget includes report storage and the sink).
    assert reports > 0
    assert faults < FAULT_BUDGET, f"{faults} minor faults in {MEASURED_TESTS} warm tests"
