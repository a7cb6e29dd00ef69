"""Synthetic shipboard machinery — the paper-data substitution.

The original program collected live data from instrumented chillers on
ships and in labs; we have none of that, so this package synthesizes
it: rotating-machinery kinematics with textbook fault signatures
(imbalance, misalignment, bearing defects, gear wear, rotor-bar
damage), a physics-lite centrifugal-chiller process model, sensor
noise models, progressive fault-severity profiles for the 12 FMEA
candidate failure modes, and the EMA drive-current simulator behind
Figure 3.  See DESIGN.md §2 for why each substitution preserves the
behaviour the algorithms exercise.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.plant.chiller": [
        "ChillerConfig",
        "ChillerSimulator",
        "ProcessSample",
    ],
    "repro.plant.ema": ["EmaSimulator"],
    "repro.plant.faults": [
        "FMEA_CANDIDATES",
        "TURBINE_FMEA_CANDIDATES",
        "ActiveFault",
        "FaultKind",
        "SensorFault",
        "SensorFaultMode",
        "SeverityProfile",
        "VIBRATION_FAULTS",
        "PROCESS_FAULTS",
        "sensor_dropout",
        "sensor_stuck",
    ],
    "repro.plant.rotating": [
        "BearingGeometry",
        "MachineKinematics",
        "bearing_frequencies",
    ],
    "repro.plant.sensors": ["SensorModel"],
    "repro.plant.signals": ["VibrationSynthesizer"],
    "repro.plant.turbine": [
        "TURBINE_KINEMATICS",
        "TURBINE_NOMINALS",
        "TurbineConfig",
        "TurbineSimulator",
    ],
})
