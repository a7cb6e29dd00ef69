"""§5.8 The Data Concentrator.

"The data concentrator is a open architecture ODBC compliant relational
database designed to store all of the instrumentation configuration
information, machinery configuration information, test schedules,
resultant measurements, diagnostic results, and condition reports.
The DC software is coordinated by an event scheduler."

Plus the Figure-5 acquisition hardware in simulation: two 16x4 MUX
cards with per-channel RMS detectors and a 4-channel DSP card.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dc.acquisition": [
        "AcquisitionChain",
        "DspCard",
        "MuxCard",
        "RmsDetectorBank",
    ],
    "repro.dc.concentrator": ["DataConcentrator", "MonitoredMachine"],
    "repro.dc.database": ["DcDatabase"],
    "repro.dc.scheduler": ["EventScheduler", "PeriodicTask"],
})
