"""§6.3 State-Based Feature Recognition.

"A technique for the hierarchical recognition of temporally correlated
features in multi-channel input ... a set of several enhanced
finite-state machines operating in parallel.  Each state machine can
transition based on sensor input, its own state, the state of another
state machine, measured elapsed time, or any logical combination of
these."

The package provides the machine spec (condition/action expression
AST), a compact binary encoding for footprint accounting and machine
download, the multi-machine interpreter, a numpy-vectorized batch
executor, and the paper's Figure-3 EMA spike/stiction machines.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sbfr.spec": [
        "And",
        "Const",
        "Delta",
        "Elapsed",
        "IncrLocal",
        "Input",
        "Local",
        "MachineSpec",
        "Not",
        "Or",
        "OrStatus",
        "SetLocal",
        "SetStatus",
        "State",
        "Status",
        "Transition",
        "cmp",
    ],
    "repro.sbfr.encode": ["decode_machine", "encode_machine", "encoded_size"],
    "repro.sbfr.interpreter": ["MachineState", "SbfrSystem"],
    "repro.sbfr.library": [
        "build_spike_machine",
        "build_stiction_machine",
        "count_threshold_machine",
        "level_alarm_machine",
    ],
    "repro.sbfr.batch": ["SbfrWatchGrid"],
})
