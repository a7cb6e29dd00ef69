"""The §6.3 'closer look' loop: PDME-side control of DC behaviour.

"Under control of the System Executive running in the PDME ..., new
finite-state machines may be downloaded into the smart sensor.  This
will allow the behavior of the sensor to adapt to its data in
appropriate ways.  It will have, for instance, the capability to take
a 'closer look' at a problem that has been discovered."
"""

import base64

import numpy as np
import pytest

from repro import build_mpros_system
from repro.algorithms.sbfr_source import SbfrKnowledgeSource, SbfrWatch
from repro.algorithms.base import SourceContext
from repro.plant.faults import FaultKind, seeded
from repro.sbfr import encode_machine, level_alarm_machine


def pdme_endpoint(system):
    # The PDME's endpoint is attached as "pdme"; reuse a DC endpoint to
    # issue control calls in tests (any client may command the DC,
    # §5.8).  We create a dedicated client endpoint instead.
    from repro.netsim.rpc import RpcEndpoint

    return RpcEndpoint("client:test", system.network, system.kernel)


# -- install_machine on the source directly ---------------------------------------

def test_install_machine_reports_on_fire():
    src = SbfrKnowledgeSource(
        watches=(SbfrWatch("superheat_c", 10.0, "mc:refrigerant-leak"),),
    )
    # Closer look: a tighter, faster alarm on the same channel.
    spec = level_alarm_machine(
        channel=src.channel_index("superheat_c"), threshold=6.0, hold_cycles=0
    )
    src.install_machine(spec, condition_id="mc:refrigerant-leak", severity=0.4)
    reports = []
    for t in range(4):
        ctx = SourceContext(
            sensed_object_id="obj:x", timestamp=float(t),
            process={"superheat_c": 8.0},  # above 6, below the stock 10
        )
        reports.extend(src.analyze(ctx))
    assert reports
    assert reports[0].machine_condition_id == "mc:refrigerant-leak"
    assert "closer-look" in reports[0].explanation


def test_installed_machine_fires_once_per_episode():
    src = SbfrKnowledgeSource(
        watches=(SbfrWatch("superheat_c", 10.0, "mc:refrigerant-leak"),),
    )
    spec = level_alarm_machine(channel=0, threshold=6.0, hold_cycles=0)
    src.install_machine(spec, "mc:refrigerant-leak")
    n = 0
    for t in range(6):
        ctx = SourceContext(
            sensed_object_id="obj:x", timestamp=float(t),
            process={"superheat_c": 8.0},
        )
        n += len(src.analyze(ctx))
    # Level alarm re-asserts while the excursion persists: one report
    # per cycle after entry is acceptable closer-look verbosity; the
    # key property is it stops when the signal recovers.
    assert n >= 1
    for t in range(6, 10):
        ctx = SourceContext(
            sensed_object_id="obj:x", timestamp=float(t),
            process={"superheat_c": 2.0},
        )
        assert src.analyze(ctx) == []


# -- the full RPC loop ----------------------------------------------------------------

def test_pdme_commands_dc_test_over_rpc():
    system = build_mpros_system(n_chillers=1, seed=0)
    system.inject_fault(
        system.units[0].motor, seeded(FaultKind.MOTOR_IMBALANCE, 0.0, 0.9)
    )
    client = pdme_endpoint(system)
    acks = []
    client.call("dc:0", "command_test", {"name": "vibration-test"},
                on_reply=acks.append)
    system.kernel.run_until(system.kernel.now() + 5.0)
    assert acks and acks[0]["ran"] == "vibration-test"
    # The commanded test produced reports without waiting for the
    # 10-minute schedule.
    system.kernel.run_until(system.kernel.now() + 5.0)
    assert system.reports_received() > 0


def test_pdme_downloads_closer_look_machine():
    system = build_mpros_system(n_chillers=1, seed=1)
    client = pdme_endpoint(system)

    # Discover the DC's SBFR channel table.
    channels = []
    client.call("dc:0", "list_channels", {},
                on_reply=lambda r: channels.extend(r["channels"]))
    system.kernel.run_until(system.kernel.now() + 1.0)
    assert "superheat_c" in channels

    # Author and download a tighter superheat alarm.
    spec = level_alarm_machine(
        channel=channels.index("superheat_c"), threshold=6.0, hold_cycles=1
    )
    payload = {
        "machine_b64": base64.b64encode(encode_machine(spec)).decode(),
        "condition_id": "mc:refrigerant-leak",
        "severity": 0.35,
        "name": "closer-look-superheat",
    }
    acks = []
    client.call("dc:0", "download_machine", payload, on_reply=acks.append)
    system.kernel.run_until(system.kernel.now() + 1.0)
    assert acks and acks[0]["installed"] >= 0

    # A mild leak that the stock threshold (10 C) misses but the
    # downloaded 6 C machine catches.
    system.inject_fault(
        system.units[0].motor,
        seeded(FaultKind.REFRIGERANT_LEAK, onset=system.kernel.now(), severity=0.35),
    )
    system.run(hours=1.0)
    reports = system.pdme.router.reports_for(system.units[0].motor)
    closer = [r for r in reports if "closer-look" in r.explanation]
    assert closer, "downloaded machine never fired"
    assert closer[0].severity == pytest.approx(0.35)


def test_download_to_dc_without_sbfr_errors_cleanly():
    import numpy as np

    from repro.dc import DataConcentrator
    from repro.netsim import EventKernel, Network, RpcEndpoint

    kernel = EventKernel()
    net = Network(kernel, np.random.default_rng(0))
    dc_ep = RpcEndpoint("dc:0", net, kernel)
    client = RpcEndpoint("client", net, kernel)
    dc = DataConcentrator(
        dc_id="dc:0", kernel=kernel, sink=lambda r: None,
        rng=np.random.default_rng(0), sources=[],
    )
    dc.serve_on(dc_ep)
    errors = []
    client.call("dc:0", "list_channels", {}, on_error=errors.append)
    kernel.run()
    assert errors  # surfaced as an RPC error, not a crash


def test_misauthored_download_rejected_at_boundary():
    """A machine referencing channels/peers this DC lacks is refused at
    download time (RPC error), never installed."""
    system = build_mpros_system(n_chillers=1, seed=2)
    client = pdme_endpoint(system)
    bad = level_alarm_machine(channel=99, threshold=1.0)  # no such channel
    errors = []
    client.call(
        "dc:0", "download_machine",
        {
            "machine_b64": base64.b64encode(encode_machine(bad)).decode(),
            "condition_id": "mc:x",
        },
        on_error=errors.append,
    )
    system.kernel.run_until(system.kernel.now() + 1.0)
    assert errors and "channel 99" in str(errors[0])
    # The DC keeps running normally afterwards.
    system.run(hours=0.25)


def test_statically_defective_download_refused_by_verifier():
    """A machine that is referentially valid but fails *static
    verification* (here: a dead transition making a state unreachable)
    is refused at the download boundary before installation."""
    from repro.sbfr import MachineSpec, State, Transition, cmp
    from repro.sbfr.spec import Input

    system = build_mpros_system(n_chillers=1, seed=3)
    client = pdme_endpoint(system)
    # The only edge into state 1 has a statically false guard: every
    # reference is in range, so only the verifier can catch it.
    bad = MachineSpec(
        "dead-end",
        (State("Wait"), State("Never")),
        (Transition(0, 1, cmp(1.0, ">", 2.0)),),
    )
    errors = []
    acks = []
    client.call(
        "dc:0", "download_machine",
        {
            "machine_b64": base64.b64encode(encode_machine(bad)).decode(),
            "condition_id": "mc:x",
        },
        on_reply=acks.append,
        on_error=errors.append,
    )
    system.kernel.run_until(system.kernel.now() + 1.0)
    assert not acks
    assert errors
    msg = str(errors[0])
    assert "static verification" in msg
    assert "sbfr.dead-transition" in msg
    assert "sbfr.unreachable-state" in msg
    # Never installed: the source still runs pure grid mode.
    source = system.dcs[0]._sbfr_source()
    assert source._systems is None
    system.run(hours=0.25)


def test_interpreter_bounds_checked():
    import pytest as _pytest

    from repro.common.errors import SbfrError
    from repro.sbfr import MachineSpec, SbfrSystem, State, Transition, cmp
    from repro.sbfr.spec import Input, Local, Status

    sys_ = SbfrSystem(channels=["a"])
    sys_.add_machine(MachineSpec(
        "bad-chan", (State("w"), State("x")),
        (Transition(0, 1, cmp(Input(7), ">", 0.0)),),
    ))
    with _pytest.raises(SbfrError):
        sys_.cycle({"a": 1.0})

    sys2 = SbfrSystem(channels=["a"])
    sys2.add_machine(MachineSpec(
        "bad-peer", (State("w"), State("x")),
        (Transition(0, 1, cmp(Status(9), "==", 0)),),
    ))
    with _pytest.raises(SbfrError):
        sys2.cycle({"a": 1.0})

    sys3 = SbfrSystem(channels=["a"])
    sys3.add_machine(MachineSpec(
        "bad-local", (State("w"), State("x")),
        (Transition(0, 1, cmp(Local(5), ">", 0.0)),),
        n_locals=1,
    ))
    with _pytest.raises(SbfrError):
        sys3.cycle({"a": 1.0})
