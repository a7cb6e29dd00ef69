#!/usr/bin/env python
"""§6.3's adaptive sensing: the PDME takes a "closer look".

A mild refrigerant leak sits below the DC's stock SBFR alarm
thresholds.  The PDME (playing the System Executive) notices weak fuzzy
evidence accumulating, authors a tighter superheat alarm machine,
downloads it into the DC's smart-sensor layer over RPC, and the
downloaded machine confirms the fault — "the capability to take a
'closer look' at a problem that has been discovered."

Run:  python examples/closer_look.py
"""

import base64

from repro import build_mpros_system
from repro.netsim.rpc import RpcEndpoint
from repro.plant.faults import FaultKind, seeded
from repro.sbfr import encode_machine, level_alarm_machine


def main() -> None:
    system = build_mpros_system(n_chillers=1, seed=11)
    motor = system.units[0].motor
    executive = RpcEndpoint("executive", system.network, system.kernel)

    print("Injecting a MILD refrigerant leak (severity 0.3)...")
    system.inject_fault(motor, seeded(FaultKind.REFRIGERANT_LEAK, onset=0.0, severity=0.3))
    system.run(hours=1.0)

    reports = system.pdme.router.reports_for(motor)
    sbfr_calls = [r for r in reports if r.knowledge_source_id == "ks:sbfr"]
    print(f"after 1 h: {len(reports)} report(s); "
          f"{len(sbfr_calls)} from the stock SBFR watches "
          f"(stock superheat threshold 10 C is too coarse)")

    print("\nPDME authors a tighter machine and downloads it into dc:0...")
    channels: list[str] = []
    executive.call("dc:0", "list_channels", {},
                   on_reply=lambda r: channels.extend(r["channels"]))
    system.kernel.run_until(system.kernel.now() + 1.0)
    spec = level_alarm_machine(
        channel=channels.index("superheat_c"), threshold=6.0, hold_cycles=2
    )
    acks = []
    executive.call(
        "dc:0", "download_machine",
        {
            "machine_b64": base64.b64encode(encode_machine(spec)).decode(),
            "condition_id": "mc:refrigerant-leak",
            "severity": 0.3,
            "name": "closer-look-superheat",
        },
        on_reply=acks.append,
    )
    system.kernel.run_until(system.kernel.now() + 1.0)
    print(f"  installed as machine #{acks[0]['installed']} "
          f"({acks[0]['bytes']} bytes over the wire)")

    print("\nRunning another hour with the closer-look machine in place...")
    system.run(hours=1.0)
    closer = [r for r in system.pdme.router.reports_for(motor)
              if "closer-look" in r.explanation]
    print(f"  closer-look confirmations: {len(closer)}")
    if closer:
        print(f"  first: {closer[0].summary()}")
        state = system.pdme.engine.diagnostic.state(motor, "refrigeration")
        print(f"  fused belief in mc:refrigerant-leak: "
              f"{state.beliefs['mc:refrigerant-leak']:.2f}")


if __name__ == "__main__":
    main()
