"""FIG2: the PDME browser screen.

Reproduces the sample screen's content — six condition reports from
four knowledge sources on "A/C Compressor Motor 1", some conflicting
and some reinforcing, with fused predictions per condition group — and
measures render/update rates ("this display is updated as new reports
arrive").
"""

from benchmarks._util import mean_seconds

from repro.common.units import months
from repro.oosm import build_chilled_water_ship
from repro.pdme import PdmeExecutive, render_machine_screen, render_priority_list
from repro.protocol import FailurePredictionReport, PrognosticVector



def _fig2_pdme():
    model, ship, units = build_chilled_water_ship(n_chillers=1)
    pdme = PdmeExecutive(model)
    motor = units[0].motor

    def rep(cond, belief, ks, pairs=()):
        return FailurePredictionReport(
            knowledge_source_id=ks,
            sensed_object_id=motor,
            machine_condition_id=cond,
            severity=0.5,
            belief=belief,
            timestamp=10.0,
            prognostic=PrognosticVector.from_pairs(list(pairs)),
        )

    # Six reports, four sources, conflicting and reinforcing.
    pdme.submit(rep("mc:motor-imbalance", 0.6, "ks:dli", [(months(3), 0.5)]))
    pdme.submit(rep("mc:motor-imbalance", 0.5, "ks:wnn"))
    pdme.submit(rep("mc:motor-imbalance", 0.4, "ks:sbfr"))
    pdme.submit(rep("mc:shaft-misalignment", 0.7, "ks:fuzzy"))
    pdme.submit(rep("mc:motor-rotor-bar", 0.5, "ks:dli"))
    pdme.submit(rep("mc:oil-contamination", 0.45, "ks:fuzzy"))
    return model, pdme, motor


def test_fig2_screen_render(benchmark):
    """Render the populated machine screen."""
    model, pdme, motor = _fig2_pdme()
    screen = benchmark(render_machine_screen, pdme, motor, 10.0)
    assert "6 report(s) from 4 knowledge source(s)" in screen
    assert "Fused failure predictions" in screen
    for group in ("[rotating-mechanical]", "[electrical]", "[lubricant]"):
        assert group in screen
    benchmark.extra_info["screen_lines"] = screen.count("\n") + 1


def test_priority_list_render(benchmark):
    """Render the prioritized maintenance list."""
    model, pdme, motor = _fig2_pdme()
    entries = pdme.priorities(now=10.0)
    text = benchmark(render_priority_list, entries)
    assert "prioritized maintenance list" in text
    benchmark.extra_info["entries"] = len(entries)


def test_live_update_rate(benchmark):
    """Reports/second the display pipeline sustains: submit + fuse +
    re-render on every arrival, as §3.2 describes."""
    model, pdme, motor = _fig2_pdme()
    counter = {"n": 0}

    def one_update():
        counter["n"] += 1
        pdme.submit(
            FailurePredictionReport(
                knowledge_source_id="ks:dli",
                sensed_object_id=motor,
                machine_condition_id="mc:motor-imbalance",
                severity=0.5,
                belief=0.1,
                timestamp=10.0 + counter["n"],
            )
        )
        render_machine_screen(pdme, motor, now=10.0 + counter["n"])

    benchmark(one_update)
    benchmark.extra_info["updates_per_second"] = f"{1.0 / mean_seconds(benchmark):,.0f}"
