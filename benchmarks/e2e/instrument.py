"""Install the traced run's spans on the layers of a built system.

Instance attributes are patched wherever the caller looks the method up
at call time (the DC's scan methods, each suite's ``analyze`` /
``analyze_batch``, the uplink sink, RPC endpoints, the executive, the
fusion engines, shard workers and their stores, the gateway).  Module
attributes are patched only where the caller goes through module
globals: the ``repro.dsp.batch`` kernels, ``FeaturePipeline.process``
and the protocol encode/decode/canonical functions as the calling
module sees them.  Each workload runs in a fresh process, so nothing is
ever un-patched.
"""

from __future__ import annotations

from typing import Any

from benchmarks.e2e.spans import Tracer

_DSP_KERNELS = (
    "batch_spectrum",
    "batch_averaged_spectrum",
    "batch_envelope",
    "batch_envelope_spectrum",
    "batch_cepstrum",
)


def instrument_dsp(tracer: Tracer) -> None:
    """Span every batched DSP kernel and the block-reduction pipeline."""
    import repro.dsp.batch as batch
    from repro.hpc.pipeline import FeaturePipeline

    for kernel in _DSP_KERNELS:
        tracer.patch(batch, kernel, "dsp")
    tracer.patch(FeaturePipeline, "process", "hpc.pipeline")


def instrument_dc(tracer: Tracer, dc: Any) -> None:
    """Span one DC's three scans (each its own trace) and its suites."""
    from repro.algorithms.sbfr_source import SbfrKnowledgeSource

    tracer.patch(dc, "run_vibration_tests", "dc.vibration_tests", root=True)
    tracer.patch(dc, "run_process_scan", "dc.process_scan", root=True)
    tracer.patch(dc, "rms_alarm_scan", "dc.rms_scan", root=True)
    for source in dc.sources:
        name = "algorithms." + str(source.knowledge_source_id).split(":")[-1]
        for attr in ("analyze", "analyze_batch"):
            if hasattr(source, attr):
                tracer.patch(source, attr, name)
        if isinstance(source, SbfrKnowledgeSource):
            tracer.patch(source._grid, "cycle_rows", "sbfr.grid")


def instrument_sharded_pdme(tracer: Tracer, pdme: Any) -> None:
    """Span the shard router, each shard's engine and partition log.

    Call before anything captures ``pdme.submit_batch`` (the gateway
    keeps the bound method it was given as its writer).
    """
    import repro.oosm.persistence as persistence

    tracer.patch(pdme, "submit_batch", "pdme.shard.submit", root=True)
    for worker in pdme.workers:
        tracer.patch(worker.engine, "ingest_batch", "fusion.ingest")
        tracer.patch(worker.engine, "fused_snapshot", "fusion.snapshot")
        tracer.patch(worker.store, "ingest_batch", "oosm.store.ingest")
    tracer.patch(persistence, "encode_report", "protocol.encode")
