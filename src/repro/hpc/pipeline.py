"""Chunked, vectorized feature pipelines.

The DC must reduce raw sample streams to scalar indicators (RMS, peak,
crest) fast enough to keep up with acquisition.  The pipeline processes
whole (n_channels, n_samples) blocks with a handful of vectorized passes
and writes results into pre-allocated output arrays — the "vectorize,
avoid copies, in-place" discipline from the HPC guides.  Spectral
features come from :mod:`repro.dsp`, computed once per scan for the
rules that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MprosError
from repro.obs.registry import MetricsRegistry, default_registry


@dataclass(frozen=True)
class ChannelSummary:
    """Per-channel scalar indicators for one block."""

    rms: np.ndarray
    peak: np.ndarray
    crest: np.ndarray


class FeaturePipeline:
    """Block-at-a-time scalar reduction over many channels.

    Parameters
    ----------
    n_channels / block_samples:
        Fixed block geometry (buffers are pre-allocated for it).
    sample_rate:
        Sampling rate of the blocks in Hz.
    """

    def __init__(
        self,
        n_channels: int,
        block_samples: int,
        sample_rate: float,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_channels < 1 or block_samples < 8:
            raise MprosError("need n_channels >= 1 and block_samples >= 8")
        if sample_rate <= 0:
            raise MprosError("sample_rate must be positive")
        self.n_channels = n_channels
        self.block_samples = block_samples
        self.sample_rate = sample_rate
        # Pre-allocated work and output buffers.
        self._sq = np.empty((n_channels, block_samples))
        self._rms = np.empty(n_channels)
        self._peak = np.empty(n_channels)
        self._crest = np.empty(n_channels)
        self.blocks_processed = 0
        self.points_processed = 0
        reg = metrics if metrics is not None else default_registry()
        self._m_blocks = reg.counter("hpc.pipeline.blocks")
        self._m_points = reg.counter("hpc.pipeline.points")

    def process(self, block: np.ndarray) -> ChannelSummary:
        """Reduce one block; returns views into the internal buffers.

        Callers that need to retain results across blocks must copy.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (self.n_channels, self.block_samples):
            raise MprosError(
                f"block must be ({self.n_channels}, {self.block_samples}), got {block.shape}"
            )
        np.square(block, out=self._sq)
        np.mean(self._sq, axis=1, out=self._rms)
        np.sqrt(self._rms, out=self._rms)
        np.abs(block, out=self._sq)
        np.max(self._sq, axis=1, out=self._peak)
        np.divide(
            self._peak,
            np.where(self._rms > 0, self._rms, 1.0),
            out=self._crest,
        )
        self.blocks_processed += 1
        self.points_processed += block.size
        self._m_blocks.inc()
        self._m_points.inc(block.size)
        return ChannelSummary(rms=self._rms, peak=self._peak, crest=self._crest)
