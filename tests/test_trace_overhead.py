"""Tracing must be cheap: ``trace=True`` adds <5% overhead.

Spans are coarse (phase / per-FD / per-component, never per-pair) and
hot-path counters only land as span attributes at span close, so a
traced run does the same inner-loop work as an untraced one. This test
pins that property on a workload large enough (300-tuple noisy HOSP
slice, ~50ms per repair) that the fixed per-run report cost — sampled
dataset fingerprint, RSS samples, span serialization — amortizes below
the threshold; on millisecond micro-workloads that fixed cost alone
would dominate the ratio.

Measurement design, tuned for a noisy shared runner whose jitter is
comparable to the 5% being asserted:

* CPU seconds (``time.process_time``), not wall clock — everything
  tracing adds is CPU work, and scheduler preemption would otherwise
  dominate the signal;
* each round times one traced and one untraced sample back to back,
  in alternating order, and an attempt takes the median of the
  ``ROUNDS`` per-round ratios. Host speed on a shared runner drifts by
  10% and more within seconds, which both samples of a round share, so
  it cancels in their ratio; a one-off interruption moves one ratio,
  not the median. (Per-side minima over the whole attempt did not
  settle: on a shared 2-vCPU host their ratio still spread from 0.94x
  to 1.51x at 15-30 rounds, while this median stayed within
  0.94x-1.08x);
* up to ``ATTEMPTS`` independent attempts, passing on the first clean
  one. Noise spikes are uncorrelated across attempts, so a flaky
  machine converges to a pass — while a genuine >5% regression shifts
  every attempt and still fails all of them.
"""

import statistics
import time

import pytest

from repro.core.engine import Repairer
from repro.generator.hosp import HOSP_FDS, generate_hosp, hosp_thresholds
from repro.generator.noise import NoiseConfig, inject_noise

ATTEMPTS = 3
ROUNDS = 21
REPAIRS_PER_SAMPLE = 1
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def hosp_slice():
    clean = generate_hosp(300, rng=7)
    dirty, _ = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    return dirty


def _repair_cpu_seconds(dirty, trace: bool) -> float:
    """CPU seconds for one sample of ``REPAIRS_PER_SAMPLE`` repairs."""
    repairer = Repairer(HOSP_FDS, thresholds=hosp_thresholds(), trace=trace)
    start = time.process_time()
    for _ in range(REPAIRS_PER_SAMPLE):
        repairer.repair(dirty)
    return time.process_time() - start


def _overhead_ratio(dirty) -> float:
    ratios = []
    for round_ in range(ROUNDS):
        if round_ % 2:
            traced = _repair_cpu_seconds(dirty, True)
            untraced = _repair_cpu_seconds(dirty, False)
        else:
            untraced = _repair_cpu_seconds(dirty, False)
            traced = _repair_cpu_seconds(dirty, True)
        ratios.append(traced / untraced)
    return statistics.median(ratios)


def test_trace_overhead_below_five_percent(hosp_slice):
    # warm both modes so imports/caches are paid before either is timed
    _repair_cpu_seconds(hosp_slice, False)
    _repair_cpu_seconds(hosp_slice, True)

    ratios = []
    for _ in range(ATTEMPTS):
        ratios.append(_overhead_ratio(hosp_slice))
        if ratios[-1] < 1.0 + MAX_OVERHEAD:
            return
    pytest.fail(
        f"tracing overhead exceeded {1.0 + MAX_OVERHEAD:.2f}x in every "
        f"attempt: {', '.join(f'{r:.3f}x' for r in ratios)}"
    )
