"""SYnergy: the paper's primary contribution.

- :class:`~repro.core.queue.SynergyQueue` — the ``synergy::queue`` of §4:
  a SYCL queue extended with per-kernel energy profiling, frequency scaling
  and energy-target submission,
- :mod:`~repro.core.profiling` — coarse (device) and fine (per-kernel)
  energy profiling on top of the sampled power sensor,
- :mod:`~repro.core.frequency` — the frequency-scaling path with the §4.4
  clock-switch overhead accounting,
- :mod:`~repro.core.models` — the four single-target energy models
  ``F_t, F_e, F_edp, F_ed2p`` of §6 and training-set construction,
- :mod:`~repro.core.predictor` — the per-target frequency search (§6.2 ⑥),
- :mod:`~repro.core.compiler` — the compile-time pipeline: feature
  extraction → model inference → frequency plan embedded in the binary,
- :mod:`~repro.core.sweepcache` — the keyed cache for analytic frequency
  sweeps and predicted metric curves (docs/PERFORMANCE.md).
"""

from repro.core.compiler import CompiledApplication, FrequencyPlan, SynergyCompiler
from repro.core.frequency import FrequencyScaler
from repro.core.models import EnergyModelBundle, TrainingSet, build_training_set
from repro.core.multigpu import DistributedEvent, MultiGpuSynergyQueue
from repro.core.online import OnlineFrequencyTuner, tune_kernel_online
from repro.core.persistence import load_bundle, save_bundle
from repro.core.predictor import FrequencyPredictor
from repro.core.profiling import EnergyProfiler
from repro.core.queue import SynergyQueue
from repro.core.sweepcache import SweepCache

__all__ = [
    "SynergyQueue",
    "MultiGpuSynergyQueue",
    "DistributedEvent",
    "EnergyProfiler",
    "FrequencyScaler",
    "EnergyModelBundle",
    "TrainingSet",
    "build_training_set",
    "FrequencyPredictor",
    "SynergyCompiler",
    "CompiledApplication",
    "FrequencyPlan",
    "save_bundle",
    "load_bundle",
    "OnlineFrequencyTuner",
    "tune_kernel_online",
    "SweepCache",
]
