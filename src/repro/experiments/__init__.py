"""Experiment drivers — one per paper table/figure, plus the §V
comparisons, the ablations and the extensions.

:data:`EXPERIMENTS` is the one table of runnable experiments, mapping
each ``repro list`` name to its paper item, driver and renderer;
``repro list``, ``repro run`` and ``scripts/check_records.py`` all read
it. Every driver takes ``mode`` in {smoke, paper, full} (or the
``REPRO_MODE`` environment variable) and a ``seed``, and returns an
:class:`~repro.analysis.ExperimentRecord`.
"""

from typing import Callable, Dict, Optional, Tuple

from .calibration import run_calibration
from .fig5 import run_fig5
from .fig6 import run_fig6
from .fig7_fig8 import run_fig7_fig8
from .fig9 import run_fig9
from .fig10_fig12 import run_fig10, run_fig12
from .fig11 import run_fig11
from .colocation import run_colocation
from .detection import run_detection_accuracy
from .numa import run_numa
from .related_work import run_bubble_comparison
from .robustness import run_robustness
from . import (
    ablations, calibration, colocation, common, detection, fig5, fig6,
    fig7_fig8, fig9, fig10_fig12, fig11, numa, related_work, robustness,
)

#: experiment id -> (description, run fn, render fn), in ``repro list``
#: order. The record a run writes is named by its own ``experiment_id``,
#: which differs from the id only for ``related_work``
#: (``related_work_bubble``).
EXPERIMENTS: Dict[str, Tuple[str, Callable, Optional[Callable]]] = {
    "calibration": (
        "Table I + Secs. II-A/III-A/III-C3 anchors",
        run_calibration, calibration.render,
    ),
    "fig5": ("Fig. 5: EHR model error", run_fig5, fig5.render),
    "fig6": ("Fig. 6: capacity under CSThrs", run_fig6, fig6.render),
    "fig7_fig8": (
        "Figs. 7-8: orthogonality", run_fig7_fig8, fig7_fig8.render,
    ),
    "fig9": ("Fig. 9: MCB degradation", run_fig9, fig9.render),
    "fig10": ("Fig. 10: MCB resource use", run_fig10, fig10_fig12.render),
    "fig11": ("Fig. 11: Lulesh degradation", run_fig11, fig11.render),
    "fig12": ("Fig. 12: Lulesh resource use", run_fig12, fig10_fig12.render),
    "related_work": (
        "Sec. V: bubble comparison",
        run_bubble_comparison, related_work.render,
    ),
    "ablation_prefetch": (
        "Ablation: prefetch degree", ablations.run_prefetch_ablation, None,
    ),
    "ablation_replacement": (
        "Ablation: replacement policy", ablations.run_replacement_ablation, None,
    ),
    "ablation_scale": (
        "Ablation: machine scale", ablations.run_scale_ablation, None,
    ),
    "ablation_bwthr_capacity": (
        "Ablation: BWThr L3 occupancy", ablations.run_bwthr_capacity_ablation, None,
    ),
    "ablation_noise": (
        "Ablation: noise amplification", ablations.run_noise_ablation, None,
    ),
    "ablation_model_vs_trace": (
        "Ablation: Eq.4 vs stack distance",
        ablations.run_model_vs_trace_ablation, None,
    ),
    "ablation_sampling": (
        "Ablation: set sampling accuracy", ablations.run_sampling_ablation, None,
    ),
    "ablation_quantum": (
        "Ablation: interleave quantum", ablations.run_quantum_ablation, None,
    ),
    "ablation_writeback": (
        "Ablation: writeback throttling", ablations.run_writeback_ablation, None,
    ),
    "detection_accuracy": (
        "Extension: measurement vs ground truth",
        run_detection_accuracy, detection.render,
    ),
    "colocation": (
        "Extension: co-location advisor", run_colocation, colocation.render,
    ),
    "robustness": (
        "Extension: statistical vs fixed-threshold onset",
        run_robustness, robustness.render,
    ),
    "numa": (
        "Extension: 2-socket local/remote asymmetry", run_numa, numa.render,
    ),
}

__all__ = [
    "EXPERIMENTS",
    "run_calibration",
    "run_fig5",
    "run_fig6",
    "run_fig7_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_bubble_comparison",
    "run_detection_accuracy",
    "run_colocation",
    "run_numa",
    "run_robustness",
    "related_work",
    "ablations",
    "common",
]
