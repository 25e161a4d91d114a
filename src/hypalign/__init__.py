"""Hyperbolic vision-language alignment on the Lorentz hyperboloid.

Modules:
  autodiff    reverse-mode tape over scalars and small arrays
  geometry    Lorentz-model primitives (lift, distance, cones, angles)
  objectives  training losses and composite objectives
  fusion      cross-modal attention, positional encoding, fusion MLP
  datasynth   region sampling, synthetic caption corpus, noise metric
  trainer     training loop, retrieval evaluation, hierarchy diagnostics
  cli         command-line entry points
"""

from .autodiff import GradientMap, Tape, Var, backward, finite_diff
from .datasynth import (ConceptTree, Corpus, SynonymMap,
                        caption_noise_metric, grid_sample, iou, nms,
                        proposal_sample, synth_corpus)
from .fusion import (AttentionWeights, FusionMlp, cross_modal_attention,
                     encode_boxes, fuse, positional_encode)
from .geometry import (Angle, LorentzPoint, cone_contains, exp_map_origin,
                       exterior_angle, half_aperture, lorentz_distance)
from .objectives import (LossReport, LossWeights, bbox_regression_loss,
                         classification_loss, entailment_loss,
                         euclidean_contrastive_loss,
                         hyperbolic_contrastive_loss, objective_baseline,
                         objective_det, objective_hyper)
from .trainer import (ExperimentConfig, HierarchyReport, MetricsRecord,
                      ModelState, evaluate_retrieval, hierarchy_report, init,
                      step, train)

__version__ = "0.1.0"
