"""Template-matching spike sorting with sub-sample jitter cancellation.

The pipeline: load per-channel recordings (ingest), normalize to MAD units
(preprocess), find peaks (detect), cut fixed windows around them (events),
project onto principal components (reduce), group into neuron candidates
(cluster), build templates with derivatives (jitter), then iteratively
classify and subtract spikes from the trace (peel).  synth generates
recordings with known ground truth; cli drives everything end to end.
"""

__version__ = "0.1.0"

from .cluster import (ClusterResult, GmmModel, bagged_cluster, gmm_em,
                      kmeans, order_clusters)
from .config import PipelineConfig, load_config
from .detect import DetectionParams, PeakList, detect
from .errors import (ConfigError, DataFormatError, DegenerateDataError,
                     ParameterError, PeelSortError)
from .events import (CutSpec, EventSample, flag_superpositions, make_cuts,
                     non_superposed, optimal_cut_bounds, pointwise_mad)
from .ingest import (Recording, STAGE_NORMALIZED, STAGE_RAW, STAGE_RESIDUAL,
                     load_recording, save_channels)
from .jitter import JitterFit, aligned_center, build_templates, estimate_jitter
from .peel import (UNCLASSIFIED, Catalogue, Decision, DecisionTable,
                   classify_event, classify_events, load_catalogue, peel,
                   save_catalogue, subtract_spikes)
from .preprocess import MAD_SCALE, FilterSpec, highpass, mad, normalize
from .reduce import (PcaModel, ProjectedEvents, export_projections, fit_pca,
                     project, reconstruct)
from .synth import (GroundTruth, JitterModel, NeuronSpec, NoiseModel,
                    dog_template, generate, locust_like_neurons,
                    locust_like_scenario, render_spike_train, score_sorting,
                    sinc_shift)

__all__ = [
    "__version__",
    "Catalogue", "ClusterResult", "ConfigError", "CutSpec", "DataFormatError",
    "Decision", "DecisionTable", "DegenerateDataError", "DetectionParams",
    "EventSample", "FilterSpec", "GmmModel", "GroundTruth",
    "JitterFit", "JitterModel", "MAD_SCALE", "NeuronSpec", "NoiseModel",
    "ParameterError", "PcaModel", "PeakList", "PeelSortError",
    "PipelineConfig", "ProjectedEvents", "Recording",
    "STAGE_NORMALIZED", "STAGE_RAW", "STAGE_RESIDUAL", "UNCLASSIFIED",
    "aligned_center", "bagged_cluster", "build_templates", "classify_event",
    "classify_events", "detect", "dog_template",
    "estimate_jitter", "export_projections", "fit_pca",
    "flag_superpositions", "generate", "gmm_em", "highpass", "kmeans",
    "load_catalogue", "load_config", "load_recording",
    "locust_like_neurons", "locust_like_scenario", "mad", "make_cuts",
    "non_superposed", "normalize", "optimal_cut_bounds",
    "order_clusters", "peel", "pointwise_mad", "project", "reconstruct",
    "render_spike_train", "save_catalogue",
    "save_channels", "score_sorting", "sinc_shift", "subtract_spikes",
]
