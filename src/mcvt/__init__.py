"""Real-time multi-camera vehicle tracking."""

from .errors import McvtError
from .geo import CameraInfo, CameraTopology, GeoPoint, Homography, haversine_distance
from .ingest import Detection, FrameRecord, VehicleClass
from .mct import MctConfig, MultiCameraStore, MultiCameraTrack, supervisor_tick
from .metrics import evaluate_identity, evaluate_mota
from .pipeline import PipelineConfig, RunReport, run
from .sct import ConcludedTrack, SingleCameraTracker, TrackerParams

__version__ = "0.1.0"

__all__ = [
    "CameraInfo",
    "CameraTopology",
    "ConcludedTrack",
    "Detection",
    "FrameRecord",
    "GeoPoint",
    "Homography",
    "McvtError",
    "MctConfig",
    "MultiCameraStore",
    "MultiCameraTrack",
    "PipelineConfig",
    "RunReport",
    "SingleCameraTracker",
    "TrackerParams",
    "VehicleClass",
    "evaluate_identity",
    "evaluate_mota",
    "haversine_distance",
    "run",
    "supervisor_tick",
    "__version__",
]
