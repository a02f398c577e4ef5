"""Application models and workload generators used by the experiments."""

from .video import VideoQualityReport, VideoReceiver, VideoStream
from .voip import DEFAULT_VOIP_PORT, VoipCall, VoipQualityReport, VoipReceiver
from .web import WebClient, WebServer, WebTransferResult
from .workloads import ConstantRateSource, KeySetupFlood, PoissonSource

__all__ = [
    "VideoQualityReport",
    "VideoReceiver",
    "VideoStream",
    "DEFAULT_VOIP_PORT",
    "VoipCall",
    "VoipQualityReport",
    "VoipReceiver",
    "WebClient",
    "WebServer",
    "WebTransferResult",
    "ConstantRateSource",
    "KeySetupFlood",
    "PoissonSource",
]
