"""End-to-end game-streaming simulation: server, client designs, sessions."""

from .abr import ABRController, ABRRung, DEFAULT_LADDER, build_abr
from .adaptive import AdaptiveRoIController
from .client import (
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
    StreamingClient,
)
from .frames import ClientFrameResult, ROI_METADATA_BYTES, ServerFrame, StreamGeometry
from .mtp import MTP_STAGES, MTPBreakdown, mtp_from_frame, mtp_from_trace
from .pipeline import (
    CLIENT_STAGES,
    ENERGY_CATEGORIES,
    EnergyAttribution,
    FrameTrace,
    PipelineSchedule,
    SERVER_STAGES,
    Stage,
    StageSpan,
    TransmissionSplit,
    modeled_pipeline_schedule,
    split_transmission,
)
from .server import GameStreamServer
from .session import (
    FrameRecord,
    SessionResult,
    apply_client_knobs,
    energy_from_trace,
    energy_of_frame,
    run_session,
)

__all__ = [
    "ABRController",
    "ABRRung",
    "AdaptiveRoIController",
    "BilinearClient",
    "CLIENT_STAGES",
    "ClientFrameResult",
    "DEFAULT_LADDER",
    "ENERGY_CATEGORIES",
    "EnergyAttribution",
    "FrameRecord",
    "FrameTrace",
    "FullFrameSRClient",
    "GameStreamSRClient",
    "GameStreamServer",
    "MTPBreakdown",
    "MTP_STAGES",
    "NemoClient",
    "PipelineSchedule",
    "ROI_METADATA_BYTES",
    "SERVER_STAGES",
    "SRIntegratedDecoderClient",
    "ServerFrame",
    "SessionResult",
    "Stage",
    "StageSpan",
    "StreamGeometry",
    "StreamingClient",
    "TransmissionSplit",
    "apply_client_knobs",
    "build_abr",
    "energy_from_trace",
    "energy_of_frame",
    "modeled_pipeline_schedule",
    "mtp_from_frame",
    "mtp_from_trace",
    "run_session",
    "split_transmission",
]
