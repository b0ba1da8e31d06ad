"""Event-frame fusion toolkit.

Simulation of threshold-crossing events, voxel-grid rasterization, cross
modal feature fusion with hand-derived gradients, homographic frame/event
alignment, an anchor-based detection head, a 15-type image corruption
benchmark, and COCO-style robustness metrics. Pure numpy/scipy, no deep
learning framework required.
"""

from .errors import (
    DomainError,
    EvframeError,
    FormatError,
    ParseError,
    SchemaError,
    ShapeError,
    StateError,
    ValidationError,
)
from .formats_io import (
    CameraRig,
    DetectionRecord,
    DetectionTable,
    Event,
    EventStream,
    ImagePNM,
    decode_detections,
    decode_events,
    decode_image,
    decode_tensor,
    encode_detections,
    encode_events,
    encode_image,
    encode_tensor,
    parse_calibration,
    read_tensor,
    write_tensor,
)
from .event_core import (
    SimConfig,
    VoxelGrid,
    build_voxel_grid,
    modality_dropout,
    normalize_timestamps,
    simulate_events,
)
from .geometry_align import (
    Homography,
    compose_homography,
    warp_bbox,
    warp_image,
    warp_points,
)
from .fusion_cafr import (
    CafrGradients,
    CafrWeights,
    FeaturePair,
    bci_enhance,
    cafr_backward,
    cafr_forward,
    cafr_gradcheck,
    cross_self_attention,
    init_cafr_weights,
    load_weights,
    save_weights,
    tafr_refine,
)
from .detect_head import (
    Anchor,
    BBox,
    FeaturePyramid,
    FpnWeights,
    HeadConfig,
    HeadWeights,
    OffsetVector,
    build_fpn,
    decode_head,
    decode_offsets,
    encode_offsets,
    gen_anchors,
    gen_pyramid_anchors,
    head_forward,
    init_fpn_weights,
    init_head_weights,
    level_anchors,
)
from .eval_metrics import (
    MapResult,
    MpcReport,
    average_precision,
    build_mpc_report,
    iou_tlwh,
    map_coco,
    mpc,
    rpc,
)
from .corruption_bench import (
    CorruptionSpec,
    CorruptionType,
    apply_corruption,
    corrupt_dataset,
    corruption_seed,
    psnr,
)
from .demo import PipelineResult, run_pipeline_demo

__version__ = "0.1.0"

# Every public class and function imported above; submodules and dunders are
# not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
)
