"""SSD device layer: channel/die timing on top of the FTL."""

from repro.ssd.device import Ssd
from repro.ssd.timing import TimingConfig, default_lane_channel_map

__all__ = [
    "Ssd",
    "TimingConfig",
    "default_lane_channel_map",
]
