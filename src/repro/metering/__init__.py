"""Advanced Metering Infrastructure (AMI) substrate.

Models the physical metering layer of the paper's Section III/IV: smart
meters with realistic measurement error, compromise states (tampered
firmware or man-in-the-middle on the reporting link), upstream line taps
(Fig. 1), and the network that collects every meter's reading each
polling period.
"""

from repro.metering.errors_model import MeasurementErrorModel
from repro.metering.meter import SmartMeter, TamperSeal
from repro.metering.store import ReadingStore
from repro.metering.ami import AMINetwork
from repro.metering.channel import LossyChannel
from repro.metering.scramble import ScramblingChannel, scramble_series

__all__ = [
    "AMINetwork",
    "LossyChannel",
    "MeasurementErrorModel",
    "ReadingStore",
    "ScramblingChannel",
    "scramble_series",
    "SmartMeter",
    "TamperSeal",
]
