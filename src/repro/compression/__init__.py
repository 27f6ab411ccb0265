"""Framebuffer compression codecs.

Paper §6: "Image compression methods are presently being investigated;
these are required for the render work distribution and for transmission to
thin clients.  Special attention is required for the thin client, as it may
use a wireless network whose bandwidth is both low and highly variable ...
We need a compression algorithm that can adapt on the fly to changing
network conditions."

Implemented codecs (all real encoders/decoders over the actual pixels):

- :mod:`repro.compression.rle` — run-length coding (flat-shaded frames
  compress extremely well);
- :mod:`repro.compression.quantize` — RGB565 quantization (fixed 2/3 rate);
- :mod:`repro.compression.delta` — inter-frame deltas against a reference;
- :mod:`repro.compression.adaptive` — the adaptive controller: picks the
  cheapest codec that meets a latency budget at the currently-measured
  bandwidth.

Importing the package imports every codec, unlike the other packages'
lazy exports (:mod:`repro._lazy`), so ``Codec.__subclasses__()`` is the
whole family from the first import; the benchmark's tracer wraps the
subclasses it finds when it installs.
"""

from repro.compression.base import Codec, EncodedFrame, RawCodec
from repro.compression.rle import RleCodec
from repro.compression.quantize import Rgb565Codec
from repro.compression.delta import DeltaCodec
from repro.compression.adaptive import AdaptiveCodec, BandwidthEstimator

__all__ = [
    "Codec",
    "EncodedFrame",
    "RawCodec",
    "RleCodec",
    "Rgb565Codec",
    "DeltaCodec",
    "AdaptiveCodec",
    "BandwidthEstimator",
]
