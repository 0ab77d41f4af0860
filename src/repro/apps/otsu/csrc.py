"""Synthesizable C sources of the Otsu dataflow actors.

Each function is generated for a concrete image size (the stream depth
is a compile-time constant, as Vivado HLS requires for the array
interfaces).  Pixels travel as 32-bit stream words: packed ``0x00RRGGBB``
into ``grayScale``, one gray value per word elsewhere.

Resource-profile notes (these are what reproduce Table II's DSP/BRAM
mix): ``grayScale`` multiplies by 8-bit constants and carries an
allocation directive capping it to a single DSP multiplier;
``computeHistogram`` only increments a 256×32-bit BRAM;
``halfProbability`` does the float between-class-variance search (the
shared float multiplier costs 2 DSP48); ``segment`` is compare/select
only.
"""

from __future__ import annotations

from repro.util.errors import AppConfigError

#: Fixed-point ITU-R BT.601 luma coefficients (x/256).
LUMA_R, LUMA_G, LUMA_B = 77, 150, 29


def gray_scale_src(npix: int) -> str:
    return f"""
void grayScale(int imageIn[{npix}], int imageOutCH[{npix}], int imageOutSEG[{npix}]) {{
    for (int i = 0; i < {npix}; i++) {{
        int px = imageIn[i];
        int r = (px >> 16) & 255;
        int g = (px >> 8) & 255;
        int b = px & 255;
        int y = ({LUMA_R} * r + {LUMA_G} * g + {LUMA_B} * b) >> 8;
        imageOutCH[i] = y;
        imageOutSEG[i] = y;
    }}
}}
"""


def gray_scale_single_src(npix: int) -> str:
    """Single-output variant, used when only one consumer exists."""
    return f"""
void grayScale(int imageIn[{npix}], int imageOut[{npix}]) {{
    for (int i = 0; i < {npix}; i++) {{
        int px = imageIn[i];
        int r = (px >> 16) & 255;
        int g = (px >> 8) & 255;
        int b = px & 255;
        imageOut[i] = ({LUMA_R} * r + {LUMA_G} * g + {LUMA_B} * b) >> 8;
    }}
}}
"""


def compute_histogram_src(npix: int) -> str:
    return f"""
void computeHistogram(int grayScaleImage[{npix}], int histogram[256]) {{
    int local[256];
    for (int i = 0; i < 256; i++) {{
        local[i] = 0;
    }}
    for (int i = 0; i < {npix}; i++) {{
        int bin = grayScaleImage[i] & 255;
        local[bin] = local[bin] + 1;
    }}
    for (int i = 0; i < 256; i++) {{
        histogram[i] = local[i];
    }}
}}
"""


def half_probability_src(npix: int) -> str:
    """The ``otsuMethod`` actor: exhaustive between-class-variance search.

    The stream is read **once** (an axis port cannot be replayed) into a
    16-bit local copy — 4 Kbit, which maps to distributed LUT-RAM rather
    than a RAMB18, matching the paper's Arch2 BRAM count.  16-bit bins
    bound the image at 65535 pixels per gray level (any image up to
    255x257, or larger non-degenerate ones).
    """
    if npix >= 1 << 16:
        raise AppConfigError(
            "halfProbability's 16-bit histogram copy supports < 65536 pixels"
        )
    return f"""
const int NPIX = {npix};

void halfProbability(int histogram[256], int probability[1]) {{
    uint16 local[256];
    float sum = 0.0;
    for (int i = 0; i < 256; i++) {{
        int h = histogram[i];
        local[i] = h;
        sum = sum + (float)i * (float)h;
    }}
    float total = (float)NPIX;
    float sumB = 0.0;
    float wB = 0.0;
    float maxVar = 0.0;
    int threshold = 0;
    for (int t = 0; t < 256; t++) {{
        int h = local[t];
        wB = wB + (float)h;
        if (wB == 0.0) continue;
        float wF = total - wB;
        if (wF == 0.0) break;
        sumB = sumB + (float)t * (float)h;
        float mB = sumB / wB;
        float mF = (sum - sumB) / wF;
        float diff = mB - mF;
        float between = wB * wF * diff * diff;
        if (between > maxVar) {{
            maxVar = between;
            threshold = t;
        }}
    }}
    probability[0] = threshold;
}}
"""


def segment_src(npix: int) -> str:
    return f"""
void segment(int grayScaleImage[{npix}], int otsuThreshold[1], int segmentedGrayImage[{npix}]) {{
    int thr = otsuThreshold[0];
    for (int i = 0; i < {npix}; i++) {{
        segmentedGrayImage[i] = grayScaleImage[i] > thr ? 255 : 0;
    }}
}}
"""


#: Function-name aliases: paper Table I name -> Listing-4 actor name.
TABLE1_TO_ACTOR = {
    "grayScale": "grayScale",
    "histogram": "computeHistogram",
    "otsuMethod": "halfProbability",
    "binarization": "segment",
}

ACTOR_TO_TABLE1 = {v: k for k, v in TABLE1_TO_ACTOR.items()}


def all_sources(npix: int) -> dict[str, str]:
    """C source per actor name, for an ``npix``-pixel image."""
    return {
        "grayScale": gray_scale_src(npix),
        "computeHistogram": compute_histogram_src(npix),
        "halfProbability": half_probability_src(npix),
        "segment": segment_src(npix),
    }
