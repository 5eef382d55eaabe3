"""Deterministic synthetic depth maps and feature clusters.

Everything here is a pure function of its spec, including the ``seed``
field: the random source is a counter-based SplitMix64 stream (the 64-bit
finalizer applied to ``seed + counter * golden-ratio``), with uniforms
taken as the top 53 bits and Gaussians via the Box-Muller transform.  The
generator family, the per-purpose stream tags, and the draw order are part
of the artifact's format contract (see ``docs/formats.md``), so identical
specs reproduce identical bytes on one platform and identical statistics
everywhere.

Depth surfaces
    ``CURVED_FACE`` is an ellipsoidal cap (face-like relief) rising toward
    the sensor from a flat background, ``PLANAR_SHIRT`` a fronto-parallel
    plane, and ``WRINKLED_SHIRT`` a plane with sinusoidal relief (vertical
    cloth folds).  Gaussian sensor noise is added, values are quantised to
    integer millimetres (valid pixels clamped to 1..65535 so they cannot
    collide with the no-measurement sentinel 0), and a requested fraction
    of pixels is dropped to 0.  Each map comes with the fixed 468-point
    landmark template scaled into the central face region.

Feature clusters
    Bona fide rows are an isotropic unit-variance Gaussian centred at
    ``center_norm`` times a seeded random unit direction; attack rows sit
    ``mean_separation`` closer to the origin along the same direction.
    Placing the bona fide cluster away from the origin (rather than on it)
    and the attacks radially inward keeps the clusters exactly
    ``mean_separation`` apart in units of the within-cluster deviation
    while remaining separable by an origin-anchored linear one-class
    decision; an origin-centred cloud would make any such half-space
    detector degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DepthMap, FeatureMatrix, Label, LandmarkSet, PresentationLabel, ValidationError

__all__ = [
    "SpecError",
    "DepthKind",
    "SynthDepthSpec",
    "SynthFeatureSpec",
    "gen_depth",
    "gen_features",
    "landmark_template",
    "LANDMARK_TEMPLATE_SIZE",
]


class SpecError(ValidationError):
    """A generator spec field is out of its documented range."""


# ---------------------------------------------------------------------------
# counter-based random stream

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = float(2**-53)

# Stream tags (xor-ed into the seed) keep independent draw purposes apart.
_TAG_DEPTH_NOISE = 0x6465707468316E73
_TAG_DEPTH_INVALID = 0x64657074682D696E
_TAG_FEAT_DIRECTION = 0x666561742D646972
_TAG_FEAT_BONAFIDE = 0x666561742D626F6E
_TAG_FEAT_ATTACK = 0x666561742D61746B


def _mix64(z: np.ndarray | int):
    # uint64 multiplication wraps mod 2**64 by design
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise SpecError(f"seed must be an integer in [0, 2**64), got {seed!r}")


class _Stream:
    """One seeded, tagged draw sequence; positions advance per draw."""

    def __init__(self, seed: int, tag: int):
        _check_seed(seed)
        self._base = int(_mix64((seed ^ tag) & _MASK64))
        self._pos = 0

    def _bits(self, count: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        with np.errstate(over="ignore"):
            keys = np.uint64(self._base) + idx * np.uint64(_GOLDEN)
        return _mix64(keys)

    def uniform(self, count: int) -> np.ndarray:
        """IID uniforms in [0, 1), one per counter value."""
        return (self._bits(count) >> np.uint64(11)).astype(np.float64) * _U53

    def normal(self, count: int) -> np.ndarray:
        """IID standard Gaussians via Box-Muller on uniform pairs."""
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1 - u in (0, 1], log finite
        angle = 2.0 * math.pi * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]


# ---------------------------------------------------------------------------
# depth maps

LANDMARK_TEMPLATE_SIZE = 468
_TEMPLATE_GRID = 22  # 22 x 22 = 484 grid points; the first 468 are used
_TEMPLATE_SPREAD = 0.7  # landmark extent relative to the face ellipse axes
_FACE_RX = 0.35  # face ellipse semi-axes as fractions of map size
_FACE_RY = 0.42
_MAX_DEPTH_PIXELS = 2**22  # 2048 x 2048: its work arrays peak near 300 MB (74 MB per 2**20 pixels)


class DepthKind(Enum):
    CURVED_FACE = "curved-face"
    PLANAR_SHIRT = "planar-shirt"
    WRINKLED_SHIRT = "wrinkled-shirt"


@dataclass(frozen=True)
class SynthDepthSpec:
    """Parameters of one synthetic depth capture.

    ``curvature_amp_mm`` applies to ``CURVED_FACE`` (cap height toward the
    sensor), ``wrinkle_amp_mm``/``wrinkle_wavelength_px`` to
    ``WRINKLED_SHIRT``; the irrelevant fields are ignored by the other
    kinds.
    """

    kind: DepthKind
    width: int = 128
    height: int = 128
    base_depth_mm: float = 1000.0
    curvature_amp_mm: float = 20.0
    wrinkle_amp_mm: float = 3.0
    wrinkle_wavelength_px: float = 24.0
    noise_sigma_mm: float = 1.0
    invalid_fraction: float = 0.0
    seed: int = 0


def _check_depth_spec(spec: SynthDepthSpec) -> None:
    if not isinstance(spec.kind, DepthKind):
        raise SpecError(f"kind must be a DepthKind, got {spec.kind!r}")
    if spec.width < 8 or spec.height < 8:
        raise SpecError("maps smaller than 8x8 cannot hold the landmark template")
    # Python ints: an int64 product can wrap, and a float one overflow
    if int(spec.width) * int(spec.height) > _MAX_DEPTH_PIXELS:
        raise SpecError(f"maps larger than {_MAX_DEPTH_PIXELS} pixels (width x height) are refused")
    for name in ("base_depth_mm", "curvature_amp_mm", "wrinkle_amp_mm", "noise_sigma_mm"):
        v = getattr(spec, name)
        if not math.isfinite(v) or v < 0:
            raise SpecError(f"{name} must be finite and non-negative, got {v!r}")
    if not (1.0 <= spec.base_depth_mm <= 65535.0):
        raise SpecError(f"base_depth_mm must lie in [1, 65535], got {spec.base_depth_mm!r}")
    if not (spec.wrinkle_wavelength_px > 0) or not math.isfinite(spec.wrinkle_wavelength_px):
        raise SpecError(f"wrinkle_wavelength_px must be positive, got {spec.wrinkle_wavelength_px!r}")
    if not math.isfinite(2.0 * math.pi * (spec.width - 1) / spec.wrinkle_wavelength_px):
        raise SpecError(f"wrinkle_wavelength_px {spec.wrinkle_wavelength_px!r} makes the fold phase overflow")
    if not (0.0 <= spec.invalid_fraction < 1.0):
        raise SpecError(f"invalid_fraction must lie in [0, 1), got {spec.invalid_fraction!r}")
    # reject bad seeds even when no stream ends up being drawn from
    _check_seed(spec.seed)


def landmark_template(width: int, height: int) -> LandmarkSet:
    """The fixed 468-point grid template scaled into the central face region.

    Points run row-major over a 22 x 22 lattice spanning the inner 70% of
    the face ellipse axes (so every point lies inside the face ellipse and
    well inside the map), truncated to 468 points.
    """
    ticks = np.linspace(-1.0, 1.0, _TEMPLATE_GRID)
    v, u = np.meshgrid(ticks, ticks, indexing="ij")
    u = u.ravel()[:LANDMARK_TEMPLATE_SIZE]
    v = v.ravel()[:LANDMARK_TEMPLATE_SIZE]
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    x = cx + u * _TEMPLATE_SPREAD * _FACE_RX * width
    y = cy + v * _TEMPLATE_SPREAD * _FACE_RY * height
    return LandmarkSet(points=np.column_stack([x, y]))


def gen_depth(spec: SynthDepthSpec) -> tuple[DepthMap, LandmarkSet]:
    """Render one synthetic depth map plus its landmark template.

    Deterministic in every spec field; see the module docstring for the
    surface models and the randomness contract.
    """
    _check_depth_spec(spec)
    w, h = spec.width, spec.height
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    x, y = np.meshgrid(cols, rows)

    if spec.kind is DepthKind.PLANAR_SHIRT:
        surface = np.full((h, w), spec.base_depth_mm, dtype=np.float64)
    elif spec.kind is DepthKind.WRINKLED_SHIRT:
        relief = spec.wrinkle_amp_mm * np.sin(2.0 * math.pi * x / spec.wrinkle_wavelength_px)
        surface = spec.base_depth_mm + relief
    else:  # CURVED_FACE
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        r2 = ((x - cx) / (_FACE_RX * w)) ** 2 + ((y - cy) / (_FACE_RY * h)) ** 2
        cap = np.sqrt(np.maximum(0.0, 1.0 - r2))
        surface = spec.base_depth_mm - spec.curvature_amp_mm * cap

    if spec.noise_sigma_mm > 0.0:
        noise = _Stream(spec.seed, _TAG_DEPTH_NOISE).normal(w * h).reshape(h, w)
        with np.errstate(over="ignore"):  # an overflowing sum is +-inf, which clamps below
            surface = surface + spec.noise_sigma_mm * noise

    quantised = np.floor(surface + 0.5)
    quantised = np.clip(quantised, 1.0, 65535.0).astype(np.uint16)

    if spec.invalid_fraction > 0.0:
        gaps = _Stream(spec.seed, _TAG_DEPTH_INVALID).uniform(w * h).reshape(h, w)
        quantised = np.where(gaps < spec.invalid_fraction, 0, quantised).astype(np.uint16)

    return DepthMap(values=quantised), landmark_template(w, h)


# ---------------------------------------------------------------------------
# feature clusters


#: synth-gen features traces about 170 bytes per value at d = 1, where each row's id
#: and label cost most, and about 208 for two rows, where the header and each row's
#: text block hold a string per value; about 28 at d = 16: at most about 900 MB
_MAX_FEATURE_VALUES = 2**22


@dataclass(frozen=True)
class SynthFeatureSpec:
    """Parameters of one two-cluster synthetic feature draw.

    Cluster geometry: bona fide mean at ``center_norm * u`` for a seeded
    random unit direction ``u``; attack mean ``mean_separation`` closer to
    the origin along ``u``; both clusters have identity covariance, so
    ``mean_separation`` is measured in units of the within-cluster
    standard deviation.
    """

    n_bonafide: int
    n_attack: int
    d: int = 16
    mean_separation: float = 4.0
    center_norm: float = 10.0
    seed: int = 0


def gen_features(spec: SynthFeatureSpec) -> tuple[FeatureMatrix, list[Label]]:
    """Draw the two clusters; rows are bona fide first, then attacks.

    Returns the features (ids ``bf_00000...``/``atk_00000...``) and the
    aligned ground-truth labels.
    """
    if spec.n_bonafide < 1 or spec.n_attack < 1:
        raise SpecError("n_bonafide and n_attack must be at least 1")
    if spec.d < 1:
        raise SpecError(f"d must be at least 1, got {spec.d}")
    # Python ints, as for the depth maps
    if (int(spec.n_bonafide) + int(spec.n_attack)) * int(spec.d) > _MAX_FEATURE_VALUES:
        raise SpecError(
            f"draws of more than {_MAX_FEATURE_VALUES} values ((n_bonafide + n_attack) x d) are refused"
        )
    if not math.isfinite(spec.mean_separation) or spec.mean_separation < 0:
        raise SpecError(f"mean_separation must be finite and non-negative, got {spec.mean_separation!r}")
    if not math.isfinite(spec.center_norm) or spec.center_norm <= 0:
        raise SpecError(f"center_norm must be finite and positive, got {spec.center_norm!r}")

    direction = _Stream(spec.seed, _TAG_FEAT_DIRECTION).normal(spec.d)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction = np.zeros(spec.d)
        direction[0] = 1.0
    else:
        direction = direction / norm

    bona_mean = spec.center_norm * direction
    attack_mean = (spec.center_norm - spec.mean_separation) * direction
    bona = bona_mean + _Stream(spec.seed, _TAG_FEAT_BONAFIDE).normal(
        spec.n_bonafide * spec.d
    ).reshape(spec.n_bonafide, spec.d)
    attack = attack_mean + _Stream(spec.seed, _TAG_FEAT_ATTACK).normal(
        spec.n_attack * spec.d
    ).reshape(spec.n_attack, spec.d)

    ids = [f"bf_{i:05d}" for i in range(spec.n_bonafide)]
    ids += [f"atk_{i:05d}" for i in range(spec.n_attack)]
    labels: list[Label] = [PresentationLabel.BONA_FIDE] * spec.n_bonafide
    labels += [PresentationLabel.ATTACK] * spec.n_attack
    matrix = FeatureMatrix(sample_ids=tuple(ids), values=np.vstack([bona, attack]))
    return matrix, labels
