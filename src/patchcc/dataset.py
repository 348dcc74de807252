"""Dataset manifests and the synthetic scene generator.

A dataset is a directory of 16-bit PPM images plus a JSON manifest listing,
per image: the path, the ground-truth illuminant, a cross-validation fold in
{0, 1, 2}, optional exclusion rectangles, and (for two-illuminant images) the
path of a per-pixel ground-truth map.

Synthetic scenes are random colored rectangles over a colored background plus
mild Gaussian noise, cast with illuminants drawn from a chromaticity box.
Generation is keyed per image by (seed, index), so the same seed and count
always produce byte-identical datasets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidIlluminantError, ParameterError
from .image import (
    Illuminant,
    LinearImage,
    cast_illuminant,
    compose_two_illuminants,
    load_illuminant_map_ppm,
    load_ppm16,
    normalize,
    save_illuminant_map_ppm,
    save_ppm16,
)
from .patches import ExclusionMask

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

# fewest and most rectangles in a synthetic scene
RECT_COUNT_RANGE = (6, 14)


@dataclass(frozen=True)
class ManifestEntry:
    image_path: str
    ground_truth_illuminant: tuple[float, float, float]
    fold: int
    exclusion_rects: tuple[tuple[int, int, int, int], ...] = ()
    gt_map_path: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    base_dir: str = "."

    def __post_init__(self):
        for e in self.entries:
            if e.fold not in (0, 1, 2):
                raise ParameterError(f"fold must be 0, 1 or 2, got {e.fold} for {e.image_path}")

    def resolve(self, rel: str) -> str:
        return os.path.join(self.base_dir, rel)


@dataclass(frozen=True, eq=False)
class LabeledImage:
    """One dataset sample: an image, its unit ground-truth illuminant, a CV
    fold, an optional exclusion mask, and an optional per-pixel gt map."""

    image_id: str
    image: LinearImage
    illuminant: Illuminant
    fold: int
    mask: ExclusionMask = field(default_factory=ExclusionMask)
    gt_map: np.ndarray | None = None


def save_manifest(manifest: DatasetManifest, path):
    doc = {
        "version": MANIFEST_VERSION,
        "entries": [
            {
                "image_path": e.image_path,
                "ground_truth_illuminant": list(e.ground_truth_illuminant),
                "fold": e.fold,
                "exclusion_rects": [list(r) for r in e.exclusion_rects],
                **({"gt_map_path": e.gt_map_path} if e.gt_map_path is not None else {}),
            }
            for e in manifest.entries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_entry(raw) -> ManifestEntry:
    """One manifest entry; KeyError, TypeError, ValueError or OverflowError
    if malformed."""
    entry = ManifestEntry(
        image_path=raw["image_path"],
        ground_truth_illuminant=tuple(float(v) for v in raw["ground_truth_illuminant"]),
        fold=int(raw["fold"]),
        exclusion_rects=tuple(tuple(int(v) for v in r) for r in raw.get("exclusion_rects", [])),
        gt_map_path=raw.get("gt_map_path"),
    )
    if not isinstance(entry.image_path, str) or not isinstance(entry.gt_map_path, (str, type(None))):
        raise TypeError("image_path and gt_map_path must be strings")
    if len(entry.ground_truth_illuminant) != 3:
        raise ValueError("ground_truth_illuminant needs 3 components")
    if any(len(r) != 4 for r in entry.exclusion_rects):
        raise ValueError("exclusion rectangles are (x, y, w, h)")
    return entry


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; any malformed content raises a `PipelineError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # RecursionError comes from deep nesting
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"manifest {path} is not valid UTF-8 JSON: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MANIFEST_VERSION:
        raise ParameterError(f"unsupported manifest version {version!r}")
    if not isinstance(doc.get("entries"), list):
        raise ParameterError("manifest has no list of entries")
    base_dir = os.path.dirname(os.path.abspath(path))
    entries = []
    for i, raw in enumerate(doc["entries"]):
        try:
            entry = _manifest_entry(raw)
        except KeyError as exc:
            raise ParameterError(f"manifest entry {i} has no {exc}") from exc
        # OverflowError comes from int() of an infinite value such as 1e999
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"manifest entry {i} is malformed: {exc}") from exc
        full = os.path.join(base_dir, entry.image_path)
        if not os.path.exists(full):
            raise ParameterError(f"manifest references missing image {full}")
        if entry.gt_map_path and not os.path.exists(os.path.join(base_dir, entry.gt_map_path)):
            raise ParameterError(f"manifest references missing gt map {entry.gt_map_path}")
        try:
            normalize(entry.ground_truth_illuminant)
        except InvalidIlluminantError as exc:
            raise ParameterError(f"bad ground truth for {entry.image_path}: {exc}") from exc
        entries.append(entry)
    return DatasetManifest(entries=tuple(entries), base_dir=base_dir)


def load_samples(manifest: DatasetManifest) -> list[LabeledImage]:
    samples = []
    for e in manifest.entries:
        gt_map = None
        if e.gt_map_path:
            gt_map = load_illuminant_map_ppm(manifest.resolve(e.gt_map_path))
        samples.append(
            LabeledImage(
                image_id=e.image_path,
                image=load_ppm16(manifest.resolve(e.image_path)),
                illuminant=normalize(e.ground_truth_illuminant),
                fold=e.fold,
                mask=ExclusionMask.from_rects(e.exclusion_rects),
                gt_map=gt_map,
            )
        )
    return samples


# --------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic scene generator.

    The illuminant chromaticity box samples (r, 1, b) with r and b uniform in
    the given ranges, then normalizes. `saturation` mixes rectangle colors
    toward gray (0 = gray scene, 1 = fully saturated).
    """

    count: int = 30
    width: int = 128
    height: int = 128
    seed: int = 0
    two_illuminant: bool = False
    gray_balance: bool = False
    white_patch: bool = False
    ill_red_range: tuple[float, float] = (0.4, 1.1)
    ill_blue_range: tuple[float, float] = (0.4, 1.1)
    saturation: float = 0.65
    noise_sigma: float = 0.01

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError("count must be >= 1")
        if self.width < 2 or self.height < 2:
            raise ParameterError("synthetic images must be at least 2x2")
        if not 0.0 <= self.saturation <= 1.0:
            raise ParameterError("saturation must be in [0, 1]")


def _random_color(rng, saturation: float) -> np.ndarray:
    color = rng.uniform(0.08, 0.95, size=3)
    gray = color.mean()
    return gray + saturation * (color - gray)


def sample_illuminant(rng, config: SynthConfig) -> Illuminant:
    r = rng.uniform(*config.ill_red_range)
    b = rng.uniform(*config.ill_blue_range)
    return normalize((r, 1.0, b))


def generate_scene(rng, config: SynthConfig) -> LinearImage:
    """A random rectangle collage with noise, values in [0, 1], no cast yet."""
    w, h = config.width, config.height
    scene = np.empty((h, w, 3))
    scene[:] = _random_color(rng, config.saturation)
    n_rects = int(rng.integers(RECT_COUNT_RANGE[0], RECT_COUNT_RANGE[1] + 1))
    for _ in range(n_rects):
        rw = int(rng.integers(max(2, w // 8), max(3, w // 2)))
        rh = int(rng.integers(max(2, h // 8), max(3, h // 2)))
        x = int(rng.integers(0, max(1, w - rw + 1)))
        y = int(rng.integers(0, max(1, h - rh + 1)))
        scene[y : y + rh, x : x + rw] = _random_color(rng, config.saturation)
    scene += rng.normal(0.0, config.noise_sigma, size=scene.shape)
    scene = np.clip(scene, 0.0, 1.0)
    if config.gray_balance:
        means = scene.reshape(-1, 3).mean(axis=0)
        scene = scene * (means.mean() / np.maximum(means, 1e-9))
        scene = scene * (0.95 / max(scene.max(), 1e-9))
    if config.white_patch:
        pw = max(3, w // 10)
        ph = max(3, h // 10)
        x = int(rng.integers(0, w - pw + 1))
        y = int(rng.integers(0, h - ph + 1))
        scene[y : y + ph, x : x + pw] = 1.0
    return LinearImage(scene)


def generate_dataset(out_dir, config: SynthConfig) -> str:
    """Write `count` cast scenes, gt maps for two-illuminant images, and a
    manifest with round-robin folds. Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i in range(config.count):
        rng = np.random.default_rng([config.seed, i])
        scene = generate_scene(rng, config)
        ill = sample_illuminant(rng, config)
        name = f"img_{i:03d}.ppm"
        gt_map_name = None
        if config.two_illuminant:
            right = sample_illuminant(rng, config)
            cast, gt_map = compose_two_illuminants(scene, ill, right)
            gt_map_name = f"img_{i:03d}_gt.ppm"
            save_illuminant_map_ppm(gt_map, os.path.join(out_dir, gt_map_name))
        else:
            cast = cast_illuminant(scene, ill)
        save_ppm16(cast, os.path.join(out_dir, name))
        entries.append(
            ManifestEntry(
                image_path=name,
                ground_truth_illuminant=tuple(float(v) for v in ill.rgb),
                fold=i % 3,
                gt_map_path=gt_map_name,
            )
        )
    manifest = DatasetManifest(entries=tuple(entries), base_dir=str(out_dir))
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    save_manifest(manifest, manifest_path)
    return manifest_path
