import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.dataset import (
    DatasetManifest,
    ManifestEntry,
    SynthConfig,
    generate_dataset,
    load_manifest,
    load_samples,
    save_manifest,
)
from patchcc.errors import ParameterError, PipelineError
from patchcc.evaluation import angular_error
from patchcc.image import save_ppm16, LinearImage
from patchcc.minkowski import minkowski_estimate, preset

from helpers import JSON_VALUES


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


ENTRY_KEYS = ("image_path", "ground_truth_illuminant", "fold", "exclusion_rects", "gt_map_path")

# JSON values, plus the infinities and NaN that Python's JSON reader accepts
FIELD_VALUES = JSON_VALUES | st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308])

VALID_ENTRIES = st.fixed_dictionaries(
    {"image_path": st.just("img.ppm"),
     "ground_truth_illuminant": st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
     "fold": st.integers(0, 2)},
    optional={"exclusion_rects": st.lists(st.lists(st.integers(-9, 99), min_size=4, max_size=4),
                                          max_size=2),
              "gt_map_path": st.just("img.ppm")},
)


@st.composite
def manifest_files(draw):
    """Manifest file bytes and whether they are valid: a document of valid
    entries; one whose entries mix valid ones, valid ones with one field
    drawn, objects of entry keys (or any text) with drawn values, and any
    values; any JSON value; or any bytes."""
    kind = draw(st.sampled_from(["valid", "mixed", "json", "bytes"]))
    if kind == "valid":
        doc = {"version": 1, "entries": draw(st.lists(VALID_ENTRIES, max_size=3))}
    elif kind == "mixed":
        entries = []
        for _ in range(draw(st.integers(0, 3))):
            form = draw(st.sampled_from(["valid", "one_field", "any_fields", "any"]))
            if form in ("valid", "one_field"):
                entry = draw(VALID_ENTRIES)
                if form == "one_field":
                    entry[draw(st.sampled_from(ENTRY_KEYS))] = draw(FIELD_VALUES)
            elif form == "any_fields":
                keys = st.sampled_from(ENTRY_KEYS) | st.text(max_size=3)
                entry = draw(st.dictionaries(keys, FIELD_VALUES, max_size=6))
            else:
                entry = draw(FIELD_VALUES)
            entries.append(entry)
        doc = {"version": draw(st.just(1) | FIELD_VALUES), "entries": entries}
    elif kind == "json":
        doc = draw(FIELD_VALUES)
    else:
        return draw(st.binary(max_size=64)), False
    return json.dumps(doc).encode(), kind == "valid"


class TestManifest:
    @settings(max_examples=150, deadline=None)
    @given(manifest_files())
    @example((b'{"version": 1, "entries": [{"image_path": "img.ppm", '
              b'"ground_truth_illuminant": [1, 1, 1], "fold": 1e999}]}', False))
    @example((b'{"version": 1, "entries": [{"image_path": "img.ppm", '
              b'"ground_truth_illuminant": [1, 1, 1], "fold": 0, '
              b'"exclusion_rects": [[0, 0, 1e999, 4]]}]}', False))
    @example((b'{"version": 1, "entries": ' + b"[" * 100000 + b"]" * 100000 + b"}", False))
    @example((b'{"version": 1, "entries": [{"image_path": "img.ppm", '
              b'"ground_truth_illuminant": [1, 1, 1], "fold": 0, "gt_map_path": ""}]}', False))
    def test_round_trip_or_pipeline_error(self, case):
        data, valid = case
        with tempfile.TemporaryDirectory() as tmp:
            save_ppm16(LinearImage(np.full((2, 2, 3), 0.5)), os.path.join(tmp, "img.ppm"))
            path = os.path.join(tmp, "manifest.json")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                manifest = load_manifest(path)
            except PipelineError:
                assert not valid
                return
            save_manifest(manifest, path)
            assert load_manifest(path).entries == manifest.entries

    def test_roundtrip(self, tmp_path):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.full((2, 2, 3), 0.5)), img_path)
        manifest = DatasetManifest(
            entries=(
                ManifestEntry(
                    image_path="img.ppm",
                    ground_truth_illuminant=(0.5, 0.7, 0.3),
                    fold=1,
                    exclusion_rects=((1, 2, 3, 4),),
                ),
            ),
            base_dir=str(tmp_path),
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.entries == manifest.entries

    def test_missing_image_rejected(self, tmp_path):
        doc = {"version": 1, "entries": [{
            "image_path": "nope.ppm",
            "ground_truth_illuminant": [1, 1, 1],
            "fold": 0,
            "exclusion_rects": [],
        }]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="missing image"):
            load_manifest(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ParameterError, match="version"):
            load_manifest(path)

    def test_bad_fold(self, tmp_path):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.full((2, 2, 3), 0.5)), img_path)
        doc = {"version": 1, "entries": [{
            "image_path": "img.ppm",
            "ground_truth_illuminant": [1, 1, 1],
            "fold": 3,
            "exclusion_rects": [],
        }]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="fold"):
            load_manifest(path)

    def test_bad_ground_truth(self, tmp_path):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.full((2, 2, 3), 0.5)), img_path)
        doc = {"version": 1, "entries": [{
            "image_path": "img.ppm",
            "ground_truth_illuminant": [0, 0, 0],
            "fold": 0,
            "exclusion_rects": [],
        }]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="ground truth"):
            load_manifest(path)


class TestSynth:
    def test_bit_identical_for_same_seed(self, tmp_path):
        cfg = SynthConfig(count=6, width=48, height=48, seed=7)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, cfg)
        generate_dataset(b, cfg)
        assert tree_bytes(a) == tree_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, SynthConfig(count=3, width=32, height=32, seed=1))
        generate_dataset(b, SynthConfig(count=3, width=32, height=32, seed=2))
        assert tree_bytes(a) != tree_bytes(b)

    def test_folds_round_robin(self, tmp_path):
        manifest = load_manifest(generate_dataset(
            tmp_path / "d", SynthConfig(count=7, width=32, height=32, seed=3)))
        assert [e.fold for e in manifest.entries] == [0, 1, 2, 0, 1, 2, 0]

    def test_gray_balanced_scenes_recoverable_by_gray_world(self, tmp_path):
        cfg = SynthConfig(count=6, width=96, height=96, seed=5, gray_balance=True)
        samples = load_samples(load_manifest(generate_dataset(tmp_path / "d", cfg)))
        errs = [
            angular_error(minkowski_estimate(s.image, preset("GW")), s.illuminant)
            for s in samples
        ]
        assert float(np.median(errs)) < 0.2

    def test_white_patch_scenes_recoverable_by_white_point(self, tmp_path):
        cfg = SynthConfig(count=6, width=96, height=96, seed=6, white_patch=True)
        samples = load_samples(load_manifest(generate_dataset(tmp_path / "d", cfg)))
        errs = [
            angular_error(minkowski_estimate(s.image, preset("WP")), s.illuminant)
            for s in samples
        ]
        assert max(errs) < 0.2

    def test_two_illuminant_maps(self, tmp_path):
        cfg = SynthConfig(count=4, width=64, height=32, seed=8, two_illuminant=True)
        samples = load_samples(load_manifest(generate_dataset(tmp_path / "d", cfg)))
        for s in samples:
            assert s.gt_map is not None
            assert s.gt_map.shape == (32, 64, 3)
            half = 32
            left = s.gt_map[:, :half].reshape(-1, 3)
            right = s.gt_map[:, half:].reshape(-1, 3)
            assert np.allclose(left, left[0], atol=1e-12)
            assert np.allclose(right, right[0], atol=1e-12)
            # manifest ground truth is the left-half illuminant
            assert np.allclose(left[0], s.illuminant.rgb, atol=1e-4)

    def test_scene_values_in_range(self, tmp_path):
        cfg = SynthConfig(count=3, width=40, height=40, seed=9)
        samples = load_samples(load_manifest(generate_dataset(tmp_path / "d", cfg)))
        for s in samples:
            assert s.image.data.min() >= 0.0
            assert s.image.data.max() <= 1.0
