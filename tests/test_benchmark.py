import csv
import re
from dataclasses import replace

import numpy as np
import pytest

import patchcc.estimator
from patchcc.benchmark import ALL_ALGOS, STAT_ALGOS, BenchmarkReport, benchmark, check_algos
from patchcc.errors import ParameterError
from patchcc.estimator import estimate_image, prepared_patches, unit_estimates
from patchcc.evaluation import STAT_NAMES, angular_error, summarize
from patchcc.minkowski import ESTIMATORS, minkowski_estimate, preset
from patchcc.network import HyperParams, init_params

from helpers import make_synthetic_samples

HYPER = HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=6)


@pytest.fixture(scope="module")
def samples():
    return make_synthetic_samples(count=5, size=48, seed=4)


def sized_models(*sizes):
    """Fold k -> an untrained HYPER-shape model of patch size sizes[k]."""
    return {k: init_params(replace(HYPER, patch_size=size), [5, k])
            for k, size in enumerate(sizes)}


@pytest.fixture(scope="module")
def models():
    return {k: init_params(HYPER, [3, k]) for k in range(3)}


class TestSharedForward:
    def test_one_forward_per_image(self, samples, models, monkeypatch):
        calls = []
        forward = patchcc.estimator.forward

        def counted(params, x):
            calls.append(len(x))
            return forward(params, x)

        monkeypatch.setattr(patchcc.estimator, "forward", counted)
        benchmark(samples, ("cnn-patch", "cnn-average", "cnn-median"),
                  fold_models=models)
        assert len(calls) == len(samples)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_estimate_image(self, samples, models, threads):
        report = benchmark(samples, ("GW", "cnn-patch", "cnn-average", "cnn-median"),
                           fold_models=models, threads=threads)
        assert list(report.rows) == ["GW", "cnn-patch", "cnn-average", "cnn-median"]
        expected = {"GW": [], "cnn-patch": [], "cnn-average": [], "cnn-median": []}
        for s in samples:
            model = models[s.fold]
            median = estimate_image(model, s.image, "median")
            average = estimate_image(model, s.image, "average")
            units = unit_estimates(model, prepared_patches(s.image, 16))[1]
            expected["GW"].append((s.image_id, angular_error(
                minkowski_estimate(s.image, preset("GW")), s.illuminant)))
            expected["cnn-patch"] += [(s.image_id, angular_error(u, s.illuminant))
                                      for u in units]
            expected["cnn-average"].append((s.image_id, angular_error(average, s.illuminant)))
            expected["cnn-median"].append((s.image_id, angular_error(median, s.illuminant)))
        assert report.per_image == expected

    def test_error_lists_are_the_per_estimate_errors(self, samples, models):
        # one angular_error_many call per row and image has the bits of one
        # angular_error call per estimate
        report = benchmark(samples, STAT_ALGOS + ("cnn-patch",), fold_models=models)
        for algo in STAT_ALGOS:
            assert report.per_image[algo] == [
                (s.image_id, angular_error(ESTIMATORS[algo](s.image), s.illuminant))
                for s in samples]
        expected = []
        for s in samples:
            units = unit_estimates(models[s.fold], prepared_patches(s.image, 16))[1]
            expected += [(s.image_id, angular_error(u, s.illuminant)) for u in units]
        assert report.per_image["cnn-patch"] == expected

    def test_each_image_prepared_once(self, samples, models, monkeypatch):
        # the cnn-finetuned row reads the batch of the shared rows
        stretched = []
        stretch = patchcc.estimator.stretched_grid_patches

        def counted(img, *args):
            stretched.append(img)
            return stretch(img, *args)

        monkeypatch.setattr(patchcc.estimator, "stretched_grid_patches", counted)
        tuned = {k: init_params(HYPER, [9, k]) for k in range(3)}
        benchmark(samples, ("cnn-median", "cnn-finetuned"), fold_models=models,
                  finetuned_models=tuned)
        assert [id(img) for img in stretched] == [id(s.image) for s in samples]

    def test_finetuned_row_uses_its_own_models(self, samples, models):
        tuned = {k: init_params(HYPER, [9, k]) for k in range(3)}
        report = benchmark(samples, ("cnn-median", "cnn-finetuned"), fold_models=models,
                           finetuned_models=tuned)
        expected = [(s.image_id, angular_error(
            estimate_image(tuned[s.fold], s.image, "median"), s.illuminant))
            for s in samples]
        assert report.per_image["cnn-finetuned"] == expected
        assert report.per_image["cnn-median"] != expected


class TestDispatch:
    def test_statistical_names_come_from_the_table(self):
        assert STAT_ALGOS == ("DN", "GW", "WP", "SoG", "gGW", "GE1", "GE2")
        assert tuple(ESTIMATORS) == STAT_ALGOS

    @pytest.mark.parametrize("algos, message", [
        ((), "no estimator named"),
        (("GW", "cnn-patch"), "cnn-patch needs --model-dir models"),
        (("cnn-median", "cnn-finetuned"), "cnn-finetuned needs --finetuned-dir models"),
    ], ids=["empty", "cnn_without_models", "finetuned_without_models"])
    def test_empty_list_and_rows_without_models_rejected(self, samples, models, algos, message):
        with pytest.raises(ParameterError, match=message):
            benchmark(samples, algos, fold_models=models if "cnn-median" in algos else None)

    @pytest.mark.parametrize("fold_models_for, named", [
        ((0, 1), "cnn-average"), ((0, 1, 2), "cnn-finetuned"),
    ], ids=["both_sets_missing", "finetuned_missing"])
    def test_missing_fold_names_the_first_row_of_the_first_set_read(
            self, samples, models, fold_models_for, named):
        # the --model-dir set is read first, whatever order the rows are in
        with pytest.raises(ParameterError, match=f"^no fold-2 model available for {named}$"):
            benchmark(samples, ("cnn-finetuned", "cnn-average", "cnn-median"),
                      fold_models={k: models[k] for k in fold_models_for},
                      finetuned_models={k: models[k] for k in (0, 1)})

    @pytest.mark.parametrize("algos, fold_sizes, tuned_sizes, listed", [
        (("cnn-median", "cnn-finetuned"), (16, 16, 16), (32, 32, 32),
         "16 px (--model-dir), 32 px (--finetuned-dir)"),
        (("cnn-finetuned",), (32, 32, 32), (16, 32, 16),
         "16 px (--finetuned-dir), 32 px (--finetuned-dir)"),
    ], ids=["across_sets", "within_a_set"])
    def test_models_of_two_patch_sizes_rejected(self, algos, fold_sizes, tuned_sizes, listed):
        fold_models, tuned = sized_models(*fold_sizes), sized_models(*tuned_sizes)
        message = f"the cnn rows' models differ in patch size: {listed}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            check_algos(algos, fold_models, tuned)
        # before any image is read: this sample list holds no image
        with pytest.raises(ParameterError, match=re.escape(message)):
            benchmark(["not a sample"], algos, fold_models=fold_models, finetuned_models=tuned)

    def test_models_no_row_reads_may_differ(self, samples, models):
        wide = sized_models(32, 32, 32)
        assert check_algos(("GW", "cnn-median"), models, wide) == 16
        assert check_algos(("GW", "cnn-finetuned"), models, wide) == 32
        assert check_algos(("GW",), models, wide) is None
        report = benchmark(samples, ("cnn-median",), fold_models=models, finetuned_models=wide)
        assert len(report.per_image["cnn-median"]) == len(samples)

    def test_repeated_name_rejected(self, samples):
        # a repeated row would be computed twice and reported once
        with pytest.raises(ParameterError, match="estimator 'GW' named twice"):
            benchmark(samples, ("GW", "WP", "GW"))

    def test_unknown_name_lists_valid_names(self, samples):
        with pytest.raises(ParameterError) as info:
            benchmark(samples, ("GW", "nope"))
        assert all(name in str(info.value) for name in ALL_ALGOS)


class TestReport:
    def test_csv_columns_are_the_stat_names(self, tmp_path):
        stats = summarize([1.0, 2.0, 4.0, 8.0])
        report = BenchmarkReport(rows={"GW": stats}, per_image={})
        report.write_csv(tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            header, row = csv.reader(fh)
        assert tuple(header) == ("algorithm", *STAT_NAMES)
        assert [float(v) for v in row[1:]] == [round(getattr(stats, n), 6) for n in STAT_NAMES]
