import numpy as np
import pytest

import patchcc.estimator
from patchcc.benchmark import ALL_ALGOS, STAT_ALGOS, benchmark
from patchcc.errors import ParameterError
from patchcc.estimator import estimate_image
from patchcc.evaluation import angular_error
from patchcc.minkowski import ESTIMATORS, minkowski_estimate, preset
from patchcc.network import HyperParams, init_params

from helpers import make_synthetic_samples

HYPER = HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=6)


@pytest.fixture(scope="module")
def samples():
    return make_synthetic_samples(count=5, size=48, seed=4)


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
                  fold_models=models, patch_size=16)
        assert len(calls) == len(samples)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_estimate_image(self, samples, models, threads):
        report = benchmark(samples, ("GW", "cnn-patch", "cnn-average", "cnn-median"),
                           fold_models=models, patch_size=16, threads=threads)
        assert list(report.rows) == ["GW", "cnn-patch", "cnn-average", "cnn-median"]
        expected = {"GW": [], "cnn-patch": [], "cnn-average": [], "cnn-median": []}
        for s in samples:
            model = models[s.fold]
            median = estimate_image(model, s.image, "median", 16)
            average = estimate_image(model, s.image, "average", 16)
            expected["GW"].append((s.image_id, angular_error(
                minkowski_estimate(s.image, preset("GW")), s.illuminant)))
            expected["cnn-patch"] += [(s.image_id, angular_error(u, s.illuminant))
                                      for u in median.units]
            expected["cnn-average"].append(
                (s.image_id, angular_error(average.illuminant, s.illuminant)))
            expected["cnn-median"].append(
                (s.image_id, angular_error(median.illuminant, s.illuminant)))
        assert report.per_image == expected

    def test_finetuned_row_uses_its_own_models(self, samples, models):
        tuned = {k: init_params(HYPER, [9, k]) for k in range(3)}
        report = benchmark(samples, ("cnn-median", "cnn-finetuned"), fold_models=models,
                           finetuned_models=tuned, patch_size=16)
        expected = [(s.image_id, angular_error(
            estimate_image(tuned[s.fold], s.image, "median", 16).illuminant, s.illuminant))
            for s in samples]
        assert report.per_image["cnn-finetuned"] == expected
        assert report.per_image["cnn-median"] != expected


class TestDispatch:
    def test_statistical_names_come_from_the_table(self):
        assert STAT_ALGOS == ("DN", "GW", "WP", "SoG", "gGW", "GE1", "GE2")
        assert tuple(ESTIMATORS) == STAT_ALGOS

    def test_unknown_name_lists_valid_names(self, samples):
        with pytest.raises(ParameterError) as info:
            benchmark(samples, ("GW", "nope"))
        assert all(name in str(info.value) for name in ALL_ALGOS)
