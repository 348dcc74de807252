import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcc
from patchcc.cli import CONFIG_TYPES, build_parser, main, parse_args
from patchcc.errors import PipelineError
from patchcc.image import LinearImage, load_ppm16, save_ppm16, normalize
from patchcc.network import HyperParams

from helpers import JSON_VALUES, tiny_weights


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "set"
    code = run([
        "synth", "--out", str(out), "--count", "9", "--seed", "5",
        "--size", "64x64", "--saturation", "0.4",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = run([
        "train", "--manifest", str(dataset_dir / "manifest.json"),
        "--out-dir", str(out), "--folds", "0",
        "--patch-size", "16", "--kernel-count", "8", "--pool-size", "4",
        "--fc-units", "8", "--epochs", "2", "--patches-per-image", "20",
        "--batch-size", "32", "--seed", "3",
    ])
    assert code == 0
    return out


class TestSynthCommand:
    def test_reproducible_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--count", "4",
                        "--seed", "9", "--size", "32x32"]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_two_illuminant_writes_maps(self, tmp_path):
        out = tmp_path / "two"
        assert run(["synth", "--out", str(out), "--count", "2", "--seed", "1",
                    "--size", "32x16", "--two-illuminant"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert all("gt_map_path" in e for e in manifest["entries"])
        assert (out / manifest["entries"][0]["gt_map_path"]).exists()


class TestEstimateCommand:
    def test_gray_world_on_uniform_image(self, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.broadcast_to([0.2, 0.4, 0.6], (16, 16, 3)).copy()), img_path)
        assert run(["estimate", "--image", str(img_path), "--algo", "GW"]) == 0
        printed = capsys.readouterr().out.strip().split()
        expected = normalize((0.2, 0.4, 0.6)).rgb
        assert np.allclose([float(v) for v in printed], expected, atol=1e-3)

    def test_unknown_algo_exits_one(self, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.full((8, 8, 3), 0.4)), img_path)
        assert run(["estimate", "--image", str(img_path), "--algo", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.strip()
        assert "DN, GW, WP, SoG, gGW, GE1, GE2, cnn" in err

    def test_cnn_requires_model(self, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.full((8, 8, 3), 0.4)), img_path)
        assert run(["estimate", "--image", str(img_path), "--algo", "cnn"]) == 1


class TestCorrectCommand:
    def test_correct_then_estimate_neutral(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        gray = rng.uniform(0.2, 0.9, size=(32, 32, 1)) * np.ones(3)
        ill = normalize((0.9, 0.6, 0.4))
        scene = LinearImage(gray * ill.rgb[None, None, :])
        src = tmp_path / "cast.ppm"
        save_ppm16(scene, src)
        dst = tmp_path / "fixed.ppm"
        assert run(["correct", "--image", str(src), "--out", str(dst),
                    "--algo", "GW"]) == 0
        capsys.readouterr()
        assert run(["estimate", "--image", str(dst), "--algo", "GW"]) == 0
        printed = [float(v) for v in capsys.readouterr().out.split()]
        neutral = 1 / math.sqrt(3)
        assert np.allclose(printed, neutral, atol=1e-3)

    def test_explicit_illuminant(self, tmp_path):
        src = tmp_path / "in.ppm"
        save_ppm16(LinearImage(np.full((4, 4, 3), 0.3)), src)
        dst = tmp_path / "out.ppm"
        assert run(["correct", "--image", str(src), "--out", str(dst),
                    "--ill", "0.5,0.8,0.6"]) == 0
        out = load_ppm16(dst)
        ill = normalize((0.5, 0.8, 0.6))
        assert np.allclose(out.data[0, 0], 0.3 / ill.rgb, atol=1e-3)


class TestTrainedPipeline:
    def test_models_written(self, model_dir):
        assert (model_dir / "fold0.ccnn").exists()
        assert (model_dir / "train_log.jsonl").exists()
        lines = (model_dir / "train_log.jsonl").read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_estimate_with_model(self, dataset_dir, model_dir, capsys):
        entry = json.loads((dataset_dir / "manifest.json").read_text())["entries"][0]
        assert run(["estimate", "--image", str(dataset_dir / entry["image_path"]),
                    "--algo", "cnn", "--model", str(model_dir / "fold0.ccnn"),
                    "--patch-size", "16"]) == 0
        printed = [float(v) for v in capsys.readouterr().out.split()]
        assert len(printed) == 3
        assert np.linalg.norm(printed) == pytest.approx(1.0, abs=1e-4)

    def test_local_map_command(self, dataset_dir, model_dir, tmp_path):
        entry = json.loads((dataset_dir / "manifest.json").read_text())["entries"][1]
        prefix = tmp_path / "map"
        assert run(["local-map", "--image", str(dataset_dir / entry["image_path"]),
                    "--model", str(model_dir / "fold0.ccnn"),
                    "--out-prefix", str(prefix), "--patch-size", "16",
                    "--filter", "median"]) == 0
        assert prefix.with_suffix(".ppm").exists()
        assert prefix.with_suffix(".csv").exists()

    def test_finetune_command(self, dataset_dir, model_dir, tmp_path):
        out = tmp_path / "tuned.ccnn"
        assert run(["finetune", "--manifest", str(dataset_dir / "manifest.json"),
                    "--model", str(model_dir / "fold0.ccnn"), "--out", str(out),
                    "--fold", "0", "--patch-size", "16", "--epochs", "1",
                    "--lr", "0.00001", "--seed", "3"]) == 0
        assert out.exists()
        assert out.with_name(out.name + ".log.jsonl").exists()


class TestEvaluateCommand:
    def test_dn_row_matches_closed_form(self, tmp_path, capsys):
        # all images cast with one fixed illuminant: the DN row is constant
        from patchcc.dataset import DatasetManifest, ManifestEntry, save_manifest
        from patchcc.image import cast_illuminant

        rng = np.random.default_rng(3)
        ill = normalize((0.8, 1.0, 0.6))
        entries = []
        for i in range(4):
            scene = LinearImage(rng.uniform(0.1, 0.9, size=(24, 24, 3)))
            save_ppm16(cast_illuminant(scene, ill), tmp_path / f"i{i}.ppm")
            entries.append(ManifestEntry(
                image_path=f"i{i}.ppm",
                ground_truth_illuminant=tuple(ill.rgb),
                fold=i % 3,
            ))
        save_manifest(DatasetManifest(entries=tuple(entries), base_dir=str(tmp_path)),
                      tmp_path / "manifest.json")
        out_prefix = tmp_path / "report"
        assert run(["evaluate", "--manifest", str(tmp_path / "manifest.json"),
                    "--algos", "DN,GW", "--out-prefix", str(out_prefix)]) == 0
        from patchcc.evaluation import angular_error
        from patchcc.minkowski import do_nothing

        expected = angular_error(do_nothing(), ill)
        rows = (out_prefix.with_suffix(".csv")).read_text().strip().splitlines()
        dn_row = [r for r in rows if r.startswith("DN")][0].split(",")
        assert float(dn_row[1]) == pytest.approx(expected, abs=1e-4)  # min
        assert float(dn_row[6]) == pytest.approx(expected, abs=1e-4)  # max
        per_image = (str(out_prefix) + "_per_image.csv")
        assert os.path.exists(per_image)

    def test_cnn_rows_with_models(self, dataset_dir, model_dir, tmp_path, capsys):
        # fold0 model only: asking for all three folds must fail cleanly
        assert run(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                    "--algos", "cnn-median", "--model-dir", str(model_dir),
                    "--patch-size", "16"]) == 1
        err = capsys.readouterr().err
        assert "fold" in err


    def test_results_independent_of_threads(self, dataset_dir, model_dir, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for k in range(3):
            shutil.copy(model_dir / "fold0.ccnn", models / f"fold{k}.ccnn")
        outputs = {}
        for threads in ("1", "2"):
            prefix = str(tmp_path / f"threads{threads}")
            assert run(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                        "--algos", "DN,GW,WP,SoG,gGW,GE1,GE2,cnn-patch,cnn-average,cnn-median",
                        "--model-dir", str(models), "--patch-size", "16",
                        "--threads", threads, "--out-prefix", prefix]) == 0
            outputs[threads] = [open(prefix + suffix, "rb").read()
                                for suffix in (".txt", ".csv", "_per_image.csv")]
        assert outputs["1"] == outputs["2"]


MALFORMED_MANIFESTS = {
    "invalid_json": '{"version": 1, "entries": [',
    "not_an_object": "[1, 2]",
    "no_image_path": {"ground_truth_illuminant": [1, 1, 1], "fold": 0},
    "no_ground_truth": {"image_path": "a.ppm", "fold": 0},
    "no_fold": {"image_path": "a.ppm", "ground_truth_illuminant": [1, 1, 1]},
    "non_numeric_value": {"image_path": "a.ppm", "ground_truth_illuminant": ["red", 1, 1],
                          "fold": 0},
    "null_value": {"image_path": "a.ppm", "ground_truth_illuminant": [1, 1, 1], "fold": None},
    "short_illuminant": {"image_path": "a.ppm", "ground_truth_illuminant": [1, 1], "fold": 0},
    "entry_not_an_object": "a.ppm",
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", list(MALFORMED_MANIFESTS))
    def test_evaluate_exits_one_with_one_line(self, case, tmp_path, capsys):
        save_ppm16(LinearImage(np.full((8, 8, 3), 0.5)), tmp_path / "a.ppm")
        content = MALFORMED_MANIFESTS[case]
        if not (isinstance(content, str) and content.startswith(("{", "["))):
            content = json.dumps({"version": 1, "entries": [content]})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content)
        assert run(["evaluate", "--manifest", str(manifest), "--algos", "DN"]) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err


CNN_ESTIMATE = ["estimate", "--image", "{tmp}/a.ppm", "--algo", "cnn", "--model", "{tmp}/w.ccnn"]

# argv (with {tmp} for the test's directory), config file text or None, and
# the error type the one-line message must name
MALFORMED_INPUTS = {
    "config_invalid_json": (["estimate", "--image", "{tmp}/a.ppm"], '{"algo": ', "FormatError"),
    "config_not_an_object": (["estimate", "--image", "{tmp}/a.ppm"], '["DN"]', "ParameterError"),
    "config_wrong_type": (["synth", "--out", "{tmp}/set"], '{"count": "abc"}', "ParameterError"),
    "config_bool_for_int": (["synth", "--out", "{tmp}/set"], '{"seed": true}', "ParameterError"),
    "config_path_not_a_string": (["estimate"], '{"image": 987, "algo": "DN"}', "ParameterError"),
    "config_unknown_key": (["estimate", "--image", "{tmp}/a.ppm"], '{"algoo": "DN"}',
                           "ParameterError"),
    "config_func_key": (["gradcheck"], '{"func": 1}', "ParameterError"),
    "config_deeply_nested": (["gradcheck"], '{"loss": ' + "[" * 100000 + "]" * 100000 + "}",
                             "FormatError"),
    "config_integer_past_digit_limit": (["gradcheck"], '{"seed": ' + "7" * 5000 + "}",
                                        "FormatError"),
    "weights_header_truncated": (["estimate", "--image", "{tmp}/a.ppm", "--algo", "cnn",
                                  "--model", "{tmp}/w.ccnn"], None, "FormatError"),
    "manifest_deeply_nested": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"], None,
                               "FormatError"),
    "weights_dims_overflow_int64": (CNN_ESTIMATE, None, "FormatError"),
    "weights_conv_w_scalar": (CNN_ESTIMATE, None, "ShapeMismatchError"),
    "weights_fc_w_vector": (CNN_ESTIMATE, None, "ShapeMismatchError"),
    "weights_zero_kernels": (CNN_ESTIMATE, None, "FormatError"),
    "weights_zero_kernel_width": (CNN_ESTIMATE, None, "FormatError"),
    "weights_zero_fc_width": (CNN_ESTIMATE, None, "FormatError"),
    "manifest_fold_overflow": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"], None,
                               "ParameterError"),
    "manifest_rect_overflow": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"], None,
                               "ParameterError"),
    "manifest_fold_string": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"], None,
                             "ParameterError"),
    "manifest_ill_not_numbers": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"],
                                 None, "ParameterError"),
    "manifest_rect_string": (["evaluate", "--manifest", "{tmp}/m.json", "--algos", "DN"], None,
                             "ParameterError"),
    "size_not_integers": (["synth", "--out", "{tmp}/set", "--size", "64xq"], None,
                          "ParameterError"),
    "ill_not_numbers": (["correct", "--image", "{tmp}/a.ppm", "--out", "{tmp}/b.ppm",
                         "--ill", "a,b,c"], None, "ParameterError"),
    "folds_not_integers": (["train", "--manifest", "{tmp}/m.json", "--out-dir", "{tmp}/m",
                            "--folds", "0,x"], None, "ParameterError"),
    "sweep_values_not_integers": (["sweep", "--manifest", "{tmp}/m.json", "--parameter",
                                   "fc_units", "--values", "2,x", "--out", "{tmp}/s.csv"],
                                  None, "ParameterError"),
    # a config value outside an option's choices; the {tmp}/missing.* inputs
    # do not exist, so reading one would fail with another error
    "config_pooling_estimate": (["estimate", "--image", "{tmp}/missing.ppm"],
                                '{"pooling": "bogus"}', "ParameterError"),
    "config_pooling_correct": (["correct", "--image", "{tmp}/missing.ppm", "--out",
                                "{tmp}/b.ppm", "--ill", "1,1,1"],
                               '{"pooling": "bogus"}', "ParameterError"),
    "config_pooling_finetune": (["finetune", "--manifest", "{tmp}/missing.json", "--model",
                                 "{tmp}/missing.ccnn", "--out", "{tmp}/t.ccnn"],
                                '{"pooling": "mean"}', "ParameterError"),
    "config_filter_local_map": (["local-map", "--image", "{tmp}/missing.ppm", "--model",
                                 "{tmp}/missing.ccnn", "--out-prefix", "{tmp}/map"],
                                '{"filter": "box"}', "ParameterError"),
    "config_parameter_sweep": (["sweep", "--manifest", "{tmp}/missing.json", "--values", "4",
                                "--out", "{tmp}/s.csv"],
                               '{"parameter": "epochs"}', "ParameterError"),
    "config_loss_gradcheck": (["gradcheck"], '{"loss": "huber"}', "ParameterError"),
}

# case -> the files, by name in the test's directory, that its argv reads
MALFORMED_FILES = {
    "weights_header_truncated": {"w.ccnn": b"CCNN\x01"},
    "manifest_deeply_nested": {
        "m.json": b'{"version": 1, "entries": ' + b"[" * 100000 + b"]" * 100000 + b"}"},
    # 65536**4 is 2**64, which wraps to 0 in int64
    "weights_dims_overflow_int64": {"w.ccnn": tiny_weights(conv_w=(65536,) * 4)},
    "weights_conv_w_scalar": {"w.ccnn": tiny_weights(conv_w=())},
    "weights_fc_w_vector": {"w.ccnn": tiny_weights(fc_w=(8,))},
    "weights_zero_kernels": {"w.ccnn": tiny_weights(conv_w=(0, 1, 1, 3), conv_b=(0,))},
    "weights_zero_kernel_width": {"w.ccnn": tiny_weights(conv_w=(2, 0, 0, 3))},
    "weights_zero_fc_width": {"w.ccnn": tiny_weights(fc_w=(4, 0))},
    # JSON reads 1e999 as a float infinity, which int() cannot convert
    "manifest_fold_overflow": {"m.json": b'{"version": 1, "entries": [{"image_path": "a.ppm", '
                                         b'"ground_truth_illuminant": [1, 1, 1], "fold": 1e999}]}'},
    "manifest_rect_overflow": {"m.json": b'{"version": 1, "entries": [{"image_path": "a.ppm", '
                                         b'"ground_truth_illuminant": [1, 1, 1], "fold": 0, '
                                         b'"exclusion_rects": [[0, 0, 1e999, 4]]}]}'},
    # int() and float() would read these as 2, (1, 1, 1) and (1, 2, 3, 4)
    "manifest_fold_string": {"m.json": b'{"version": 1, "entries": [{"image_path": "a.ppm", '
                                       b'"ground_truth_illuminant": [1, 1, 1], "fold": "2"}]}'},
    "manifest_ill_not_numbers": {"m.json": b'{"version": 1, "entries": [{"image_path": "a.ppm", '
                                           b'"ground_truth_illuminant": ["1", true, 1], '
                                           b'"fold": 0}]}'},
    "manifest_rect_string": {"m.json": b'{"version": 1, "entries": [{"image_path": "a.ppm", '
                                       b'"ground_truth_illuminant": [1, 1, 1], "fold": 0, '
                                       b'"exclusion_rects": ["1234"]}]}'},
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_exits_one_with_one_line(self, case, tmp_path, capsys):
        save_ppm16(LinearImage(np.full((8, 8, 3), 0.5)), tmp_path / "a.ppm")
        argv, config, error = MALFORMED_INPUTS[case]
        for name, content in MALFORMED_FILES.get(case, {}).items():
            (tmp_path / name).write_bytes(content)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: "), err

    def test_config_choice_error_names_key_and_choices(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pooling": "bogus"}')
        assert run(["estimate", "--config", str(cfg)]) == 1
        assert ("config 'pooling' must be one of average, median, got 'bogus'"
                in capsys.readouterr().err)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        img_path = tmp_path / "img.ppm"
        save_ppm16(LinearImage(np.broadcast_to([0.5, 0.25, 0.25], (8, 8, 3)).copy()), img_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "DN", "image": str(img_path)}))
        assert run(["estimate", "--config", str(cfg)]) == 0
        printed = [float(v) for v in capsys.readouterr().out.split()]
        assert np.allclose(printed, 1 / math.sqrt(3), atol=1e-9)
        # explicit flag beats the config value
        assert run(["estimate", "--config", str(cfg), "--algo", "GW"]) == 0
        printed = [float(v) for v in capsys.readouterr().out.split()]
        assert np.allclose(printed, normalize((0.5, 0.25, 0.25)).rgb, atol=1e-3)
        # null means unset: the built-in default (GW) applies
        cfg.write_text(json.dumps({"algo": None, "image": str(img_path)}))
        assert run(["estimate", "--config", str(cfg)]) == 0
        assert [float(v) for v in capsys.readouterr().out.split()] == printed


COMMANDS = ("synth", "train", "finetune", "estimate", "correct", "local-map", "evaluate",
            "sweep", "gradcheck")


def built_in_options(command) -> dict:
    """Each option of `command` and its value when no config file is given."""
    options = vars(parse_args([command]))
    for key in ("command", "func", "config"):
        del options[key]
    return options


# command -> dest -> choices, for the options that have them
CHOICES = {command: {a.dest: a.choices for a in parser._actions if a.choices}
           for command, parser in next(a for a in build_parser()._actions
                                       if a.dest == "command").choices.items()}

JSON_OF_TYPE = {bool: st.booleans(), int: st.integers(), float: st.floats(allow_nan=False),
                str: st.text()}


@st.composite
def config_documents(draw):
    """A command and a config document: a JSON object whose keys are the
    command's dests, `func`, `config` or any text, an object of values of
    the options' JSON types, any JSON value, or any bytes."""
    command = draw(st.sampled_from(COMMANDS))
    built_in = built_in_options(command)
    keys = st.sampled_from(sorted(built_in)) | st.sampled_from(["func", "config"]) | st.text()
    typed = {key: st.sampled_from(CONFIG_TYPES[type(default)]).flatmap(JSON_OF_TYPE.get)
             for key, default in built_in.items()}
    doc = draw(st.dictionaries(keys, JSON_VALUES, max_size=3)
               | st.fixed_dictionaries({}, optional=typed) | JSON_VALUES | st.binary())
    return command, doc


class TestConfigLoading:
    @settings(max_examples=150, deadline=None)
    @given(config_documents())
    def test_typed_values_or_pipeline_error(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "wb") as fh:
                fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            try:
                options = vars(parse_args([command, "--config", path]))
            except PipelineError:
                return
        built_in = built_in_options(command)
        assert isinstance(doc, dict) and set(doc) <= set(built_in)
        for key, default in built_in.items():
            if doc.get(key) is None:
                assert (type(options[key]), options[key]) == (type(default), default)
            else:
                assert options[key] == doc[key]
                assert type(options[key]) in CONFIG_TYPES[type(default)]
                assert key not in CHOICES[command] or options[key] in CHOICES[command][key]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_built_in_defaults_as_config_change_nothing(self, command, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(built_in_options(command)))
        with_config = vars(parse_args([command, "--config", str(cfg)]))
        plain = vars(parse_args([command]))
        assert (with_config.pop("config"), plain.pop("config")) == (str(cfg), None)
        assert ({k: (type(v), v) for k, v in with_config.items()}
                == {k: (type(v), v) for k, v in plain.items()})


class TestImport:
    def test_import_leaves_scipy_ndimage_unloaded(self):
        code = "import sys, patchcc.cli; print('scipy.ndimage' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(patchcc.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "False"


class TestSweep:
    def test_sweep_config_validates_values(self, tmp_path, capsys):
        # both are rejected before the (missing) manifest is read
        argv = ["sweep", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "s.csv")]
        assert run(argv + ["--parameter", "pool_size", "--values", "7"]) == 1
        assert "sweep value 7 invalid" in capsys.readouterr().err
        # a config value is checked against argparse's choices too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameter": "bogus", "values": "1"}))
        assert run(argv + ["--config", str(cfg)]) == 1
        assert "config 'parameter' must be one of" in capsys.readouterr().err

    def test_sweep_defaults_to_a_smaller_model(self):
        sweep, train = vars(parse_args(["sweep"])), vars(parse_args(["train"]))
        small = {"kernel_count": 16, "fc_units": 8, "epochs": 4, "patches_per_image": 30}
        assert {k: sweep[k] for k in small} == small
        assert {k: train[k] for k in small} == {k: getattr(HyperParams(), k) for k in small}

    def test_sweep_command(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--manifest", str(dataset_dir / "manifest.json"),
                    "--parameter", "fc_units", "--values", "4,8",
                    "--out", str(out), "--patch-size", "16", "--pool-size", "4",
                    "--kernel-count", "8", "--epochs", "1",
                    "--patches-per-image", "10", "--seed", "2"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "fc_units,median_angular_error_deg"
        assert len(lines) == 3
        values = [int(line.split(",")[0]) for line in lines[1:]]
        assert values == [4, 8]


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert run(["gradcheck", "--loss", "both", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "euclidean" in out and "angular" in out and "ok" in out
