"""Command-line surface: dataset synthesis, training, estimation, correction,
local maps, benchmarking, the parameter sweep, and gradient checking.

Every flag can also come from a JSON config file (--config); explicit flags
win. Commands exit 0 on success and 1 with a single-line error otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import dataset as dataset_mod
from .benchmark import STAT_ALGOS, benchmark as run_benchmark
from .errors import FormatError, ParameterError, PipelineError
from .estimator import estimate_image, fine_tune, train
from .evaluation import angular_error, summarize
from .image import correct_von_kries, load_illuminant_map_ppm, load_ppm16, normalize, save_ppm16
from .localmap import (
    angular_error_map,
    estimate_local_map,
    filter_gaussian_3x3,
    filter_median_3x3,
    grid_ground_truth,
    save_map_csv,
    save_map_ppm,
)
from .minkowski import ESTIMATORS
from .network import (
    HyperParams,
    gradient_check,
    init_params,
    load_params,
    save_params,
)

GRADCHECK_TOLERANCE = 1e-3

SWEEP_PARAMETERS = ("kernel_width", "kernel_count", "pool_size", "fc_units", "patch_size")


@dataclass(frozen=True)
class SweepConfig:
    """One swept hyperparameter, its values, and the fixed base settings."""

    parameter: str
    values: tuple
    base: HyperParams

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ParameterError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        if not self.values:
            raise ParameterError("sweep needs at least one value")
        for v in self.values:
            try:
                replace(self.base, **{self.parameter: int(v)})
            except ParameterError as exc:
                raise ParameterError(f"sweep value {v} invalid: {exc}") from exc


def _parse_numbers(text, sep: str, kind, what: str, count: int | None = None) -> tuple:
    """Split `text` at `sep` into `kind` values, `count` of them if given."""
    try:
        parts = tuple(kind(p) for p in str(text).lower().split(sep))
    except ValueError:
        raise ParameterError(f"expected {what}, got {text!r}") from None
    if count is not None and len(parts) != count:
        raise ParameterError(f"expected {what}, got {text!r}")
    return parts


# JSON types a config value may take, by the type of the option's default
CONFIG_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), type(None): (str,)}


def _config_value(key: str, value, default):
    """A config-file value must have the JSON type of its option: that of
    the default, or a string where the default is None."""
    kinds = CONFIG_TYPES[type(default)]
    if type(value) not in kinds:
        raise ParameterError(f"config {key!r} must be a {kinds[-1].__name__}, got {value!r}")
    return value


def _merged(args: argparse.Namespace, defaults: dict) -> SimpleNamespace:
    """Resolve options as flag > config-file value > built-in default."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise FormatError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ParameterError(f"config {args.config} must hold a JSON object")
    out = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and cfg.get(key) is not None:
            value = _config_value(key, cfg[key], default)
        out[key] = default if value is None else value
    return SimpleNamespace(**out)


HYPER_DEFAULTS = {
    "patch_size": 32,
    "kernel_count": 240,
    "kernel_width": 1,
    "pool_size": 8,
    "fc_units": 40,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "weight_decay": 5e-4,
    "batch_size": 64,
    "epochs": 20,
    "patience": 5,
    "patches_per_image": 100,
    "seed": 0,
}


def _add_hyper_flags(sub):
    sub.add_argument("--patch-size", dest="patch_size", type=int)
    sub.add_argument("--kernel-count", dest="kernel_count", type=int)
    sub.add_argument("--kernel-width", dest="kernel_width", type=int)
    sub.add_argument("--pool-size", dest="pool_size", type=int)
    sub.add_argument("--fc-units", dest="fc_units", type=int)
    sub.add_argument("--lr", dest="learning_rate", type=float)
    sub.add_argument("--momentum", dest="momentum", type=float)
    sub.add_argument("--weight-decay", dest="weight_decay", type=float)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--epochs", dest="epochs", type=int)
    sub.add_argument("--patience", dest="patience", type=int)
    sub.add_argument("--patches-per-image", dest="patches_per_image", type=int)
    sub.add_argument("--seed", dest="seed", type=int)


def _hyper_from(opts: SimpleNamespace) -> HyperParams:
    return HyperParams(**{k: getattr(opts, k) for k in HYPER_DEFAULTS})


def _write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _load_fold_models(model_dir: str) -> dict:
    models = {}
    for k in range(3):
        path = os.path.join(model_dir, f"fold{k}.ccnn")
        if os.path.exists(path):
            models[k] = load_params(path)
    if not models:
        raise ParameterError(f"no fold*.ccnn models found in {model_dir}")
    return models


# --------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    opts = _merged(args, {
        "out": None, "count": 30, "seed": 0, "size": "128x128",
        "two_illuminant": False, "gray_balance": False, "white_patch": False,
        "ill_red": "0.4:1.1", "ill_blue": "0.4:1.1",
        "saturation": 0.65, "noise_sigma": 0.01,
    })
    if not opts.out:
        raise ParameterError("synth needs --out")
    w, h = _parse_numbers(opts.size, "x", int, "WxH", 2)
    config = dataset_mod.SynthConfig(
        count=opts.count, width=w, height=h, seed=opts.seed,
        two_illuminant=bool(opts.two_illuminant),
        gray_balance=bool(opts.gray_balance),
        white_patch=bool(opts.white_patch),
        ill_red_range=_parse_numbers(opts.ill_red, ":", float, "lo:hi", 2),
        ill_blue_range=_parse_numbers(opts.ill_blue, ":", float, "lo:hi", 2),
        saturation=opts.saturation, noise_sigma=opts.noise_sigma,
    )
    manifest_path = dataset_mod.generate_dataset(opts.out, config)
    print(manifest_path)
    return 0


def cmd_train(args) -> int:
    opts = _merged(args, {"manifest": None, "out_dir": None, "folds": "0,1,2",
                          **HYPER_DEFAULTS})
    if not opts.manifest or not opts.out_dir:
        raise ParameterError("train needs --manifest and --out-dir")
    hyper = _hyper_from(opts)
    folds = _parse_numbers(opts.folds, ",", int, "comma-separated integer folds")
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(opts.manifest))
    result = train(samples, folds, hyper)
    os.makedirs(opts.out_dir, exist_ok=True)
    for k, params in result.models.items():
        save_params(params, os.path.join(opts.out_dir, f"fold{k}.ccnn"))
    _write_jsonl(result.log, os.path.join(opts.out_dir, "train_log.jsonl"))
    for k in result.models:
        print(f"fold{k}.ccnn written")
    return 0


def cmd_finetune(args) -> int:
    opts = _merged(args, {"manifest": None, "model": None, "out": None,
                          "fold": 0, "pooling": "median", **HYPER_DEFAULTS})
    if not opts.manifest or not opts.model or not opts.out:
        raise ParameterError("finetune needs --manifest, --model and --out")
    hyper = _hyper_from(opts)
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(opts.manifest))
    k = int(opts.fold)
    train_samples = [s for s in samples if s.fold == (k + 1) % 3]
    val_samples = [s for s in samples if s.fold == (k + 2) % 3]
    params = load_params(opts.model)
    log: list = []
    tuned = fine_tune(params, train_samples, hyper, pooling=opts.pooling,
                      val_dataset=val_samples, log=log)
    save_params(tuned, opts.out)
    _write_jsonl(log, opts.out + ".log.jsonl")
    print(f"{opts.out} written")
    return 0


def _estimator(opts):
    """The image -> illuminant function that --algo names."""
    if opts.algo == "cnn":
        if not opts.model:
            raise ParameterError("--algo cnn needs --model")
        params = load_params(opts.model)
        return lambda img: estimate_image(params, img, opts.pooling, opts.patch_size).illuminant
    if opts.algo not in ESTIMATORS:
        raise ParameterError(
            f"unknown algorithm {opts.algo!r}; valid: {', '.join(ESTIMATORS)}, cnn"
        )
    return ESTIMATORS[opts.algo]


def cmd_estimate(args) -> int:
    opts = _merged(args, {"image": None, "algo": "GW", "model": None,
                          "pooling": "median", "patch_size": 32})
    if not opts.image:
        raise ParameterError("estimate needs --image")
    img = load_ppm16(opts.image)
    est = _estimator(opts)(img).rgb
    print(f"{est[0]:.6f} {est[1]:.6f} {est[2]:.6f}")
    return 0


def cmd_correct(args) -> int:
    opts = _merged(args, {"image": None, "out": None, "ill": None,
                          "algo": None, "model": None, "pooling": "median",
                          "patch_size": 32})
    if not opts.image or not opts.out:
        raise ParameterError("correct needs --image and --out")
    img = load_ppm16(opts.image)
    if opts.ill:
        ill = normalize(_parse_numbers(opts.ill, ",", float, "R,G,B", 3))
    elif opts.algo:
        ill = normalize(_estimator(opts)(img))
    else:
        raise ParameterError("correct needs --ill R,G,B or --algo")
    corrected = correct_von_kries(img, ill)
    save_ppm16(corrected, opts.out)
    print(f"{opts.out} written (saturated values: {corrected.meta['saturated_values']})")
    return 0


def cmd_local_map(args) -> int:
    opts = _merged(args, {"image": None, "model": None, "out_prefix": None,
                          "patch_size": 32, "filter": "none", "gt_map": None})
    if not opts.image or not opts.model or not opts.out_prefix:
        raise ParameterError("local-map needs --image, --model and --out-prefix")
    params = load_params(opts.model)
    ill_map = estimate_local_map(params, load_ppm16(opts.image), opts.patch_size)
    if opts.filter == "gaussian":
        ill_map = filter_gaussian_3x3(ill_map)
    elif opts.filter == "median":
        ill_map = filter_median_3x3(ill_map)
    elif opts.filter != "none":
        raise ParameterError(f"--filter must be none, gaussian or median, got {opts.filter!r}")
    save_map_ppm(ill_map, opts.out_prefix + ".ppm")
    save_map_csv(ill_map, opts.out_prefix + ".csv")
    if opts.gt_map:
        gt = grid_ground_truth(load_illuminant_map_ppm(opts.gt_map), opts.patch_size)
        _, flat = angular_error_map(ill_map, gt)
        print(summarize(flat))
    print(f"{opts.out_prefix}.ppm written")
    return 0


def cmd_evaluate(args) -> int:
    opts = _merged(args, {
        "manifest": None, "algos": ",".join(STAT_ALGOS),
        "model_dir": None, "finetuned_dir": None, "out_prefix": None,
        "patch_size": 32, "threads": os.cpu_count() or 1, "deterministic": False,
    })
    if not opts.manifest:
        raise ParameterError("evaluate needs --manifest")
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(opts.manifest))
    algos = tuple(a for a in str(opts.algos).split(",") if a)
    fold_models = _load_fold_models(opts.model_dir) if opts.model_dir else None
    finetuned = _load_fold_models(opts.finetuned_dir) if opts.finetuned_dir else None
    threads = 1 if opts.deterministic else int(opts.threads)
    report = run_benchmark(
        samples, algos, fold_models=fold_models, finetuned_models=finetuned,
        patch_size=opts.patch_size, threads=threads,
    )
    text = report.render_text()
    print(text, end="")
    if opts.out_prefix:
        with open(opts.out_prefix + ".txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        report.write_csv(opts.out_prefix + ".csv")
        report.write_per_image_csv(opts.out_prefix + "_per_image.csv")
    return 0


def cmd_sweep(args) -> int:
    opts = _merged(args, {
        "manifest": None, "parameter": None, "values": None, "out": None,
        "fold": 0, **{**HYPER_DEFAULTS, "kernel_count": 16, "fc_units": 8,
                      "epochs": 4, "patches_per_image": 30},
    })
    if not opts.manifest or not opts.parameter or not opts.values or not opts.out:
        raise ParameterError("sweep needs --manifest, --parameter, --values and --out")
    base = _hyper_from(opts)
    values = _parse_numbers(opts.values, ",", int, "comma-separated integer values")
    config = SweepConfig(parameter=opts.parameter, values=values, base=base)
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(opts.manifest))
    k = int(opts.fold)
    rows = []
    for value in config.values:
        hyper = replace(base, **{config.parameter: value})
        result = train(samples, [k], hyper)
        model = result.models[k]
        errors = [
            angular_error(
                estimate_image(model, s.image, "median", hyper.patch_size).illuminant,
                s.illuminant,
            )
            for s in samples
            if s.fold == k
        ]
        rows.append((value, float(np.median(errors))))
        print(f"{config.parameter}={value}: median {rows[-1][1]:.2f} deg")
    with open(opts.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{config.parameter},median_angular_error_deg\n")
        for value, med in rows:
            fh.write(f"{value},{med:.6f}\n")
    return 0


def cmd_gradcheck(args) -> int:
    opts = _merged(args, {"loss": "both", "seed": 0})
    hyper = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5)
    params = init_params(hyper, seed=opts.seed)
    rng = np.random.default_rng(opts.seed)
    patch = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    gt = normalize(rng.uniform(0.2, 1.0, size=3))
    kinds = ("euclidean", "angular") if opts.loss == "both" else (opts.loss,)
    ok = True
    for kind in kinds:
        report = gradient_check(params, patch, gt, loss_kind=kind)
        for layer, err in report.items():
            status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
            ok = ok and err < GRADCHECK_TOLERANCE
            print(f"{kind:<10} {layer:<8} max_rel_err {err:.3e}  {status}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcc",
        description="Patch-based color constancy: estimation, training, and evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file of defaults; flags win")
        p.set_defaults(func=fn)
        return p

    p = sub("synth", cmd_synth, help="generate a synthetic dataset")
    p.add_argument("--out")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--size", help="image size WxH")
    p.add_argument("--two-illuminant", dest="two_illuminant",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--gray-balance", dest="gray_balance",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--white-patch", dest="white_patch",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--ill-red", dest="ill_red", help="illuminant red range lo:hi")
    p.add_argument("--ill-blue", dest="ill_blue", help="illuminant blue range lo:hi")
    p.add_argument("--saturation", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)

    p = sub("train", cmd_train, help="cross-validated patch training")
    p.add_argument("--manifest")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--folds", help="comma-separated test folds, default 0,1,2")
    _add_hyper_flags(p)

    p = sub("finetune", cmd_finetune, help="fine-tune with pooled angular loss")
    p.add_argument("--manifest")
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--fold", type=int)
    p.add_argument("--pooling", choices=("average", "median"))
    _add_hyper_flags(p)

    p = sub("estimate", cmd_estimate, help="estimate one image's illuminant")
    p.add_argument("--image")
    p.add_argument("--algo")
    p.add_argument("--model")
    p.add_argument("--pooling", choices=("average", "median"))
    p.add_argument("--patch-size", dest="patch_size", type=int)

    p = sub("correct", cmd_correct, help="write the von Kries corrected image")
    p.add_argument("--image")
    p.add_argument("--out")
    p.add_argument("--ill", help="known illuminant R,G,B")
    p.add_argument("--algo", help="estimate the illuminant first")
    p.add_argument("--model")
    p.add_argument("--pooling", choices=("average", "median"))
    p.add_argument("--patch-size", dest="patch_size", type=int)

    p = sub("local-map", cmd_local_map, help="per-patch illuminant map")
    p.add_argument("--image")
    p.add_argument("--model")
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--patch-size", dest="patch_size", type=int)
    p.add_argument("--filter", choices=("none", "gaussian", "median"))
    p.add_argument("--gt-map", dest="gt_map")

    p = sub("evaluate", cmd_evaluate, help="angular-error benchmark table")
    p.add_argument("--manifest")
    p.add_argument("--algos", help="comma-separated estimator names")
    p.add_argument("--model-dir", dest="model_dir")
    p.add_argument("--finetuned-dir", dest="finetuned_dir")
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--patch-size", dest="patch_size", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction)

    p = sub("sweep", cmd_sweep, help="hyperparameter sweep, median error per value")
    p.add_argument("--manifest")
    p.add_argument("--parameter", choices=SWEEP_PARAMETERS)
    p.add_argument("--values", help="comma-separated integers")
    p.add_argument("--out")
    p.add_argument("--fold", type=int)
    _add_hyper_flags(p)

    p = sub("gradcheck", cmd_gradcheck, help="finite-difference gradient check")
    p.add_argument("--loss", choices=("euclidean", "angular", "both"))
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
