"""Command-line surface: dataset synthesis, training, estimation, correction,
local maps, benchmarking, the parameter sweep, and gradient checking.

Each option, with its built-in default, is declared once, on its command's
subparser in `build_parser`; the hyperparameter flags take their defaults
from `network.HyperParams`, and a command declares only those it reads. A
weights file holds its model's pool size, and so its patch size, so no
command that runs a trained model takes a size. A JSON config file
(--config) replaces built-in defaults: its keys are the options' dest
names, and explicit flags win.
Commands exit 0 on success and 1 with a single-line error otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataset as dataset_mod
from .benchmark import STAT_ALGOS, benchmark as run_benchmark, check_algos, check_threads
from .errors import FormatError, ParameterError, PipelineError
from .estimator import POOLINGS, estimate_image, fine_tune, fold_samples, fold_split, train
from .evaluation import angular_error_many, summarize
from .image import correct_von_kries, load_ppm16, normalize, save_ppm16
from .lanes import usable_cpus
from .localmap import (
    angular_error_map,
    estimate_local_map,
    filter_gaussian_3x3,
    filter_median_3x3,
    load_grid_ground_truth,
    save_map_csv,
    save_map_ppm,
)
from .minkowski import ESTIMATORS
from .network import HyperParams, gradient_check, init_params, load_params, save_params

GRADCHECK_TOLERANCE = 1e-3

SWEEP_PARAMETERS = ("kernel_width", "kernel_count", "pool_size", "fc_units", "patch_size")

# flag -> HyperParams field, for the commands that train
HYPER_FLAGS = {
    "--patch-size": "patch_size", "--kernel-count": "kernel_count",
    "--kernel-width": "kernel_width", "--pool-size": "pool_size", "--fc-units": "fc_units",
    "--lr": "learning_rate", "--momentum": "momentum", "--weight-decay": "weight_decay",
    "--batch-size": "batch_size", "--epochs": "epochs", "--patience": "patience",
    "--patches-per-image": "patches_per_image", "--seed": "seed",
}


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


def _config_values(path: str, sub: argparse.ArgumentParser) -> dict:
    """The options of command parser `sub` that a JSON config file sets.

    Each key must be an option's dest, and each value must have the JSON
    type of that option: that of its default, or a string where the default
    is None. A value must also be one of the option's choices, if it has
    any. JSON null leaves an option unset.
    """
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # past the digit limit; RecursionError comes from deep nesting
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    for key, value in cfg.items():
        if key not in actions:
            raise ParameterError(
                f"config {path} has unknown key {key!r}; valid: {', '.join(actions)}"
            )
        if value is None:
            continue
        kinds, choices = CONFIG_TYPES[type(actions[key].default)], actions[key].choices
        if type(value) not in kinds:
            raise ParameterError(f"config {key!r} must be a {kinds[-1].__name__}, got {value!r}")
        if choices is not None and value not in choices:
            raise ParameterError(
                f"config {key!r} must be one of {', '.join(choices)}, got {value!r}"
            )
    return {key: value for key, value in cfg.items() if value is not None}


def _add_hyper_flags(p, flags=tuple(HYPER_FLAGS), **overrides):
    for flag in flags:
        dest = HYPER_FLAGS[flag]
        default = overrides.get(dest, getattr(HyperParams, dest))
        p.add_argument(flag, dest=dest, type=type(default), default=default)


def _hyper_from(args) -> HyperParams:
    """The command's hyperparameter flags; the fields it has no flag for
    keep their `HyperParams` defaults."""
    return HyperParams(**{dest: getattr(args, dest)
                          for dest in HYPER_FLAGS.values() if hasattr(args, dest)})


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
    if not args.out:
        raise ParameterError("synth needs --out")
    w, h = _parse_numbers(args.size, "x", int, "WxH", 2)
    config = dataset_mod.SynthConfig(
        count=args.count, width=w, height=h, seed=args.seed,
        two_illuminant=args.two_illuminant,
        gray_balance=args.gray_balance,
        white_patch=args.white_patch,
        ill_red_range=_parse_numbers(args.ill_red, ":", float, "lo:hi", 2),
        ill_blue_range=_parse_numbers(args.ill_blue, ":", float, "lo:hi", 2),
        saturation=args.saturation, noise_sigma=args.noise_sigma,
    )
    manifest_path = dataset_mod.generate_dataset(args.out, config)
    print(manifest_path)
    return 0


def cmd_train(args) -> int:
    if not args.manifest or not args.out_dir:
        raise ParameterError("train needs --manifest and --out-dir")
    hyper = _hyper_from(args)
    folds = _parse_numbers(args.folds, ",", int, "comma-separated integer folds")
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(args.manifest))
    result = train(samples, folds, hyper)
    os.makedirs(args.out_dir, exist_ok=True)
    for k, params in result.models.items():
        save_params(params, os.path.join(args.out_dir, f"fold{k}.ccnn"))
    _write_jsonl(result.log, os.path.join(args.out_dir, "train_log.jsonl"))
    for k in result.models:
        print(f"fold{k}.ccnn written")
    return 0


def cmd_finetune(args) -> int:
    if not args.manifest or not args.model or not args.out:
        raise ParameterError("finetune needs --manifest, --model and --out")
    hyper = _hyper_from(args)
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(args.manifest))
    train_samples, val_samples = (fold_samples(samples, f) for f in fold_split(args.fold))
    params = load_params(args.model)
    log: list = []
    tuned = fine_tune(params, train_samples, hyper, pooling=args.pooling,
                      val_dataset=val_samples, log=log)
    save_params(tuned, args.out)
    _write_jsonl(log, args.out + ".log.jsonl")
    print(f"{args.out} written")
    return 0


def _estimator(args):
    """The image -> illuminant function that --algo names."""
    if args.algo == "cnn":
        if not args.model:
            raise ParameterError("--algo cnn needs --model")
        params = load_params(args.model)
        return lambda img: estimate_image(params, img, args.pooling)
    if args.algo not in ESTIMATORS:
        raise ParameterError(
            f"unknown algorithm {args.algo!r}; valid: {', '.join(ESTIMATORS)}, cnn"
        )
    return ESTIMATORS[args.algo]


def cmd_estimate(args) -> int:
    if not args.image:
        raise ParameterError("estimate needs --image")
    img = load_ppm16(args.image)
    est = _estimator(args)(img).rgb
    print(f"{est[0]:.6f} {est[1]:.6f} {est[2]:.6f}")
    return 0


def cmd_correct(args) -> int:
    if not args.image or not args.out:
        raise ParameterError("correct needs --image and --out")
    img = load_ppm16(args.image)
    if args.ill:
        ill = normalize(_parse_numbers(args.ill, ",", float, "R,G,B", 3))
    elif args.algo:
        ill = normalize(_estimator(args)(img))
    else:
        raise ParameterError("correct needs --ill R,G,B or --algo")
    corrected = correct_von_kries(img, ill)
    save_ppm16(corrected, args.out)
    saturated = np.count_nonzero(corrected.data > 1.0)
    print(f"{args.out} written (saturated values: {saturated})")
    return 0


def cmd_local_map(args) -> int:
    if not args.image or not args.model or not args.out_prefix:
        raise ParameterError("local-map needs --image, --model and --out-prefix")
    params = load_params(args.model)
    ill_map = estimate_local_map(params, load_ppm16(args.image))
    if args.filter == "gaussian":
        ill_map = filter_gaussian_3x3(ill_map)
    elif args.filter == "median":
        ill_map = filter_median_3x3(ill_map)
    if args.gt_map:
        gt = load_grid_ground_truth(args.gt_map, params.patch_size)
        summary = summarize(angular_error_map(ill_map, gt)[1])
    save_map_ppm(ill_map, args.out_prefix + ".ppm")
    save_map_csv(ill_map, args.out_prefix + ".csv")
    if args.gt_map:
        print(summary)
    print(f"{args.out_prefix}.ppm written")
    return 0


def cmd_evaluate(args) -> int:
    if not args.manifest:
        raise ParameterError("evaluate needs --manifest")
    check_threads(args.threads)
    algos = tuple(a for a in args.algos.split(",") if a)
    fold_models = _load_fold_models(args.model_dir) if args.model_dir else None
    finetuned = _load_fold_models(args.finetuned_dir) if args.finetuned_dir else None
    check_algos(algos, fold_models, finetuned)
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(args.manifest))
    report = run_benchmark(
        samples, algos, fold_models=fold_models, finetuned_models=finetuned, threads=args.threads)
    text = report.render_text()
    print(text, end="")
    if args.out_prefix:
        with open(args.out_prefix + ".txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        report.write_csv(args.out_prefix + ".csv")
        report.write_per_image_csv(args.out_prefix + "_per_image.csv")
    return 0


def cmd_sweep(args) -> int:
    if not args.manifest or not args.parameter or not args.values or not args.out:
        raise ParameterError("sweep needs --manifest, --parameter, --values and --out")
    base = _hyper_from(args)
    values = _parse_numbers(args.values, ",", int, "comma-separated integer values")
    hypers = []
    for value in values:
        try:
            hypers.append(replace(base, **{args.parameter: value}))
        except ParameterError as exc:
            raise ParameterError(f"sweep value {value} invalid: {exc}") from exc
    samples = dataset_mod.load_samples(dataset_mod.load_manifest(args.manifest))
    test_samples = fold_samples(samples, args.fold)
    truths = [s.illuminant.rgb for s in test_samples]
    rows = []
    for value, hyper in zip(values, hypers):
        model = train(samples, [args.fold], hyper).models[args.fold]
        estimates = [estimate_image(model, s.image, "median").rgb for s in test_samples]
        rows.append((value, float(np.median(angular_error_many(estimates, truths)))))
        print(f"{args.parameter}={value}: median {rows[-1][1]:.2f} deg")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{args.parameter},median_angular_error_deg\n")
        for value, med in rows:
            fh.write(f"{value},{med:.6f}\n")
    return 0


def cmd_gradcheck(args) -> int:
    hyper = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5, seed=args.seed)
    params = init_params(hyper, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    patch = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    gt = normalize(rng.uniform(0.2, 1.0, size=3))
    kinds = ("euclidean", "angular") if args.loss == "both" else (args.loss,)
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
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="128x128", help="image size WxH")
    p.add_argument("--two-illuminant", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--gray-balance", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--white-patch", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--ill-red", default="0.4:1.1", help="illuminant red range lo:hi")
    p.add_argument("--ill-blue", default="0.4:1.1", help="illuminant blue range lo:hi")
    p.add_argument("--saturation", type=float, default=0.65)
    p.add_argument("--noise-sigma", type=float, default=0.01)

    p = sub("train", cmd_train, help="cross-validated patch training")
    p.add_argument("--manifest")
    p.add_argument("--out-dir")
    p.add_argument("--folds", default="0,1,2", help="comma-separated test folds, default 0,1,2")
    _add_hyper_flags(p)

    p = sub("finetune", cmd_finetune, help="fine-tune with pooled angular loss")
    p.add_argument("--manifest")
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--pooling", choices=POOLINGS, default="median")
    _add_hyper_flags(p, ("--lr", "--momentum", "--weight-decay", "--epochs", "--seed"))

    p = sub("estimate", cmd_estimate, help="estimate one image's illuminant")
    p.add_argument("--image")
    p.add_argument("--algo", default="GW")
    p.add_argument("--model")
    p.add_argument("--pooling", choices=POOLINGS, default="median")

    p = sub("correct", cmd_correct, help="write the von Kries corrected image")
    p.add_argument("--image")
    p.add_argument("--out")
    p.add_argument("--ill", help="known illuminant R,G,B")
    p.add_argument("--algo", help="estimate the illuminant first")
    p.add_argument("--model")
    p.add_argument("--pooling", choices=POOLINGS, default="median")

    p = sub("local-map", cmd_local_map, help="per-patch illuminant map")
    p.add_argument("--image")
    p.add_argument("--model")
    p.add_argument("--out-prefix")
    p.add_argument("--filter", choices=("none", "gaussian", "median"), default="none")
    p.add_argument("--gt-map")

    p = sub("evaluate", cmd_evaluate, help="angular-error benchmark table")
    p.add_argument("--manifest")
    p.add_argument("--algos", default=",".join(STAT_ALGOS), help="comma-separated estimator names")
    p.add_argument("--model-dir")
    p.add_argument("--finetuned-dir")
    p.add_argument("--out-prefix")
    p.add_argument("--threads", type=int, default=usable_cpus())

    p = sub("sweep", cmd_sweep, help="hyperparameter sweep, median error per value")
    p.add_argument("--manifest")
    p.add_argument("--parameter", choices=SWEEP_PARAMETERS)
    p.add_argument("--values", help="comma-separated integers")
    p.add_argument("--out")
    p.add_argument("--fold", type=int, default=0)
    _add_hyper_flags(p, kernel_count=16, fc_units=8, epochs=4, patches_per_image=30)

    p = sub("gradcheck", cmd_gradcheck, help="finite-difference gradient check")
    p.add_argument("--loss", choices=("euclidean", "angular", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv`. A --config file's values replace the chosen command's
    built-in defaults, and `argv` is parsed again, so flags still win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        sub.set_defaults(**_config_values(args.config, sub))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (PipelineError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
