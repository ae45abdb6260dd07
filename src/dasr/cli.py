"""Command-line entry point: synth, degrade, train, eval, metrics, sobel,
residual.

Exit codes: 0 success, 1 runtime failure, 2 usage error. ``DASR_LOG``
(quiet | info | debug) controls verbosity. Training flags follow a
three-layer precedence: built-in defaults, then --config file values, then
explicit flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .imaging import (DegradationSpec, Image, degrade, load_image,
                      save_image, sobel_map, to_luma)
from .metrics import (BenchRow, MetricReport, bench_csv, bench_markdown,
                      evaluate_set, mean_report, metric_report)
from .pipeline import (TrainConfig, evaluate_checkpoint, train_stage1,
                       train_stage2)
from .spec import json_object
from .synth import DatasetManifest, SyntheticSceneSpec, make_synthetic_dataset

log = logging.getLogger("dasr")

_DEFAULTS = TrainConfig()


def log_level_from_env(value: str | None) -> int:
    return {"quiet": logging.ERROR, "info": logging.INFO,
            "debug": logging.DEBUG}.get(value or "info", logging.INFO)


def _setup_logging() -> None:
    level = log_level_from_env(os.environ.get("DASR_LOG"))
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    log.setLevel(level)


def _image_files(directory: str) -> list[str]:
    names = sorted(f for f in os.listdir(directory)
                   if f.lower().endswith((".png", ".pgm", ".ppm")))
    if not names:
        raise ValueError(f"no images found in {directory}")
    return names


def _load_manifest(path: str) -> DatasetManifest:
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"manifest not found: {path}")
    return DatasetManifest.load(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SyntheticSceneSpec(**_flag_values(args, SyntheticSceneSpec))
    make_synthetic_dataset(spec, args.out)
    print(os.path.join(args.out, "manifest.json"))
    return 0


def cmd_degrade(args) -> int:
    spec = DegradationSpec(**_flag_values(args, DegradationSpec))
    os.makedirs(args.out, exist_ok=True)
    for i, name in enumerate(_image_files(args.inp)):
        img = degrade(load_image(os.path.join(args.inp, name)), spec,
                      spec.seed + i)
        save_image(img, os.path.join(args.out, name))
        log.info("degraded %s -> %dx%d", name, img.width, img.height)
    return 0


def _merged_config(args) -> TrainConfig:
    """Built-in defaults, then --config file values, then explicit flags."""
    doc = asdict(_DEFAULTS)
    if args.config:
        try:  # JSON and UTF-8 errors get the path, as a manifest's do
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        doc.update(json_object(loaded, args.config))
    doc.update(_flag_values(args, TrainConfig))
    if args.steps is not None:
        doc["steps_stage1" if args.stage == 1 else "steps_stage2"] = args.steps
    return TrainConfig.from_dict(doc, args.config)


def cmd_train(args) -> int:
    config = _merged_config(args)
    log.info("effective config: %s",
             json.dumps(asdict(config), sort_keys=True))
    manifest = _load_manifest(args.data)
    log_path = args.log or None
    if args.stage == 1:
        ckpt = train_stage1(manifest, config, log_path=log_path)
    else:
        if not args.ckpt_in:
            raise ValueError("stage 2 needs --ckpt-in (a stage-1 checkpoint)")
        ckpt = train_stage2(load_checkpoint(args.ckpt_in), manifest, config,
                            log_path=log_path)
    save_checkpoint(ckpt, args.ckpt_out)
    with open(args.ckpt_out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"checkpoint sha256 {digest} -> {args.ckpt_out}")
    if log_path:
        with open(log_path, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        if len(lines) > 1:
            print(f"final {lines[0]}")
            print(f"final {lines[-1]}")
    return 0


def cmd_eval(args) -> int:
    manifest = _load_manifest(args.data)
    rows: list[BenchRow] = []
    if args.self_check:
        pairs = []
        for i in range(len(manifest.entries)):
            hr = manifest.load_ir(i)
            pairs.append((hr, hr))
        rows.append(evaluate_set(pairs, "self-check", manifest.scale))
    else:
        if not args.ckpt:
            raise ValueError("eval needs --ckpt (or --self-check)")
        if not os.path.exists(args.ckpt):
            raise FileNotFoundError(f"checkpoint not found: {args.ckpt}")
        model_row, bicubic_row = evaluate_checkpoint(
            load_checkpoint(args.ckpt), manifest, out_dir=args.out,
            name=args.name)
        rows.extend([model_row, bicubic_row])
    print(bench_markdown(rows) if args.table == "md" else bench_csv(rows),
          end="")
    return 0


def _paired_names(hr_dir: str, sr_dir: str) -> list[str]:
    """The image names of ``hr_dir``, each of which must name an SR image
    in ``sr_dir``, and every SR image an HR one."""
    hr_names = _image_files(hr_dir)
    sr_names = set(_image_files(sr_dir))
    missing = [n for n in hr_names if n not in sr_names]
    extra = sorted(sr_names - set(hr_names))
    if missing or extra:
        raise ValueError(
            "unmatched names: "
            + ", ".join([f"missing SR for {n}" for n in missing]
                        + [f"no HR for {n}" for n in extra]))
    return hr_names


def cmd_metrics(args) -> int:
    names = _paired_names(args.hr, args.sr)
    print("name,psnr,mse,ssim")
    reports = []
    for name in names:
        hr = load_image(os.path.join(args.hr, name))
        sr = load_image(os.path.join(args.sr, name))
        reports.append(metric_report(hr, sr))
        _print_report(name, reports[-1])
    _print_report("mean", mean_report(reports)[0])
    return 0


def _print_report(name: str, rep: MetricReport) -> None:
    p = "inf" if np.isinf(rep.psnr) else f"{rep.psnr:.4f}"
    print(f"{name},{p},{rep.mse:.4f},{rep.ssim:.4f}")


def cmd_sobel(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    names = ([os.path.basename(args.inp)] if os.path.isfile(args.inp)
             else _image_files(args.inp))
    base = os.path.dirname(args.inp) if os.path.isfile(args.inp) else args.inp
    for name in names:
        img = load_image(os.path.join(base, name))
        smap = sobel_map(img)
        peak = smap.max()
        if peak > 0:
            smap = smap / peak
        stem = os.path.splitext(name)[0]
        save_image(Image(smap[:, :, None]),
                   os.path.join(args.out, f"{stem}_sobel.png"))
    return 0


def _color_ramp() -> np.ndarray:
    """Fixed 256-entry blue -> cyan -> yellow -> red ramp."""
    t = np.linspace(0.0, 1.0, 256)
    r = np.clip(np.interp(t, [0.0, 0.35, 0.65, 1.0], [0.0, 0.0, 1.0, 1.0]),
                0, 1)
    g = np.clip(np.interp(t, [0.0, 0.35, 0.65, 1.0], [0.0, 1.0, 1.0, 0.0]),
                0, 1)
    b = np.clip(np.interp(t, [0.0, 0.35, 0.65, 1.0], [0.6, 1.0, 0.0, 0.0]),
                0, 1)
    return np.stack([r, g, b], axis=1)


def cmd_residual(args) -> int:
    names = _paired_names(args.hr, args.sr)
    os.makedirs(args.out, exist_ok=True)
    ramp = _color_ramp()
    total = []
    for name in names:
        hr = to_luma(load_image(os.path.join(args.hr, name)))
        sr = to_luma(load_image(os.path.join(args.sr, name)))
        if (hr.height, hr.width) != (sr.height, sr.width):
            raise ValueError(
                f"{name}: extent mismatch {hr.height}x{hr.width} vs "
                f"{sr.height}x{sr.width}")
        resid = np.abs(hr.array - sr.array)[:, :, 0]
        stem = os.path.splitext(name)[0]
        save_image(Image(resid[:, :, None]),
                   os.path.join(args.out, f"{stem}_residual.png"))
        idx = np.floor(np.clip(resid, 0, 1) * 255.0 + 0.5).astype(np.int64)
        save_image(Image(ramp[idx]),
                   os.path.join(args.out, f"{stem}_residual_color.png"))
        mean_r = float(resid.mean())
        total.append(mean_r)
        print(f"{name},{mean_r:.6f}")
    print(f"mean,{float(np.mean(total)):.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")
    return value == "on"


def _float_list(value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}") from None


# argparse type of each settings field annotation
_ARG_TYPES = {"int": int, "float": float, "str": str, "bool": _onoff,
              "Optional[list[float]]": _float_list}


def _add_flags(parser: argparse.ArgumentParser, spec_cls) -> None:
    """One flag per field of ``spec_cls`` that has help text (see
    ``dasr.spec``): ``--name-with-dashes`` or the ``flag`` entry, parsed by
    the field's type and limited to its ``choices``; the help gets the
    default appended unless it is None. An unset flag parses to None."""
    for f in fields(spec_cls):
        meta = f.metadata
        if not meta.get("help"):
            continue
        kind = _ARG_TYPES[f.type]
        help_text = meta["help"]
        if f.default is not None:
            default = f.default
            if kind is _onoff:
                default = "on" if default else "off"
            help_text += f" (default: {default})"
        parser.add_argument(
            meta.get("flag", "--" + f.name.replace("_", "-")), dest=f.name,
            type=kind, choices=meta.get("choices"),
            metavar="{on,off}" if kind is _onoff else None, help=help_text)


def _flag_values(args, spec_cls) -> dict:
    """The fields of ``spec_cls`` set by flags on the command line."""
    return {f.name: v for f in fields(spec_cls)
            if (v := getattr(args, f.name, None)) is not None}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dasr",
        description="Infrared super-resolution: dataset synthesis, "
                    "degradation, two-stage training, and evaluation.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate an aligned IR/visible "
                                      "synthetic dataset")
    _add_flags(sp, SyntheticSceneSpec)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_synth)

    dp = sub.add_parser("degrade", help="blur, bicubic-downscale, and add "
                                        "noise to a directory of images")
    dp.add_argument("--in", dest="inp", required=True,
                    help="input image directory")
    dp.add_argument("--out", required=True, help="output directory")
    _add_flags(dp, DegradationSpec)
    dp.set_defaults(fn=cmd_degrade)

    tp = sub.add_parser("train", help="run stage-1 or stage-2 training")
    tp.add_argument("--stage", type=int, required=True, choices=(1, 2))
    tp.add_argument("--data", required=True,
                    help="dataset manifest (file or directory)")
    tp.add_argument("--config", help="JSON config file (flags override it)")
    tp.add_argument("--ckpt-in", help="input checkpoint (stage 2)")
    tp.add_argument("--ckpt-out", required=True, help="output checkpoint")
    tp.add_argument("--log", help="write per-step loss CSV here")
    tp.add_argument("--steps", type=int,
                    help=f"training steps (default: "
                         f"{_DEFAULTS.steps_stage1} stage 1, "
                         f"{_DEFAULTS.steps_stage2} stage 2)")
    _add_flags(tp, TrainConfig)
    tp.set_defaults(fn=cmd_train)

    ep = sub.add_parser("eval", help="evaluate a checkpoint against a "
                                     "manifest (plus bicubic baseline)")
    ep.add_argument("--ckpt", help="checkpoint to evaluate")
    ep.add_argument("--data", required=True, help="manifest (file or dir)")
    ep.add_argument("--out", help="write SR images here")
    ep.add_argument("--table", choices=("csv", "md"), default="csv",
                    help="output table format (default: csv)")
    ep.add_argument("--name", default="eval",
                    help="dataset label in the table (default: eval)")
    ep.add_argument("--self-check", dest="self_check", action="store_true",
                    help="evaluate HR against itself (harness sanity)")
    ep.set_defaults(fn=cmd_eval)

    mp = sub.add_parser("metrics", help="PSNR/MSE/SSIM for name-matched "
                                        "image pairs")
    mp.add_argument("--hr", required=True, help="reference image directory")
    mp.add_argument("--sr", required=True, help="test image directory")
    mp.set_defaults(fn=cmd_metrics)

    op = sub.add_parser("sobel", help="write max-normalized Sobel magnitude "
                                      "maps")
    op.add_argument("--in", dest="inp", required=True,
                    help="input image or directory")
    op.add_argument("--out", required=True, help="output directory")
    op.set_defaults(fn=cmd_sobel)

    rp = sub.add_parser("residual", help="write |HR-SR| residual heatmaps")
    rp.add_argument("--hr", required=True, help="reference image directory")
    rp.add_argument("--sr", required=True, help="test image directory")
    rp.add_argument("--out", required=True, help="output directory")
    rp.set_defaults(fn=cmd_residual)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # runtime failures exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
