"""Golden trajectories: the per-step loss log and the eval PSNR of a few
short fixed-seed runs, pinned so that a refactor that claims to keep
behaviour is checked by the suite rather than by hand.

Values are compared at 1e-4 relative, with an absolute floor of 1e-6 (the
loss log's last printed digit); the drift between BLAS thread counts is
about 1e-6 over 20 steps. Each run's checkpoint sha256 is printed (run
with ``-s`` to see it) but not asserted: it depends on the BLAS build and
thread count. A change that moves these values must say so, with the old
and new values and the reason.

To re-record after an intended change, print ``_trajectory(...)`` for each
case of ``RUNS`` and paste the result into ``GOLDEN``.
"""

import hashlib

import pytest

from dasr.checkpoint import checkpoint_bytes
from dasr.imaging import DegradationSpec
from dasr.pipeline import (TrainConfig, evaluate_checkpoint, train_stage1,
                           train_stage2)
from dasr.synth import SyntheticSceneSpec, make_synthetic_dataset

REL, ABS = 1e-4, 1e-6

BASE = dict(lr=1e-3, batch=1, seed=5, steps_stage1=3, steps_stage2=3)

# name -> (scale, stage-1 config overrides, stage-2 overrides or None)
RUNS = {
    "s1-adv-on": (2, dict(lr_crop=10, adv_enabled=True), None),
    "s1-adv-off": (2, dict(lr_crop=10, adv_enabled=False), None),
    "s2-prior-branch": (2, dict(lr_crop=10, adv_enabled=True),
                        dict(trans_mode="prior-branch")),
    "s2-raw-sobel": (2, dict(lr_crop=10, adv_enabled=True),
                     dict(trans_mode="raw-sobel", init_trans_from_spre=True)),
    "x4": (4, dict(lr_crop=6, adv_enabled=True, steps_stage1=2,
                   steps_stage2=2), dict()),
}

# name -> (per-step loss-log rows of the last stage, eval PSNR); the
# columns are those of ``LossBreakdown`` after ``step``: mae, adv_g, noise,
# trans, spre, total_g, total_d
GOLDEN = {
    "s1-adv-off": ([
    [0.006495, 0.0, 0.0, 0.0, 0.0, 0.006495, 0.0],
    [0.037152, 0.0, 0.0, 0.0, 0.0, 0.037152, 0.0],
    [0.050671, 0.0, 0.0, 0.0, 0.0, 0.050671, 0.0],
    ], 29.702093),
    "s1-adv-on": ([
    [0.006495, 0.107465, 0.0, 0.0, -1.401786, 0.11396, 1.401786],
    [0.127465, 0.111696, 0.0, 0.0, -3.142264, 0.239161, 3.142264],
    [0.066973, 0.422163, 0.0, 0.0, -2.373146, 0.489137, 2.373146],
    ], 30.279472),
    "s2-prior-branch": ([
    [0.050557, 0.062051, -0.064262, 0.304582, -1.411969, 0.106182, 1.107387],
    [0.036981, 0.173074, -0.055972, 0.326408, -3.367508, 0.204458, 3.0411],
    [0.060031, 0.443158, -0.061078, 0.355655, -2.329048, 0.497082, 1.973393],
    ], 30.872429),
    "s2-raw-sobel": ([
    [0.050557, 0.579579, -0.064262, 0.146999, -1.416969, 0.62371, 1.26997],
    [0.037795, 1.078239, -0.055834, 0.150179, -1.668158, 1.110451, 1.517979],
    [0.046407, 0.818876, -0.06249, 0.122745, -1.693695, 0.859034, 1.57095],
    ], 28.330681),
    "x4": ([
    [0.039013, 0.149626, -0.067951, 0.44272, -3.407845, 0.181844, 2.965125],
    [0.037663, 0.063598, -0.058913, 0.537, -5.241196, 0.095369, 4.704196],
    ], 27.804373),
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return {scale: make_synthetic_dataset(
        SyntheticSceneSpec(count=2, extent=16 * scale, seed=13),
        str(root / f"x{scale}"), degradation=DegradationSpec(scale=scale))
        for scale in (2, 4)}


def _trajectory(name, datasets, tmp_path):
    """(loss-log rows, eval PSNR, checkpoint sha256) of run ``name``."""
    scale, s1_kw, s2_kw = RUNS[name]
    config = TrainConfig(scale=scale, **{**BASE, **s1_kw, **(s2_kw or {})})
    data = datasets[scale]
    log = tmp_path / "loss.csv"
    ckpt = train_stage1(data, config, log_path=None if s2_kw is not None
                        else str(log))
    if s2_kw is not None:
        ckpt = train_stage2(ckpt, data, config, log_path=str(log))
    rows = [[float(v) for v in line.split(",")[1:]]
            for line in log.read_text().splitlines()[1:]]
    model_row, _ = evaluate_checkpoint(ckpt, data)
    digest = hashlib.sha256(checkpoint_bytes(ckpt)).hexdigest()
    return rows, round(model_row.psnr, 6), digest


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trajectory(name, datasets, tmp_path):
    rows, psnr, digest = _trajectory(name, datasets, tmp_path)
    print(f"\n{name}: checkpoint sha256 {digest}")
    want_rows, want_psnr = GOLDEN[name]
    assert len(rows) == len(want_rows)
    for step, (got, want) in enumerate(zip(rows, want_rows)):
        assert got == pytest.approx(want, rel=REL, abs=ABS), f"step {step}"
    assert psnr == pytest.approx(want_psnr, rel=REL, abs=ABS)
