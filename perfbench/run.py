#!/usr/bin/env python3
"""dasr benchmark: stage-1 training, stage-2 adaptation and tiled inference.

Run from the root of a dasr checkout:

    python3 perfbench/run.py --workload s1-tiny --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload s2-adapt --smoke --trace 1

Each workload drives the real entry point, ``dasr.cli.main``, in-process
with the arguments a user would type. Inputs come from ``dasr synth`` with
the given seed. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps every public dasr function from this directory and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result (machine context included) goes to ``.bench_out/``. See README.md in
this directory for the metrics, the workloads and what each one exercises.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read their thread counts once, when numpy is first loaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, maxrss_mb, rebind, restore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
REGISTRY = OUT / "checkpoints.json"

SETUP_REPS = 5
CHILD_TIMEOUT_S = 120
HELDOUT_SEED = 7919  # offset of the held-out set's seed from the run seed

# generator parameters sort first under this prefix; the step hook uses it
# to tell generator updates from discriminator updates
GEN_FIRST_PARAM = "conv_first."


@dataclass(frozen=True)
class Train:
    """A training workload: ``dasr train`` with fixed flags, repeated."""

    name: str
    stage: int
    data: tuple[int, int]          # synth --count, --size
    flags: tuple[str, ...]
    steps: int                     # per timed call; the first step of a call
                                   # has no start mark, so 201 steps give
                                   # 200 durations, enough for a p95
    probe_steps: int               # untraced reference call of a traced run
    gen_updates: int               # generator adam_step calls per step
    stage1_steps: int = 0          # steps of the stage-1 checkpoint stage 2
                                   # starts from


@dataclass(frozen=True)
class Serve:
    """The inference workload: one ``dasr eval`` process per request, each
    over the same held-out set."""

    name: str
    data: tuple[int, int]
    ckpt_flags: tuple[str, ...]    # trains the checkpoint that is served
    images: int                    # images in the held-out set
    extent: int                    # HR extent of each held-out image


S1_FLAGS = ("--scale", "2", "--lr-crop", "6", "--batch", "1", "--adv", "off",
            "--lr", "1e-3", "--preset", "desk")
S2_FLAGS = ("--scale", "2", "--lr-crop", "12", "--batch", "1", "--adv", "on",
            "--lr", "1e-3", "--preset", "desk", "--trans-mode",
            "prior-branch", "--ir-replay", "on", "--prior-depth", "middle")
STAGE1_FOR_S2 = ("--scale", "2", "--lr-crop", "12", "--batch", "1", "--adv",
                 "off", "--lr", "1e-3", "--preset", "desk")
SERVE_CKPT = ("--scale", "2", "--lr-crop", "6", "--batch", "4", "--adv",
              "off", "--lr", "1e-3", "--preset", "desk")


def flag(flags: tuple[str, ...], name: str) -> int:
    return int(flags[flags.index(name) + 1])


def workloads(smoke: bool) -> dict:
    """The workloads; why each exists is recorded in BENCHMARK.json."""
    if smoke:
        specs = [
            Train("s1-tiny", stage=1, data=(4, 32), flags=S1_FLAGS, steps=6,
                  probe_steps=4, gen_updates=1),
            Train("s2-adapt", stage=2, data=(4, 32), flags=S2_FLAGS, steps=4,
                  probe_steps=3, gen_updates=2, stage1_steps=2),
            Serve("sr-tiled", data=(4, 32),
                  ckpt_flags=SERVE_CKPT + ("--steps", "2"), images=2,
                  extent=32),
        ]
    else:
        specs = [
            Train("s1-tiny", stage=1, data=(64, 64), flags=S1_FLAGS,
                  steps=400, probe_steps=200, gen_updates=1),
            Train("s2-adapt", stage=2, data=(24, 48), flags=S2_FLAGS,
                  steps=201, probe_steps=60, gen_updates=2, stage1_steps=10),
            Serve("sr-tiled", data=(16, 64),
                  ckpt_flags=SERVE_CKPT + ("--steps", "20"), images=2,
                  extent=160),
        ]
    return {spec.name: spec for spec in specs}


# printed beside BENCHMARK.json's end-to-end metrics but not gated there;
# README.md says why each is left out
REPORTED_ONLY = (("step_ms_p95", "ms"), ("sr_ms_per_lr_mpix", "ms/MP"),
                 ("image_ms_p50", "ms"),
                 ("g_loss_final", "loss"), ("psnr_db", "dB"),
                 ("fail_ratio", "failed/attempted"))


class MissingSource(RuntimeError):
    pass


def load_dasr():
    """Import dasr from this checkout's src/, never from anywhere else."""
    if not (SRC / "dasr" / "__init__.py").is_file():
        raise MissingSource(f"{SRC / 'dasr'} not found: run from the root "
                            "of a dasr checkout")
    os.environ["DASR_LOG"] = "quiet"
    sys.path.insert(0, str(SRC))
    import dasr.cli
    import dasr.pipeline
    return dasr


# ---------------------------------------------------------------------------
# calling dasr
# ---------------------------------------------------------------------------

def call_cli(dasr, argv: list[str]) -> tuple[int, str, float]:
    """``dasr.cli.main(argv)`` with stdout captured: (exit code, stdout,
    wall seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = dasr.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue(), time.perf_counter() - t0


def printed_sha(out: str) -> str | None:
    for line in out.splitlines():
        if line.startswith("checkpoint sha256 "):
            return line.split()[2]
    return None


def log_check(path: str, steps: int) -> tuple[float, list[str]]:
    """(mean total_g over the last tenth of the steps, problems)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        return math.nan, [f"loss log unreadable: {exc}"]
    if not lines:
        return math.nan, ["loss log is empty"]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    problems = []
    if len(rows) != steps:
        problems.append(f"loss log has {len(rows)} rows, expected {steps}")
    bad = [r for r in rows if not all(math.isfinite(v) for v in r)]
    if bad:
        problems.append(f"{len(bad)} logged steps have a non-finite loss, "
                        f"first at step {int(bad[0][0])}")
    if not rows:
        return math.nan, problems
    col = header.index("total_g")
    tail = rows[-max(1, len(rows) // 10):]
    return statistics.fmean(r[col] for r in tail), problems


class StepClock:
    """The one hook of an untraced training run: wraps ``adam_step`` as the
    pipeline sees it and records when each training step ends (the last
    generator update of the step)."""

    def __init__(self, dasr, gen_updates: int, tracer=None):
        self.dasr = dasr
        self.gen_updates = gen_updates
        self.tracer = tracer
        self.inner = None
        self._changed = []
        self.reset()

    def reset(self) -> None:
        self.gen_calls = 0
        self.ends: list[float] = []

    def install(self) -> None:
        self.inner = self.dasr.pipeline.adam_step
        self._changed = rebind([self.dasr.pipeline, self.dasr.optim],
                               self.inner, self._hook)

    def uninstall(self) -> None:
        restore(self._changed)
        self._changed = []

    def _hook(self, params, *args, **kwargs):
        out = self.inner(params, *args, **kwargs)
        if params and params[0].name.startswith(GEN_FIRST_PARAM):
            self.gen_calls += 1
            if self.gen_calls % self.gen_updates == 0:
                self.ends.append(time.perf_counter())
                if self.tracer is not None:
                    self.tracer.unit_done()
        return out


class ImageClock:
    """The one hook of an untraced ``dasr eval``: times each
    ``super_resolve`` call and checks the image it returns."""

    def __init__(self, dasr, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        self.problems: list[str] = []
        self.inner = dasr.pipeline.super_resolve
        rebind([dasr.pipeline], self.inner, self._hook)

    def _hook(self, gen, lr, *args, **kwargs):
        t0 = time.perf_counter()
        sr = self.inner(gen, lr, *args, **kwargs)
        self.times.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.unit_done()
        s = gen.config.scale
        arr = sr.array
        if arr.shape != (s * lr.height, s * lr.width, 1):
            self.problems.append(f"SR shape {arr.shape} for LR "
                                 f"{lr.height}x{lr.width} at x{s}")
        elif not np.all(np.isfinite(arr)):
            self.problems.append("SR output has non-finite pixels")
        elif arr.min() < 0.0 or arr.max() > 1.0:
            self.problems.append(f"SR output outside [0,1]: "
                                 f"{arr.min()}..{arr.max()}")
        return sr


def child_eval(job: dict) -> int:
    """One sr-tiled request: ``dasr eval --ckpt --data --out`` over the
    held-out set in this process, outputs checked; prints one JSON line for
    the parent."""
    dasr = load_dasr()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        tracer.set_phase("run")
    clock = ImageClock(dasr, tracer)
    code, stdout, wall = call_cli(dasr, ["eval", "--ckpt", job["ckpt"],
                                         "--data", job["data"], "--out",
                                         job["out"]])
    res = {"eval_s": wall, "image_s": clock.times, "maxrss_mb": maxrss_mb(),
           "problems": clock.problems, "psnr": math.nan}
    for line in stdout.strip().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "eval":
            res["psnr"] = float(cells[2])
    if code != 0:
        res["problems"].append(f"dasr eval exited {code}")
    if not math.isfinite(res["psnr"]):
        res["problems"].append(f"model PSNR is not finite: {res['psnr']}")
    written = len(os.listdir(job["out"])) if os.path.isdir(job["out"]) else 0
    if len(clock.times) != job["images"] or written != job["images"]:
        res["problems"].append(f"{len(clock.times)} images super-resolved "
                               f"and {written} written, expected "
                               f"{job['images']}")
    if tracer is not None:
        Path(job["trace"]).write_text(json.dumps(tracer.export()))
    print(json.dumps(res))
    return 0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, dasr, args, spec):
        self.dasr = dasr
        self.args = args
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shas: dict[str, str] = {}
        self.setup_s: list[float] = []
        self.step_s: list[float] = []
        self.probe_step_s: list[float] = []
        self.call_s: list[float] = []
        self.samples = 0
        self.lr_px = 0.0
        self.g_loss = math.nan
        self.psnr = math.nan
        self.peak_rss_mb = 0.0
        self.tracer = None
        tag = f"{spec.name}-s{args.seed}{'-smoke' if args.smoke else ''}"
        self.tag = f"{tag}-trace{args.trace}"
        self.dir = WORK / f"{self.tag}-{os.getpid()}"

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        return call_cli(self.dasr, argv)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def synth(self, count: int, size: int, seed: int, out: str) -> None:
        code, _, _ = self.cli(["synth", "--count", str(count), "--size",
                               str(size), "--seed", str(seed), "--out", out])
        if code != 0:
            self.problem(f"dasr synth --out {out} exited {code}")

    def same_sha(self, key: str, sha: str | None) -> bool:
        """Record a checkpoint digest; false if it differs from an earlier
        same-seed run of the same command."""
        if sha is None:
            self.problem(f"{key}: no checkpoint sha256 printed")
            return False
        seen = self.shas.setdefault(key, sha)
        if seen != sha:
            self.problem(f"{key}: sha256 {sha} != {seen} within this run")
            return False
        return True

    def check_registry(self, src_sha256: str) -> None:
        """Compare this run's digests with earlier runs of the same dasr
        source in this checkout."""
        OUT.mkdir(exist_ok=True)
        try:
            reg = json.loads(REGISTRY.read_text())
        except (OSError, ValueError):
            reg = {}
        # the source digest keeps a numerics change between commits from
        # counting as a mismatch; the spec digest does the same for a change
        # to a workload's flags or sizes
        spec_id = hashlib.sha256(repr(self.spec).encode()).hexdigest()[:12]
        prefix = (f"{self.spec.name}|seed={self.args.seed}|spec={spec_id}|"
                  f"src={src_sha256[:16]}|")
        for key, sha in self.shas.items():
            old = reg.setdefault(prefix + key, sha)
            if old != sha:
                self.problem(f"{key}: sha256 {sha} differs from an earlier "
                             f"same-seed run of this source ({old})")
                self.failed = self.attempted
        tmp = REGISTRY.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reg, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, REGISTRY)


class TrainRun(Run):
    def setup(self, rep: int) -> dict:
        spec, seed = self.spec, self.args.seed
        d = self.dir / f"setup{rep}"
        st = {"data": str(d / "train"), "dir": d}
        self.synth(*spec.data, seed, st["data"])
        if spec.stage == 2:
            st["ckpt_in"] = str(d / "stage1.ckpt")
            code, out, _ = self.cli(
                ["train", "--stage", "1", "--data", st["data"], "--ckpt-out",
                 st["ckpt_in"], "--steps", str(spec.stage1_steps),
                 "--seed", str(seed), *STAGE1_FOR_S2])
            if code != 0:
                self.problem(f"set-up stage-1 training exited {code}")
            self.same_sha("setup-stage1", printed_sha(out))
        self.train(st, 2, "warmup")
        return st

    def train(self, st: dict, steps: int, label: str
              ) -> tuple[bool, list[float], float, float]:
        """One checked ``dasr train`` call: (ok, step durations in s, wall s,
        g_loss_final)."""
        spec, d = self.spec, st["dir"]
        argv = ["train", "--stage", str(spec.stage), "--data", st["data"],
                "--ckpt-out", str(d / f"{label}.ckpt"), "--log",
                str(d / f"{label}.csv"), "--steps", str(steps),
                "--seed", str(self.args.seed), *spec.flags]
        if spec.stage == 2:
            argv += ["--ckpt-in", st["ckpt_in"]]
        self.clock.reset()
        code, out, wall = self.cli(argv)
        ok = code == 0
        if not ok:
            self.problem(f"{label}: dasr train exited {code}")
        ok &= self.same_sha(label, printed_sha(out))
        expected = spec.gen_updates * steps
        if self.clock.gen_calls != expected:
            self.problem(f"{label}: step hook saw {self.clock.gen_calls} "
                         f"generator updates, expected {expected}")
            ok = False
        g_loss, problems = log_check(str(d / f"{label}.csv"), steps)
        for p in problems:
            self.problem(f"{label}: {p}")
        durations = [b - a for a, b in zip(self.clock.ends,
                                           self.clock.ends[1:])]
        return ok and not problems, durations, wall, g_loss

    def measure(self, st: dict) -> None:
        spec = self.spec
        batch = flag(spec.flags, "--batch")
        t0 = time.perf_counter()
        while True:
            ok, durations, wall, self.g_loss = self.train(st, spec.steps,
                                                          "run")
            self.attempted += spec.steps
            if not ok:
                self.failed += spec.steps
            self.step_s += durations
            self.call_s.append(wall)
            self.samples += spec.steps * batch
            elapsed = time.perf_counter() - t0
            if self.args.smoke or elapsed >= self.args.seconds:
                break
        self.peak_rss_mb = maxrss_mb()

    def probe(self, st: dict) -> None:
        self.probe_step_s += self.train(st, self.spec.probe_steps,
                                        "probe")[1]

    def install_hooks(self) -> None:
        self.clock = StepClock(self.dasr, self.spec.gen_updates, self.tracer)
        self.clock.install()

    def remove_hooks(self) -> None:
        self.clock.uninstall()


class ServeRun(Run):
    def setup(self, rep: int) -> dict:
        spec, seed = self.spec, self.args.seed
        d = self.dir / f"setup{rep}"
        st = {"dir": d, "ckpt": str(d / "served.ckpt"),
              "heldout": str(d / "heldout")}
        data = str(d / "train")
        self.synth(*spec.data, seed, data)
        code, out, _ = self.cli(
            ["train", "--stage", "1", "--data", data, "--ckpt-out",
             st["ckpt"], "--seed", str(seed),
             *spec.ckpt_flags])
        if code != 0:
            self.problem(f"set-up training exited {code}")
        self.same_sha("setup-served", printed_sha(out))
        self.synth(spec.images, spec.extent, seed + HELDOUT_SEED,
                   st["heldout"])
        return st

    def request(self, st: dict, i: int, traced: bool) -> dict:
        """The held-out set served by its own ``dasr eval`` process."""
        out = self.dir / f"req{len(list(self.dir.glob('req*')))}"
        job = {"ckpt": st["ckpt"], "data": st["heldout"],
               "images": self.spec.images, "out": str(out / "sr"),
               "trace": str(out / "trace.json") if traced else None}
        out.mkdir(parents=True)
        failed = {"image_s": [], "eval_s": math.nan, "psnr": math.nan,
                  "maxrss_mb": 0.0}
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--child-eval",
                 json.dumps(job)], capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return dict(failed, problems=[f"eval process still running "
                                          f"after {CHILD_TIMEOUT_S} s"])
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = dict(failed, problems=[
                f"eval process exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"])
        if traced and os.path.exists(job["trace"]):
            self.tracer.merge(json.loads(Path(job["trace"]).read_text()),
                              proc=i + 1)
        return res

    def measure(self, st: dict) -> None:
        spec = self.spec
        # the first process to map ~3 GB after set-up runs about 1.5x slower
        # than the rest; users serving many requests do not pay that each time
        for p in self.request(st, 0, traced=False)["problems"]:
            self.problem(f"warm-up request: {p}")
        t0 = time.perf_counter()
        i = 0
        while True:
            res = self.request(st, i, traced=self.tracer is not None)
            self.attempted += spec.images
            for p in res["problems"]:
                self.problem(f"request {i}: {p}")
            if res["problems"]:
                self.failed += spec.images
            else:
                self.step_s += res["image_s"]
                self.call_s.append(res["eval_s"])
                self.samples += spec.images
                self.lr_px += spec.images * (
                    spec.extent // flag(spec.ckpt_flags, "--scale")) ** 2
                self.peak_rss_mb = max(self.peak_rss_mb, res["maxrss_mb"])
                if self.psnr != res["psnr"] and not math.isnan(self.psnr):
                    self.problem(f"request {i}: model PSNR {res['psnr']} != "
                                 f"{self.psnr} of the earlier requests")
                    self.failed += spec.images
                self.psnr = res["psnr"]
            i += 1
            elapsed = time.perf_counter() - t0
            if self.args.smoke or elapsed >= self.args.seconds:
                break

    def probe(self, st: dict) -> None:
        self.request(st, 0, traced=False)  # warm-up, as in measure
        self.probe_step_s += self.request(st, 0, traced=False)["image_s"]

    def install_hooks(self) -> None:
        pass  # each request process installs its own

    def remove_hooks(self) -> None:
        pass


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def machine_context(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dasr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=str(ROOT), timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb / 1024 if mem_kb else None,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def end_to_end(run: Run) -> dict[str, float]:
    ms = [1e3 * s for s in run.step_s]
    wall = sum(run.call_s)
    return {
        "setup_s": statistics.median(run.setup_s),
        "samples_per_s": run.samples / wall if wall else 0.0,
        "step_ms_p50": percentile(ms, 50),
        "step_ms_p95": percentile(ms, 95),
        "sr_ms_per_lr_mpix": 1e3 * wall / (run.lr_px / 1e6)
        if run.lr_px else math.nan,
        "peak_rss_mb": run.peak_rss_mb,
        "g_loss_final": run.g_loss,
        "psnr_db": run.psnr,
        "image_ms_p50": percentile(ms, 50) if isinstance(run, ServeRun)
        else math.nan,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
    }


def write_layer_table(path: Path, run: Run, metrics: dict) -> None:
    unit = "image" if isinstance(run, ServeRun) else "step"
    lines = [f"# {run.spec.name}, seed {run.args.seed}: per-layer self time",
             "", f"Traced {run.tracer.units['run']} {unit}s. Times are ms "
             f"per {unit}; self = span minus its traced children.", "",
             "## By module", "", "| module | self ms | share |",
             "|---|---:|---:|"]
    rows = run.tracer.self_time_table("run")
    total = sum(r["self_ms"] for r in rows) or 1.0
    by_mod: dict[str, float] = {}
    for r in rows:
        mod = r["span"].split(".")[0]
        by_mod[mod] = by_mod.get(mod, 0.0) + r["self_ms"]
    for mod, v in sorted(by_mod.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {mod} | {v:.3f} | {100 * v / total:.1f}% |")
    lines += ["", "## By span", "",
              f"| span | calls/{unit} | total ms | self ms | self share |",
              "|---|---:|---:|---:|---:|"]
    for r in rows:
        lines.append(f"| {r['span']} | {r['calls']:.2f} | "
                     f"{r['total_ms']:.3f} | {r['self_ms']:.3f} | "
                     f"{100 * r['self_ms'] / total:.1f}% |")
    lines += ["", "## Tracing overhead", "",
              f"Untraced reference p50 {metrics['untraced_p50_ms']:.2f} ms, "
              f"traced p50 {metrics['traced_p50_ms']:.2f} ms per {unit}: "
              f"+{metrics['trace.overhead_ms']:.2f} ms "
              f"({metrics['trace.overhead_pct']:.1f}%).", "",
              "## Per-layer metrics", "", "| metric | value |", "|---|---:|"]
    for k, v in metrics.items():
        lines.append(f"| {k} | {v:.6g} |")
    path.write_text("\n".join(lines) + "\n")


def execute(args) -> int:
    dasr = load_dasr()
    spec = workloads(args.smoke)[args.workload]
    run = (TrainRun if isinstance(spec, Train) else ServeRun)(dasr, args,
                                                              spec)
    context = machine_context(args)
    print(f"dasr benchmark: workload {spec.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}"
          f"{', smoke' if args.smoke else ''}")
    print("context " + json.dumps(context, sort_keys=True))
    run.dir.mkdir(parents=True)
    try:
        run.install_hooks()
        if not args.trace:
            for rep in range(SETUP_REPS):
                t0 = time.perf_counter()
                st = run.setup(rep)
                run.setup_s.append(time.perf_counter() - t0)
            run.measure(st)
        else:
            t0 = time.perf_counter()
            st = run.setup(0)
            run.setup_s.append(time.perf_counter() - t0)
            run.probe(st)
            run.remove_hooks()
            run.tracer = Tracer()
            run.tracer.install()
            run.install_hooks()
            run.tracer.set_phase("setup")
            st = run.setup(1)
            run.tracer.set_phase("run")
            run.measure(st)
            run.tracer.uninstall()
        run.remove_hooks()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    run.check_registry(context["src_sha256"])
    e2e = end_to_end(run)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not all(math.isfinite(e2e[m["name"]]) for m in bench["end_to_end"]):
        run.problem("an end-to-end metric is not finite")
    correct = not run.problems and run.failed == 0
    unit = "image" if isinstance(run, ServeRun) else "step"
    result = {"workload": spec.name, "context": context, "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "checkpoint_sha256": run.shas,
              "step_samples": len(run.step_s), "unit": unit,
              "step_ms": [1e3 * t for t in run.step_s],
              "setup_s_all": run.setup_s, "end_to_end": e2e}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        layer = run.tracer.per_layer_metrics()
        ms = [1e3 * s for s in run.step_s]
        probe = [1e3 * s for s in run.probe_step_s]
        traced_p50 = percentile(ms, 50)
        untraced_p50 = percentile(probe, 50)
        layer["trace.overhead_ms"] = traced_p50 - untraced_p50
        layer["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1)
        stem = f"{spec.name}-s{args.seed}{'-smoke' if args.smoke else ''}"
        run.tracer.save(str(OUT / f"trace-{stem}.npz"),
                        {"workload": spec.name, "context": context,
                         "unit": unit})
        table = dict(layer, traced_p50_ms=traced_p50,
                     untraced_p50_ms=untraced_p50)
        write_layer_table(OUT / f"layers-{stem}.md", run, table)
        result["per_layer"] = table
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        print(f"per-layer metrics per {unit} "
              f"({run.tracer.units['run']} traced):")
        for k, v in metrics.items():
            print(f"  {k:32s} {v['value']:14.6g} {v['unit']}")
        print(f"self-time table: {OUT / f'layers-{stem}.md'}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        print(f"end-to-end ({len(run.step_s)} timed {unit}s, "
              f"{run.attempted} attempted):")
        named = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        for k, u in named + list(REPORTED_ONLY):
            value = "n/a" if math.isnan(e2e[k]) else f"{e2e[k]:.6g}"
            print(f"  {k:20s} {value:>14s} {u}")
    for p in run.problems:
        print(f"problem: {p}")
    (OUT / f"result-{run.tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=float) + "\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results = {}
    for name in workloads(args.smoke):
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                               else [])
        proc = subprocess.run(argv, capture_output=True, text=True,
                              cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
            else {"correct": False, "error": proc.stderr[-500:]}
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*workloads(False), "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one call per workload, for tests")
    p.add_argument("--child-eval", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.child_eval:
            return child_eval(json.loads(args.child_eval))
        if args.workload is None:
            p.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return execute(args)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
