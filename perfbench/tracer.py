"""Span tracer for the dasr benchmark.

The tracer wraps the public functions of every ``dasr`` module, and the
public methods of the classes they define, from outside the package. Each
call becomes a span (name, start, end, parent span, step or image index,
phase). Spans live in flat typed arrays, not in Python tuples, so recording
them adds no objects for the cyclic garbage collector to track. The one
object tracing keeps alive is a small counting closure per autograd node, so
the collector's schedule, and with it the retained-graph memory the benchmark
reports, stays close to the untraced run.

``per_layer_metrics`` turns the spans of a run into the per-layer metrics
named in ``BENCHMARK.json``; ``self_time_table`` gives the module-level
self-time table. Nothing here is imported by ``dasr`` itself.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import resource
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "pipeline", "models", "losses", "optim", "tensor",
           "imaging", "metrics", "pngio", "synth", "checkpoint", "rng")

# hot accessors on every tensor; their cost shows up as self time of the op
# or loss that calls them
_SKIP_CLASSES = ("Tensor", "Parameter")

ELEMENTWISE = ("add", "sub", "mul", "scale", "add_scalar", "leaky_relu",
               "softplus", "sqrt", "reshape", "concat", "sum_all", "mean",
               "reduce_mean_abs_diff", "pixel_shuffle", "pixel_unshuffle")

DISC_SPANS = ("models.DiscSpre.__call__", "models.DiscTrans.__call__",
              "models.DiscTrans.prior_branch")
PIPELINE_SELF = ("pipeline.train_stage1", "pipeline.train_stage2",
                 "pipeline.evaluate_checkpoint", "pipeline.super_resolve")
LOAD_SPANS = ("pngio.read_png", "pngio.read_pnm")
SAVE_SPANS = ("pngio.write_png", "pngio.write_pnm")

PHASES = ("setup", "run")


def rebind(modules, original, replacement) -> list:
    """Point every module-level name bound to ``original`` at
    ``replacement``; returns what ``restore`` needs to undo it."""
    changed = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed.append((mod, key, original))
    return changed


def restore(changed: list) -> None:
    for mod, key, value in changed:
        setattr(mod, key, value)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus the counters that per-layer metrics need.

    ``install`` patches the dasr modules; ``phase`` selects which phase new
    spans and counters belong to; ``unit`` is the current step or image
    index, advanced by the benchmark's step hook.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit_of = array("q")
        self.phase_of = array("b")
        self.proc = array("i")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_parent = array("q")
        self.gc_phase = array("b")
        self.gc_collected = array("q")
        self.counters = {p: defaultdict(float) for p in PHASES}
        self.units = {p: 0 for p in PHASES}
        self.phase = 0
        self.unit = 0
        self._stack = array("q")
        self._gc_open = 0.0
        self._unit_rss = None
        self._changed: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.unit_of.append(self.unit)
        self.phase_of.append(self.phase)
        self.proc.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _current_name(self) -> str:
        return self.names[self.name[self._stack[-1]]] if self._stack else ""

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)
        self._unit_rss = None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[PHASES[self.phase]][key] += value

    def unit_done(self) -> None:
        self.units[PHASES[self.phase]] += 1
        self.unit += 1
        # peak RSS growth from one unit to the next within this process: the
        # memory a unit leaves behind, such as a graph nothing has freed yet
        rss = maxrss_mb()
        if self._unit_rss is not None:
            self.count("rss_growth_mb", rss - self._unit_rss)
            self.count("rss_growth_units")
        self._unit_rss = rss

    def _on_gc(self, stage: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if stage == "start":
            self._gc_open = time.perf_counter()
            return
        self.gc_start.append(self._gc_open)
        self.gc_end.append(time.perf_counter())
        self.gc_parent.append(self._stack[-1] if self._stack else -1)
        self.gc_phase.append(self.phase)
        self.gc_collected.append(int(info.get("collected", 0)))

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)
        tr = self

        def wrapper(*args, **kwargs):
            idx = tr._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _timed_backward(self, closure, nid: int):
        tr = self

        def backward(g):
            tr.count("nodes_walked")
            if nid < 0:
                return closure(g)
            idx = tr._open(nid)
            try:
                return closure(g)
            finally:
                tr._close(idx)

        return backward

    def _after_tensor_op(self, conv: bool):
        bwd_nid = self._id("tensor.conv2d.bwd") if conv else -1

        def after(out, args, kwargs):
            node = getattr(out, "_backward", None)
            if node is None:
                return
            self.count("nodes_built")
            out._backward = self._timed_backward(node, bwd_nid)
            if conv:
                x, w = args[0], args[1]
                n, cout, ho, wo = out.shape
                _, cin, kh, kw = w.shape
                self.count("conv_flop",
                           2.0 * n * cout * ho * wo * cin * kh * kw)
                if w.requires_grad:  # conv2d keeps its window matrix
                    item = np.result_type(x.data.dtype, w.data.dtype).itemsize
                    self.count("cols_bytes",
                               float(n * cin * kh * kw * ho * wo * item))

        return after

    def _after_adam(self, out, args, kwargs):
        self.count("params_updated", float(sum(p.size for p in args[0])))

    def _generator_call(self, name: str, fn):
        nid = self._id(name)
        tr = self

        def wrapper(gen, lr, *args, **kwargs):
            tile = tr._current_name() == "pipeline.super_resolve"
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            idx = tr._open(nid)
            try:
                out = fn(gen, lr, *args, **kwargs)
            finally:
                tr._close(idx)
            tr.count("generator_minflt",
                     resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
            if tile:
                tr.count("tiles")
                tr.count("tile_px", float(lr.shape[2] * lr.shape[3]))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_super_resolve(self, out, args, kwargs):
        lr = args[1]
        self.count("image_px", float(lr.height * lr.width))

    def _wrapper_for(self, short: str, qual: str, fn):
        name = f"{short}.{qual}"
        if name == "models.Generator.__call__":
            return self._generator_call(name, fn)
        after = None
        if short == "tensor":
            after = self._after_tensor_op(qual == "conv2d")
        elif name == "optim.adam_step":
            after = self._after_adam
        elif name == "pipeline.super_resolve":
            after = self._after_super_resolve
        return self._span(name, fn, after)

    def install(self) -> None:
        """Wrap every public function of every dasr module and the public
        methods (plus ``__call__``) of the classes they define."""
        mods = [importlib.import_module(f"dasr.{m}") for m in MODULES]
        for short, mod in zip(MODULES, mods):
            for key, obj in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._changed += rebind(
                        mods, obj, self._wrapper_for(short, key, obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and key not in _SKIP_CLASSES):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if attr.startswith("_") and attr != "__call__":
                            continue
                        setattr(obj, attr,
                                self._wrapper_for(short, f"{key}.{attr}", fn))
                        self._changed.append((obj, attr, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        restore(reversed(self._changed))
        self._changed = []

    # -- export / merge ------------------------------------------------------

    def export(self) -> dict:
        """Plain-JSON form, for a child process to hand its spans back."""
        return {
            "names": self.names,
            "spans": {k: list(getattr(self, k)) for k in
                      ("name", "start", "end", "parent", "unit_of",
                       "phase_of")},
            "gc": {k: list(getattr(self, k)) for k in
                   ("gc_start", "gc_end", "gc_parent", "gc_phase",
                    "gc_collected")},
            "counters": {p: dict(c) for p, c in self.counters.items()},
            "units": self.units,
        }

    def merge(self, doc: dict, proc: int) -> None:
        """Append another process's exported spans, tagged with ``proc``."""
        remap = [self._id(n) for n in doc["names"]]
        base = len(self.name)
        sp = doc["spans"]
        self.name.extend(remap[i] for i in sp["name"])
        self.start.extend(sp["start"])
        self.end.extend(sp["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in sp["parent"])
        self.unit_of.extend(sp["unit_of"])
        self.phase_of.extend(sp["phase_of"])
        self.proc.extend([proc] * len(sp["name"]))
        g = doc["gc"]
        self.gc_start.extend(g["gc_start"])
        self.gc_end.extend(g["gc_end"])
        self.gc_parent.extend(p + base if p >= 0 else -1
                              for p in g["gc_parent"])
        self.gc_phase.extend(g["gc_phase"])
        self.gc_collected.extend(g["gc_collected"])
        for phase, counters in doc["counters"].items():
            for key, value in counters.items():
                self.counters[phase][key] += value
        for phase, n in doc["units"].items():
            self.units[phase] += n

    def save(self, path: str, meta: dict) -> None:
        """Write all spans (plus gen-2 GC pauses) as a compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            unit=np.frombuffer(self.unit_of, dtype=np.int64),
            phase=np.frombuffer(self.phase_of, dtype=np.int8),
            proc=np.frombuffer(self.proc, dtype=np.int32),
            gc_start=np.frombuffer(self.gc_start),
            gc_end=np.frombuffer(self.gc_end),
            gc_parent=np.frombuffer(self.gc_parent, dtype=np.int64),
            gc_collected=np.frombuffer(self.gc_collected, dtype=np.int64),
            meta=np.array(json.dumps(meta, sort_keys=True)))

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        phase = np.frombuffer(self.phase_of, dtype=np.int8)
        n = len(name)
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        gc_par = np.frombuffer(self.gc_parent, dtype=np.int64)
        gc_dur = np.frombuffer(self.gc_end) - np.frombuffer(self.gc_start)
        has = gc_par >= 0
        np.add.at(child, gc_par[has], gc_dur[has])
        return name, dur, dur - child, parent, phase

    def self_time_table(self, phase: str = "run") -> list[dict]:
        """Rows of (span, calls, total ms, self ms) per unit, by self time;
        gen-2 GC pauses appear as their own row."""
        name, dur, self_t, _, ph = self._arrays()
        sel = ph == PHASES.index(phase)
        units = max(self.units[phase], 1)
        rows = []
        for nid in np.unique(name[sel]):
            m = sel & (name == nid)
            rows.append({"span": self.names[nid],
                         "calls": int(m.sum()) / units,
                         "total_ms": 1e3 * float(dur[m].sum()) / units,
                         "self_ms": 1e3 * float(self_t[m].sum()) / units})
        gsel = np.frombuffer(self.gc_phase, dtype=np.int8) == PHASES.index(
            phase)
        if gsel.any():
            gd = (np.frombuffer(self.gc_end)
                  - np.frombuffer(self.gc_start))[gsel]
            rows.append({"span": "gc.gen2", "calls": int(gsel.sum()) / units,
                         "total_ms": 1e3 * float(gd.sum()) / units,
                         "self_ms": 1e3 * float(gd.sum()) / units})
        rows.sort(key=lambda r: -r["self_ms"])
        return rows

    def per_layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json. Run-phase metrics are
        per step (training) or per image (sr-tiled); set-up metrics are per
        traced set-up, of which a traced run has one."""
        name, dur, self_t, parent, ph = self._arrays()
        run = ph == PHASES.index("run")
        setup = ph == PHASES.index("setup")
        units = max(self.units["run"], 1)
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(names, where):
            wanted = [ids[n] for n in names if n in ids]
            return where & np.isin(name, wanted)

        def ms(names, where=run, per=units, values=dur):
            return 1e3 * float(values[mask(names, where)].sum()) / per

        def calls(names):
            return float(mask(names, run).sum()) / units

        c = self.counters["run"]
        gsel = np.frombuffer(self.gc_phase, dtype=np.int8) == PHASES.index(
            "run")
        gc_dur = (np.frombuffer(self.gc_end) - np.frombuffer(self.gc_start))
        gc_obj = np.frombuffer(self.gc_collected, dtype=np.int64)

        disc_ids = [ids[n] for n in DISC_SPANS if n in ids]
        disc = run & np.isin(name, disc_ids)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        outer_disc = disc & ~np.isin(parent_name, disc_ids)

        conv_fwd_s = float(dur[mask(["tensor.conv2d"], run)].sum())
        gflop = c["conv_flop"] / 1e9
        losses = [n for n in self.names if n.startswith("losses.")]
        return {
            "tensor.conv2d.fwd_ms": ms(["tensor.conv2d"]),
            "tensor.conv2d.bwd_ms": ms(["tensor.conv2d.bwd"]),
            "tensor.conv2d.calls": calls(["tensor.conv2d"]),
            "tensor.conv2d.gflop": gflop / units,
            "tensor.conv2d.gflops": gflop / conv_fwd_s if conv_fwd_s else 0.0,
            "tensor.conv2d.cols_mb": c["cols_bytes"] / 2 ** 20 / units,
            "tensor.backward_ms": ms(["tensor.backward"]),
            "tensor.nodes_walked": c["nodes_walked"] / units,
            "tensor.graph_use_ratio": (c["nodes_walked"] / c["nodes_built"]
                                       if c["nodes_built"] else 0.0),
            "tensor.elementwise_fwd_ms": ms([f"tensor.{n}"
                                             for n in ELEMENTWISE]),
            "tensor.peak_rss_growth_mb": (c["rss_growth_mb"]
                                          / c["rss_growth_units"]
                                          if c["rss_growth_units"] else 0.0),
            "tensor.gc_gen2_count": float(gsel.sum()) / units,
            "tensor.gc_pause_ms": 1e3 * float(gc_dur[gsel].sum()) / units,
            "tensor.gc_collected_objs": float(gc_obj[gsel].sum()) / units,
            "optim.adam_ms": ms(["optim.adam_step"]),
            "optim.clip_ms": ms(["optim.clip_grad_norm"]),
            "optim.params_updated": c["params_updated"] / units,
            "models.generator_fwd_ms": ms(["models.Generator.__call__"]),
            "models.generator_fwd_minflt": c["generator_minflt"] / units,
            "models.disc_fwd_ms": 1e3 * float(dur[outer_disc].sum()) / units,
            "models.features_fwd_ms": ms(["models.FeatureExtractor.__call__"]),
            "losses.self_ms": ms(losses, values=self_t),
            "imaging.bicubic_ms": ms(["imaging.bicubic_resize"]),
            "imaging.bicubic_calls": calls(["imaging.bicubic_resize"]),
            "imaging.crop_ms": ms(["imaging.random_paired_crop"]),
            "imaging.noise_ms": ms(["imaging.add_gaussian_noise"]),
            "imaging.degrade_ms": ms(["imaging.degrade"], setup, 1),
            "pipeline.step_self_ms": ms(PIPELINE_SELF, values=self_t),
            "pipeline.tiles": c["tiles"] / units,
            "pipeline.tile_useful_ratio": (c["image_px"] / c["tile_px"]
                                           if c["tile_px"] else 0.0),
            "metrics.ssim_ms": ms(["metrics.ssim"]),
            "metrics.psnr_ms": ms(["metrics.psnr"]),
            "pngio.decode_ms": ms(LOAD_SPANS, setup, 1),
            "pngio.encode_ms": ms(SAVE_SPANS),
            "synth.generate_ms": ms(["synth.make_synthetic_dataset"], setup,
                                    1),
            "checkpoint.load_ms": ms(["checkpoint.load_checkpoint"], setup,
                                     1),
            "checkpoint.save_ms": ms(["checkpoint.save_checkpoint"]),
        }
