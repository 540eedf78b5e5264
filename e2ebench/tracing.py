"""Outside-in tracing of the simulator's layers.

The benchmark wraps the public functions of each layer from its own
files; nothing in the program changes. A wrapper records one span per
call (layer, function, start, end, parent span, frame id) in memory.
Functions are wrapped at every binding their callers use: a method on
its class, a module-level function in every ``repro`` module that
imported it (``repro.codec.encoder.estimate_motion`` as well as
``repro.codec.motion.estimate_motion``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Layer name -> the public functions it wraps, as ``module:Class.method``
#: or ``module:function``. Order is report order.
LAYERS: Dict[str, Sequence[str]] = {
    "render": ("repro.render.games:GameWorkload.render_frame",),
    "core.roi": ("repro.core.detector:RoIDetector.detect",),
    "codec.encode": ("repro.codec.encoder:VideoEncoder.encode_frame",),
    "codec.motion": ("repro.codec.motion:estimate_motion",),
    "codec.entropy": ("repro.codec.entropy:encode_blocks",),
    "codec.decode": ("repro.codec.decoder:VideoDecoder.decode_frame",),
    "sr.runner": (
        "repro.sr.runner:SRRunner.upscale",
        "repro.sr.runner:SRRunner.upscale_tiled",
        "repro.sr.runner:SRRunner.upscale_windows",
        "repro.sr.runner:SRRunner.upscale_batch",
    ),
    "sr.interp": ("repro.sr.interpolate:bilinear",),
    "sr.reuse": ("repro.sr.gop_reuse:warp_hr", "repro.sr.gop_reuse:dirty_block_mask"),
    "sr.dispatch": ("repro.sr.dispatch:DifficultyDispatcher.run",),
    "neural.conv": ("repro.neural.layers:Conv2d.forward",),
    "metrics.psnr": ("repro.metrics.psnr:psnr",),
    "metrics.lpips": ("repro.metrics.lpips:lpips",),
    "network": ("repro.network.link:NetworkLink.transmit",),
    "streaming.abr": (
        "repro.streaming.abr:ABRController.next_frame_knobs",
        "repro.streaming.abr:ABRController.observe_network",
    ),
    "streaming.server": ("repro.streaming.server:GameStreamServer.next_frame",),
    "streaming.client": ("repro.streaming.client:StreamingClient.process",),
    "observability": ("repro.observability:observe_frame_trace",),
    "cache": (
        "repro.cache:load_or_build",
        "repro.sr.pretrained:default_sr_model",
        "repro.sr.pretrained:zoo_sr_model",
    ),
}

#: Layers whose calls made directly under ``StreamingClient.process`` are
#: the client's upscale work (cross-checked against the ``upscale`` span).
SR_LAYERS = ("sr.runner", "sr.interp", "sr.reuse", "sr.dispatch")

#: Program stage span -> (outside layers, the layer their caller must be).
CROSS_CHECKS = {
    "render": (("render",), "streaming.server"),
    "roi_detect": (("core.roi",), "streaming.server"),
    "encode": (("codec.encode",), "streaming.server"),
    "decode": (("codec.decode",), "streaming.client"),
    "upscale": (SR_LAYERS, "streaming.client"),
}

# Span record fields.
LAYER, FUNC, START, END, PARENT, FRAME = range(6)


class Tracer:
    """Span recorder; :meth:`install` wraps the layers, :meth:`uninstall`
    puts the original functions back."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.enabled = False
        #: Frame id stamped on new spans (-1 outside frames, e.g. set-up).
        self.frame = -1
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, layer: str, fn: Callable, before: Optional[Callable] = None):
        name = getattr(fn, "__qualname__", repr(fn))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.frame]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _counting(self, counter: str, fn: Callable):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        return counted

    # -- binding ---------------------------------------------------------
    def _replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, attr = target.partition(":")
        __import__(module_name)
        owner_name, _, method = attr.rpartition(".")
        module = sys.modules[module_name]
        if owner_name:
            owner = getattr(module, owner_name)
            if method not in vars(owner):
                raise RuntimeError(f"could not bind {target}")
            for cls in [owner, *_subclasses(owner)]:
                if method in vars(cls):
                    original = vars(cls)[method]
                    setattr(cls, method, make(original))
                    self._undo.append(functools.partial(setattr, cls, method, original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(functools.partial(setattr, mod, key, original))
        if getattr(module, attr) is not wrapped:
            raise RuntimeError(f"could not bind {target}")

    def install(self) -> None:
        """Import every layer's module and wrap its public functions."""
        import repro.cache as cache

        # Load every module that binds a wrapped function before sweeping.
        for module in (
            "repro.analysis.experiments",
            "repro.streaming.session",
            "repro.streaming.abr",
            "repro.sr.backends",
            "repro.sr.dispatch",
            "repro.sr.pretrained",
            "repro.network.trace",
            "repro.baselines.nemo",
        ):
            __import__(module)

        def render_hook(game, *args, **kwargs):
            self.count("render.tris", game.scene.n_triangles())

        def cache_hook(name, config, builder, subdir="artifacts"):
            if not cache.cache_disabled():
                hit = cache.artifact_path(name, config, subdir=subdir).exists()
                self.count("cache.hits" if hit else "cache.misses")

        hooks = {
            "repro.render.games:GameWorkload.render_frame": render_hook,
            "repro.cache:load_or_build": cache_hook,
        }
        for layer, targets in LAYERS.items():
            for target in targets:
                self._replace(
                    target,
                    functools.partial(self._wrap, layer, before=hooks.get(target)),
                )
        # Weight files read from / written to the cache are its hits/misses.
        self._replace(
            "repro.sr.pretrained:load_weights",
            functools.partial(self._counting, "cache.hits"),
        )
        self._replace(
            "repro.sr.pretrained:save_weights",
            functools.partial(self._counting, "cache.misses"),
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: Path) -> Path:
        """Write the spans as JSON (one ``[layer, func, start, end,
        parent, frame]`` row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["layer", "func", "start", "end", "parent", "frame"],
                       "spans": self.spans, "counts": self.counts}, fh)
        return path


def _subclasses(cls) -> List[type]:
    """The program's subclasses of ``cls`` (not the benchmark's own)."""
    out = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro"):
            out += [sub, *_subclasses(sub)]
    return out


def layer_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, inclusive ``busy_ms`` and ``self_ms``.

    Inclusive time counts only spans with no ancestor of the same layer,
    so recursion inside a layer is not counted twice; self time is a
    span's duration minus its direct children's.
    """
    child_ms = [0.0] * len(spans)
    nested = [False] * len(spans)
    ancestors: List[frozenset] = [frozenset()] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_ms[parent] += (span[END] - span[START]) * 1e3
            ancestors[i] = ancestors[parent] | {spans[parent][LAYER]}
            nested[i] = span[LAYER] in ancestors[i]
    out = {layer: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0} for layer in LAYERS}
    for i, span in enumerate(spans):
        stats = out[span[LAYER]]
        ms = (span[END] - span[START]) * 1e3
        stats["calls"] += 1
        stats["self_ms"] += ms - child_ms[i]
        if not nested[i]:
            stats["busy_ms"] += ms
    return out


def outside_stage_ms(spans: List[list]) -> Dict[str, float]:
    """Outside-measured time per program stage (see :data:`CROSS_CHECKS`)."""
    out = {stage: 0.0 for stage in CROSS_CHECKS}
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            continue
        for stage, (layers, caller) in CROSS_CHECKS.items():
            if span[LAYER] in layers and spans[parent][LAYER] == caller:
                out[stage] += (span[END] - span[START]) * 1e3
    return out
