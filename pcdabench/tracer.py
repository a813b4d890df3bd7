"""Spans around the public functions of pcda, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `pcda.*` module that holds it, because several modules import their
collaborators by name (`training` imports `forward_pass`,
`apply_deformation`, `mixup_*` and `save_tensors`; `network` imports
`chamfer_loss_region`) and a call through such a name would otherwise
escape its span. `uninstall()` puts the originals back.

A span's self time is its duration minus the time of the spans nested in
it. Per-layer metrics are sums of self time and of work counts, kept per
benchmark phase, so that a phase repeated in whole rounds can be reported
per round.
"""

from __future__ import annotations

import os
import sys
import time

# (module, function): the layers the benchmark reports
TRACED = (
    ("network", "forward_pass"),
    ("network", "backward"),
    ("network", "classification_loss_and_grads"),
    ("network", "segmentation_loss_and_grads"),
    ("network", "reconstruction_loss_and_grads"),
    ("training", "train"),
    ("training", "adam_step"),
    ("training", "save_checkpoint"),
    ("training", "evaluate_classification"),
    ("training", "evaluate_segmentation"),
    ("training", "predict_logits"),
    ("training", "extract_global_features"),
    ("chamfer", "chamfer_loss_region"),
    ("deform", "apply_deformation"),
    ("mixup", "mixup_classify"),
    ("mixup", "mixup_segment"),
    ("cloud", "farthest_point_sample"),
    ("synthbench", "gen_benchmark"),
    ("synthbench", "make_primitive"),
    ("synthbench", "make_lamp"),
    ("synthbench", "corrupt_to_target"),
    ("dataio", "save_tensors"),
    ("dataio", "load_tensors"),
    ("dataio", "save_archive"),
    ("dataio", "load_archive"),
    ("evaluation", "mean_iou"),
    ("evaluation", "fit_class_gaussians"),
    ("evaluation", "log_perplexity"),
)

_FAMILY = {
    "voxel": "volume",
    "sphere": "volume",
    "feature": "feature",
    "split": "sample",
    "gradient": "sample",
    "lambertian": "sample",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _span_name(mod, fn, args, kwargs):
    """Span name, with the head for the network entry points that serve
    several heads."""
    if fn == "forward_pass":
        heads = tuple(_arg(args, kwargs, 3, "heads", ("sup",)))
        return f"network.forward_pass.{heads[0] if heads else 'none'}"
    if fn == "backward":
        for head, key in (("sup", "dlogits"), ("rec", "drecon"), ("seg", "dseg_logits")):
            if kwargs.get(key) is not None:
                return f"network.backward.{head}"
        return "network.backward.none"
    return f"{mod}.{fn}"


def _counts(name, args, kwargs, result):
    """Work counts of one call: (metric, amount) pairs."""
    if name.startswith("network.forward_pass."):
        shape = getattr(args[1], "shape", ())
        return [(name + ".clouds", shape[0] if len(shape) == 3 else 1)]
    if name == "chamfer.chamfer_loss_region":
        m = len(_arg(args, kwargs, 2, "region"))
        return [(name + ".pairs", m * m)]
    if name == "deform.apply_deformation":
        return [
            (name + ".region_points", len(result.region)),
            ("deform.family." + _FAMILY[result.kind], 1),
        ]
    if name == "cloud.farthest_point_sample":
        return [(name + ".points", int(_arg(args, kwargs, 1, "m")))]
    if name in ("dataio.save_tensors", "dataio.save_archive"):
        return [(name + ".bytes", os.path.getsize(args[0]))]
    return []


class Tracer:
    """Records spans of the traced pcda functions while installed.

    `phase` names the benchmark phase that new spans belong to. `observers`
    maps a span name to callbacks `fn(args, kwargs, result)` run after the
    span has closed; they keep copies for output checks made after timing.
    """

    def __init__(self):
        self.phase = "setup"
        self.stats: dict = {}  # phase -> {metric: value}
        self.spans: list = []  # (name, phase, start, end, parent index)
        self.observers: dict = {}
        self._stack: list = []  # open spans: [function, span index, child time]
        self._patched: list = []

    def _add(self, metric, value):
        bucket = self.stats.setdefault(self.phase, {})
        bucket[metric] = bucket.get(metric, 0.0) + value

    def _wrap(self, mod, fn, original):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            # a function calling itself (mixed deformations) is one span
            if stack and stack[-1][0] is traced:
                return original(*args, **kwargs)
            name = _span_name(mod, fn, args, kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [traced, index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name, tracer.phase, start, end, parent)
                tracer._add(name + ".s", duration - frame[2])
                tracer._add(name + ".calls", 1)
                if stack:
                    stack[-1][2] += duration
                if name == "training.train":
                    tracer._add("training.train.total_s", duration)
            for metric, amount in _counts(name, args, kwargs, result):
                tracer._add(metric, amount)
            for observe in tracer.observers.get(name, ()):
                observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = {k: v for k, v in sys.modules.items() if k == "pcda" or k.startswith("pcda.")}
        for mod, fn in TRACED:
            original = getattr(mods["pcda." + mod], fn)
            wrapper = self._wrap(mod, fn, original)
            for module in mods.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_round(self, rounds: dict) -> dict:
        """Every metric summed over phases, each phase divided by the number
        of whole rounds it ran (`rounds` maps phase -> count; phases not
        listed count once)."""
        out: dict = {}
        for phase, bucket in self.stats.items():
            div = rounds.get(phase, 1)
            for metric, value in bucket.items():
                out[metric] = out.get(metric, 0.0) + value / div
        return out
