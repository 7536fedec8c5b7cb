"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions at the names their callers
bind, e.g. both ``augment.net_augment`` (used by the CLI) and
``training.net_augment`` (used by the training loops), so the package source
stays unchanged. Each wrapped call records a span (name, start, end, parent
span, run id) in memory. Very frequent calls, such as the random source's
draws and the burst-size sampler, are counted instead of spanned. Per-layer
metrics are derived from the spans once the traced run has ended.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it.
"""

import contextlib
import os
import time

from traceaug import (
    augment,
    cli,
    distributions,
    evaluation,
    losses,
    manifest,
    models,
    synth,
    training,
    traces,
)
from traceaug.rng import RandomSource

#: Layers whose self times are reported, in the package's module order.
#: ``bench`` is the benchmark's own code between calls into the package.
LAYERS = (
    "bursts", "augment", "distributions", "traces", "synth", "models",
    "losses", "training", "evaluation", "manifest", "cli", "bench",
)

#: CLI commands of the cli-5000 workload, by the function that runs each.
CLI_COMMANDS = {
    "cmd_gen": "gen",
    "cmd_ncm_split": "ncm-split",
    "cmd_stats": "stats",
    "cmd_augment": "augment",
    "cmd_pretrain": "pretrain",
    "cmd_finetune": "finetune",
    "cmd_eval_cw": "eval-cw",
}


def _encoder_weights(params) -> int:
    return sum(w.size for w, _ in params.encoder)


def _forward_work(args, kwargs, result):
    rows = len(result[0])
    return {"models.rows": rows, "models.flops": 2 * rows * _encoder_weights(args[1])}


def _backward_work(args, kwargs, result):
    # d_pre.T @ act_in for every layer, d_pre @ W for every layer but the first
    d_embed, _, params = args
    first = params.encoder[0][0].size
    return {"models.flops": 2 * len(d_embed) * (2 * _encoder_weights(params) - first)}


def _nt_xent_rows(args, kwargs, result):
    return {"losses.nt_xent_rows": len(args[0])}


def _dataset_traces(args, kwargs, result):
    return {"synth.traces": len(result)}


def _cells_saved(args, kwargs, result):
    return {"traces.cells_io": sum(len(t) for t in args[1])}


def _cells_loaded(args, kwargs, result):
    return {"traces.cells_io": sum(len(t) for t in result)}


def _bytes_hashed(args, kwargs, result):
    return {"manifest.bytes_hashed": os.path.getsize(args[0])}


def bindings():
    """(owner, attribute, span name, work counter) for every wrapped call.

    A function imported into several modules is wrapped at each binding
    under one span name.
    """
    table = []

    def bind(owners, attr, name, work=None):
        for owner in owners:
            table.append((owner, attr, name, work))

    bind([augment, distributions], "extract_bursts", "bursts.extract")
    bind([augment], "normalize_bursts", "bursts.normalize")
    bind([augment], "bursts_to_cells", "bursts.to_cells")

    bind([augment, training], "net_augment", "augment.net")
    bind([augment, training], "flip_augment", "augment.flip")
    bind([augment], "modify_incoming_burst_sizes", "augment.resize")
    bind([augment], "insert_outgoing_bursts", "augment.insert")
    bind([augment], "merge_incoming_bursts", "augment.merge")

    bind([distributions], "build_distribution", "distributions.build")
    bind([distributions], "save_bdist", "distributions.save_bdist")

    bind([traces], "load_dtrace", "traces.load_dtrace", _cells_loaded)
    bind([traces], "save_dtrace", "traces.save_dtrace", _cells_saved)
    bind([traces], "load_ttrace", "traces.load_ttrace", _cells_loaded)
    bind([traces], "save_ttrace", "traces.save_ttrace", _cells_saved)
    bind([traces], "partition_by_ncm", "traces.partition_by_ncm")
    bind([traces], "compute_ncm", "traces.compute_ncm")
    bind([traces], "to_direction_trace", "traces.to_direction_trace")
    bind([traces], "filter_traces", "traces.filter")

    bind([synth], "make_templates", "synth.make_templates")
    bind([synth], "make_dataset", "synth.make_dataset", _dataset_traces)
    bind([synth], "render_visit", "synth.render_visit")

    bind([models, training], "encode_batch", "models.forward", _forward_work)
    bind([models, training], "encode_backward", "models.backward", _backward_work)
    bind([training], "contrastive_forward_backward", "models.contrastive_step")
    bind([training], "supervised_forward_backward", "models.supervised_step")
    bind([training], "init_params", "models.init")
    bind([training], "attach_classifier", "models.attach_classifier")
    bind([models], "classify_batch", "models.classify")
    bind([models], "predict_batch", "models.predict")
    bind([models], "save_params", "models.save")
    bind([models], "load_params", "models.load")

    bind([losses], "nt_xent_loss", "losses.nt_xent", _nt_xent_rows)
    bind([models], "project_batch", "losses.project")
    bind([models], "project_backward", "losses.project_backward")
    bind([models, training], "softmax", "losses.softmax")

    bind([training], "pretrain", "training.pretrain")
    bind([training], "finetune", "training.finetune")
    bind([training], "train_supervised", "training.train_supervised")
    bind([training], "train_netfm", "training.train_netfm")
    bind([training], "strip_labels", "training.strip_labels")

    bind([evaluation], "closed_world_accuracy", "evaluation.closed_world_accuracy")

    bind([cli], "write_manifest", "manifest.write")
    bind([manifest], "content_hash", "manifest.hash", _bytes_hashed)

    bind([cli], "main", "cli.main")
    for attr, command in CLI_COMMANDS.items():
        bind([cli], attr, f"cli.{command}")
    return table


class Tracer:
    """In-memory span recorder that patches the package while installed."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, run id)
        self.counts_by_run = {}
        self.run_id = "setup"
        self._stack = []
        self._patches = []

    @property
    def run_id(self):
        return self._run_id

    @run_id.setter
    def run_id(self, value):
        """Spans and counts recorded from now on belong to run ``value``."""
        self._run_id = value
        self.counts = self.counts_by_run.setdefault(value, {})

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run_id)
            if work is not None:
                counts = self.counts
                for key, value in work(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def _counted(self, name, fn, amount):
        def counted(*args):
            counts = self.counts
            counts[name] = counts.get(name, 0) + amount(args)
            return fn(*args)

        return counted

    @contextlib.contextmanager
    def region(self, name):
        """Span around a block of the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._run_id)

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name, work in bindings():
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr), work))
        self._patch(RandomSource, "_raw",
                    self._counted("rng.scalar_draws", RandomSource._raw, lambda a: 1))
        self._patch(RandomSource, "_raw_block",
                    self._counted("rng.block_values", RandomSource._raw_block, lambda a: a[1]))
        sample = distributions.BurstSizeDistribution.sample
        self._patch(distributions.BurstSizeDistribution, "sample",
                    self._counted("distributions.samples", sample, lambda a: 1))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """One line per span: index, name, start_ns, end_ns, parent, run id."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{run}\n")


def self_times(spans):
    """Self time in seconds of every span, parallel to ``spans``."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - c) / 1e9 for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(tracer, work_run, untraced_wall_s, traced_wall_s):
    """Per-layer metrics from the spans of run ``work_run``.

    The set-up metrics (synthesis, NCM partition, filtering) also count the
    spans recorded while the workload's corpora were built.
    """
    spans = tracer.spans
    total, calls, span_self, layer_self = {}, {}, {}, {}
    all_runs_total = {}
    for (name, start, end, parent, run), own in zip(spans, self_times(spans)):
        duration = (end - start) / 1e9
        all_runs_total[name] = all_runs_total.get(name, 0.0) + duration
        if run != work_run:
            continue
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        span_self[name] = span_self.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def t(name):
        return total.get(name, 0.0)

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    counts = tracer.counts_by_run.get(work_run, {})
    all_runs_counts = {}
    for run_counts in tracer.counts_by_run.values():
        for key, value in run_counts.items():
            all_runs_counts[key] = all_runs_counts.get(key, 0) + value
    ncm_alone = sum(
        (end - start) / 1e9
        for name, start, end, parent, run in spans
        if name == "traces.compute_ncm"
        and (parent < 0 or spans[parent][0] != "traces.partition_by_ncm")
    )
    steps = calls.get("models.contrastive_step", 0) + calls.get("models.supervised_step", 0)
    model_s = t("models.forward") + t("models.backward")
    io_s = sum(t(f"traces.{op}_{fmt}") for op in ("load", "save") for fmt in ("dtrace", "ttrace"))
    net_views, flip_views = calls.get("augment.net", 0), calls.get("augment.flip", 0)

    m = {
        "rng.scalar_draws": counts.get("rng.scalar_draws", 0),
        "rng.block_values": counts.get("rng.block_values", 0),
        "bursts.extract_s": t("bursts.extract"),
        "bursts.normalize_s": t("bursts.normalize"),
        "bursts.to_cells_s": t("bursts.to_cells"),
        "distributions.samples": counts.get("distributions.samples", 0),
        "augment.net_views": net_views,
        "augment.net_us_per_view": per(t("augment.net"), net_views, 1e6),
        "augment.net_self_s": span_self.get("augment.net", 0.0),
        "augment.flip_views": flip_views,
        "augment.flip_us_per_view": per(t("augment.flip"), flip_views, 1e6),
    }
    for manipulation in ("resize", "insert", "merge"):
        m[f"augment.{manipulation}_calls"] = calls.get(f"augment.{manipulation}", 0)
        m[f"augment.{manipulation}_s"] = t(f"augment.{manipulation}")
    m.update({
        "models.rows": counts.get("models.rows", 0),
        "models.forward_s": t("models.forward"),
        "models.backward_s": t("models.backward"),
        "models.flops": counts.get("models.flops", 0),
        "models.gflops_per_s": per(counts.get("models.flops", 0), model_s, 1e-9),
        "models.predict_s": t("models.predict"),
        "losses.nt_xent_s": t("losses.nt_xent"),
        "losses.nt_xent_rows": counts.get("losses.nt_xent_rows", 0),
        "losses.project_s": t("losses.project") + t("losses.project_backward"),
        "training.steps": steps,
        "training.self_us_per_step": per(layer_self.get("training", 0.0), steps, 1e6),
        "traces.load_dtrace_s": t("traces.load_dtrace"),
        "traces.save_dtrace_s": t("traces.save_dtrace"),
        "traces.load_ttrace_s": t("traces.load_ttrace"),
        "traces.save_ttrace_s": t("traces.save_ttrace"),
        "traces.cells_io": counts.get("traces.cells_io", 0),
        "traces.io_ns_per_cell": per(io_s, counts.get("traces.cells_io", 0), 1e9),
        "traces.ncm_partition_s": all_runs_total.get("traces.partition_by_ncm", 0.0) + ncm_alone,
        "traces.filter_s": all_runs_total.get("traces.filter", 0.0),
        "synth.make_dataset_s": all_runs_total.get("synth.make_dataset", 0.0),
        "synth.traces": all_runs_counts.get("synth.traces", 0),
        "evaluation.s": t("evaluation.closed_world_accuracy"),
        "manifest.hash_s": t("manifest.hash"),
        "manifest.bytes_hashed": counts.get("manifest.bytes_hashed", 0),
    })
    for command in CLI_COMMANDS.values():
        m[f"cli.{command}_s"] = t(f"cli.{command}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    accounted = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    m.update({
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.accounted_frac": per(accounted, traced_wall_s),
    })
    return m
