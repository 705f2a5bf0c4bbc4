"""Per-layer spans and counts recorded from outside seqxfer.

Timing wrappers are installed on the module (or class) attribute each
caller resolves through, only for the duration of a traced phase.  A
span is (name, parent span, start, end); a layer's self time is its
spans' durations minus the parts covered by child spans.

Backward passes of single layers cannot be timed from outside the real
`backward()`, so a sample of the captured layer calls is replayed after
the run: the layer's forward again, then `reverse_gradients` on that
output alone.  Samples and ratios are kept apart per training step kind
(a batched BiLM step and a one-sentence tagger step call the same layers
at very different shapes).  For each kind, the replayed backward/forward
ratio times the measured forward time (less garbage collection) of the
layer's calls made under that kind of step estimates its backward time;
the layer's backward time is the sum over kinds.
"""

import contextlib
import gc
import os
import random
import statistics
import time
from collections import defaultdict

import numpy as np

from seqxfer import autodiff as ad
from seqxfer import bilm, cli, corpus, evaluation
from seqxfer import tagger as tagger_mod
from seqxfer.checkpoint import Checkpoint

# Layers with spans.  `transfer` is left out on purpose: no workload calls
# it on a timed path, and its work is array copies.
LAYERS = ("autodiff", "bilm", "encoder", "corpus", "tagger", "checkpoint",
          "evaluation", "cli")
# Calls under these spans are followed by a backward pass.
TRAINING_SPANS = ("bilm.train_lm", "tagger.sentence_loss")
# Entry points whose self time is loop glue and unwrapped work: time in
# them is not attributed to a named layer operation.
ENTRY_SPANS = ("cli.run", "bilm.train_lm", "tagger.train_tagger",
               "tagger.predict", "bilm.perplexity")
NODE_WALK_STRIDE = 8    # walk one loss graph in this many
REPLAY_SAMPLES = 12     # captured calls kept per replayed layer


def graph_nodes(*roots):
    """Nodes `backward()` would visit from these outputs."""
    seen, work = set(), list(roots)
    while work:
        node = work.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


class Tracer:
    """Spans, counts and replay samples for the traced rounds of one run."""

    def __init__(self, seed=0):
        self.spans = []          # [name, parent index, start, end]
        self.stack = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.sampled = defaultdict(int)
        self.rng = random.Random(seed)
        self.training = []       # TRAINING_SPANS on the stack, innermost last
        self.targets = self._targets()

    # recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        training = name in TRAINING_SPANS

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(index)
            if training:
                self.training.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
                if training:
                    self.training.pop()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def _capture(self, kind, item):
        """Reservoir sample of the replayable layer calls made under a
        training step, kept per (layer, innermost training span)."""
        if not self.training:
            return
        key = (kind, self.training[-1])
        self.sampled[key] += 1
        kept = self.samples[key]
        if len(kept) < REPLAY_SAMPLES:
            kept.append(item())
        else:
            j = self.rng.randrange(self.sampled[key])
            if j < REPLAY_SAMPLES:
                kept[j] = item()

    def _targets(self):
        """(owner, attribute, span name, after-hook) for every wrapped call."""
        c = self.counts

        def lstm(args, kwargs, out):
            xs, mask, Wx, Wh, b = args[:5]
            reverse = args[5] if len(args) > 5 else kwargs.get("reverse", False)
            c["lstm_steps"] += xs.data.shape[1]
            self._capture("lstm", lambda: (xs.data, np.asarray(mask), Wx.data,
                                           Wh.data, b.data, reverse))

        def encoder(args, kwargs, out):
            ids, params, config = args
            c["encoder_words"] += len(np.atleast_2d(ids))
            self._capture("encoder", lambda: (
                np.asarray(ids), {k: p.data for k, p in params.items()
                                  if k.startswith("char_enc.")}, config))

        def crf(args, kwargs, out):
            if isinstance(args[0], ad.Tensor):
                self._capture("crf", lambda: (args[0].data, args[1].data))

        def lm_loss(args, kwargs, out):
            c["lm_losses"] += 1
            if c["lm_losses"] % NODE_WALK_STRIDE == 1:
                c["lm_nodes"] += graph_nodes(out[0], out[1])
                c["lm_node_tokens"] += out[2]

        def tagger_loss(args, kwargs, out):
            c["tagger_losses"] += 1
            if c["tagger_losses"] % NODE_WALK_STRIDE == 1:
                c["tagger_nodes"] += graph_nodes(out)
                c["tagger_node_tokens"] += len(args[1])

        def batches(args, kwargs, out):
            c["lm_batch_words"] += sum(b.uniq_char_ids.shape[0] for b in out)
            c["lm_batch_tokens"] += sum(b.n_tokens for b in out)

        def saved(args, kwargs, out):
            c["checkpoint_bytes"] += os.path.getsize(args[1])

        TM = tagger_mod.TaggerModel
        return [
            (cli, "run", "cli.run", None),
            (bilm, "train_lm", "bilm.train_lm", None),
            (bilm, "bilm_loss_parts", "bilm.loss", lm_loss),
            (bilm, "lstm_forward", "bilm.lstm_forward", lstm),
            (bilm, "anchor_penalty", "bilm.anchor_penalty", None),
            (bilm, "perplexity", "bilm.perplexity", None),
            (bilm, "replace_vocab_head", "bilm.replace_vocab_head", None),
            (tagger_mod, "contextual_states", "bilm.contextual_states", None),
            (bilm, "encode_char_matrix", "encoder.fwd", encoder),
            (bilm, "lm_batches", "corpus.lm_batches", batches),
            (corpus, "read_conll", "corpus.read_conll", None),
            (corpus, "read_sentences", "corpus.read_sentences", None),
            (corpus, "build_vocab", "corpus.build_vocab", None),
            (bilm, "reverse_gradients", "autodiff.backward", None),
            (tagger_mod, "reverse_gradients", "autodiff.backward", None),
            (bilm, "clip_by_global_norm", "autodiff.clip", None),
            (tagger_mod, "clip_by_global_norm", "autodiff.clip", None),
            (ad.Adam, "step", "autodiff.adam_step", None),
            (tagger_mod, "train_tagger", "tagger.train_tagger", None),
            (tagger_mod, "predict", "tagger.predict", None),
            (TM, "sentence_loss", "tagger.sentence_loss", tagger_loss),
            (TM, "emissions", "tagger.emissions", None),
            (TM, "decode", "tagger.decode", None),
            (tagger_mod, "crf_log_partition", "tagger.crf_log_partition", crf),
            (tagger_mod, "crf_sequence_score", "tagger.crf_sequence_score", None),
            (tagger_mod, "viterbi_decode", "tagger.viterbi_decode", None),
            (Checkpoint, "save", "checkpoint.save", saved),
            (Checkpoint, "load", "checkpoint.load", None),
            (Checkpoint, "digest", "checkpoint.digest", None),
            (evaluation, "span_f1", "evaluation.span_f1", None),
        ]

    def _gc_span(self, phase, info):
        """Cyclic garbage collections as spans: the graph's closures form
        reference cycles, so collections run inside the layers' calls."""
        if phase == "start":
            self.spans.append(["gc.collect", self.stack[-1] if self.stack else None,
                               time.perf_counter(), None])
        elif self.spans and self.spans[-1][0] == "gc.collect":
            self.spans[-1][3] = time.perf_counter()

    @contextlib.contextmanager
    def installed(self):
        originals = []
        gc.callbacks.append(self._gc_span)
        try:
            for owner, attr, name, after in self.targets:
                raw = owner.__dict__[attr]
                originals.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, after))
                else:
                    wrapped = self._wrap(name, raw, after)
                setattr(owner, attr, wrapped)
            yield
        finally:
            gc.callbacks.remove(self._gc_span)
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def phase(self, name):
        """A traced pipeline phase: wrappers are live only inside it."""
        with self.installed():
            index = len(self.spans)
            self.spans.append(["phase." + name, None, time.perf_counter(), None])
            self.stack.append(index)
            try:
                yield
            finally:
                self.spans[index][3] = time.perf_counter()
                self.stack.pop()

    def reset_round(self):
        self.spans.clear()
        self.counts.clear()

    # per-round summary ---------------------------------------------------

    def round_summary(self):
        """Per span name: inclusive time, and the time, less garbage
        collection, of calls made under each kind of training step (those
        a backward pass follows), keyed (training span, name); self time
        per layer; and per phase, over its repeats in the round, the share
        of its wall time spent in named layer operations, that is, not in
        the self time of the phase itself or of an entry point
        (ENTRY_SPANS)."""
        n = len(self.spans)
        child, child_gc = [0.0] * n, [0.0] * n
        trained = [None] * n     # innermost training span above, if any
        phase = [None] * n       # name of the enclosing phase span
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                if name == "gc.collect":
                    child_gc[parent] += end - start
                trained[i] = trained[parent]
                phase[i] = phase[parent]
            if name in TRAINING_SPANS:
                trained[i] = name
            if name.startswith("phase."):
                phase[i] = name
        total, train_total = defaultdict(float), defaultdict(float)
        self_time, unattributed = defaultdict(float), defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            if trained[i] is not None:
                train_total[trained[i], name] += end - start - child_gc[i]
            own = end - start - child[i]
            if phase[i] is not None and (phase[i] == name or name in ENTRY_SPANS):
                unattributed[phase[i]] += own
            if phase[i] != name:
                self_time[name.split(".")[0]] += own
        coverage = {name[6:]: 1.0 - unattributed[name] / total[name]
                    for name in total if name.startswith("phase.")}
        return {"total": total, "trained": train_total, "self": self_time,
                "coverage": coverage}


def _replay(kind, sample, cotangent_rng):
    """(forward s, backward s) of one layer call rebuilt from a sample."""
    clock = time.perf_counter
    if kind == "lstm":
        xs, mask, Wx, Wh, b, reverse = sample
        params = {k: ad.parameter(k, v.copy()) for k, v in
                  (("xs", xs), ("Wx", Wx), ("Wh", Wh), ("b", b))}
        t0 = clock()
        out = bilm.lstm_forward(params["xs"], mask, params["Wx"], params["Wh"],
                                params["b"], reverse=reverse)
    elif kind == "encoder":
        ids, arrays, config = sample
        params = {k: ad.parameter(k, v.copy()) for k, v in arrays.items()}
        t0 = clock()
        out = bilm.encode_char_matrix(ids, params, config)
    else:
        e, tr = sample
        params = {"e": ad.parameter("e", e.copy()), "tr": ad.parameter("tr", tr.copy())}
        t0 = clock()
        out = tagger_mod.crf_log_partition(params["e"], params["tr"])
    t1 = clock()
    if out.data.ndim:
        out = (out * cotangent_rng.standard_normal(out.data.shape)).sum()
    t2 = clock()
    ad.reverse_gradients(out, params)
    return t1 - t0, clock() - t2


def replay_ratios(tracer, seed=0, repeats=3):
    """Backward/forward time ratio per (replayed layer, training span),
    from its samples.

    Each sample is replayed `repeats` times after a full garbage
    collection and its median times kept: a collection landing inside
    one short replay would otherwise dominate it.
    """
    rng = np.random.default_rng(seed)
    ratios = {}
    for key in sorted(tracer.samples):
        kind = key[0]
        fwd = bwd = 0.0
        for sample in tracer.samples[key]:
            times = []
            for _ in range(repeats):
                gc.collect()
                times.append(_replay(kind, sample, rng))
            fwd += statistics.median(f for f, _ in times)
            bwd += statistics.median(b for _, b in times)
        ratios[key] = bwd / fwd if fwd > 0 else 0.0
    return ratios


def per_layer_metrics(summary, counts, ratios):
    """The per-layer metrics of BENCHMARK.json for one traced round, as
    name -> (value, unit).  Times are summed over the round's calls; a
    backward time is the replay ratio times the forward time, less
    garbage collection, of the calls made under a training step, summed
    over the kinds of training step."""
    total, trained = summary["total"], summary["trained"]

    def bwd(kind, name):
        return sum(trained[step, name] * ratios.get((kind, step), 0.0)
                   for step in TRAINING_SPANS)

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0
    m = {
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.adam_step_s": total["autodiff.adam_step"],
        "autodiff.clip_s": total["autodiff.clip"],
        "autodiff.nodes_per_token.lm": (ratio("lm_nodes", "lm_node_tokens"), "nodes/tok"),
        "autodiff.nodes_per_token.tagger": (ratio("tagger_nodes", "tagger_node_tokens"),
                                            "nodes/tok"),
        "bilm.lstm_forward.fwd_s": total["bilm.lstm_forward"],
        "bilm.lstm_forward.bwd_s": bwd("lstm", "bilm.lstm_forward"),
        "bilm.lstm_forward.steps": (counts["lstm_steps"], "count"),
        "bilm.loss.fwd_s": total["bilm.loss"],
        "bilm.contextual_states.fwd_s": total["bilm.contextual_states"],
        "bilm.replace_vocab_head_s": total["bilm.replace_vocab_head"],
        "encoder.fwd_s": total["encoder.fwd"],
        "encoder.bwd_s": bwd("encoder", "encoder.fwd"),
        "encoder.words": (counts["encoder_words"], "count"),
        "corpus.lm_batches_s": total["corpus.lm_batches"],
        "corpus.uniq_words_per_token": (ratio("lm_batch_words", "lm_batch_tokens"),
                                        "words/tok"),
        "corpus.lm_tokens": (counts["lm_batch_tokens"], "count"),
        "corpus.read_conll_s": total["corpus.read_conll"],
        "tagger.emissions.fwd_s": total["tagger.emissions"],
        "tagger.crf_log_partition.fwd_s": total["tagger.crf_log_partition"],
        "tagger.crf_log_partition.bwd_s": bwd("crf", "tagger.crf_log_partition"),
        "tagger.viterbi_decode_s": total["tagger.viterbi_decode"],
        "tagger.decode_s": total["tagger.decode"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.bytes": (counts["checkpoint_bytes"], "B"),
        "evaluation.span_f1_s": total["evaluation.span_f1"],
        "gc.collect_s": total["gc.collect"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["self"][layer]
    return {k: v if isinstance(v, tuple) else (v, "s") for k, v in m.items()}
