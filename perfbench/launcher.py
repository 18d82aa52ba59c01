"""Traced server: wrap layer functions, then run ``python -m repro.serving``.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py --spans-out spans.json -- --port 0 ...

Each wrapped public function records one span ``(name, start, end, thread,
trace id, tags)`` with ``time.monotonic`` clocks, which the benchmark
client shares, so spans line up with client-side request timings.  The
trace id is :func:`repro.obs.trace.current_trace_id` at entry: the id every
``/explain`` response carries.  Spans are kept in memory and written once,
after the server drains on SIGTERM.  Processes forked from the server
(shard and cluster workers) inherit the wrappers but record nothing.

Span names are the per-layer metric prefixes.  A wrapped call that runs
inside a span of the same name on the same thread (a subclass override
calling ``super()``, ``filter`` delegating to ``filter_view``) is not
recorded twice.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (span name, module, qualified attribute) of every wrapped function.
TARGETS = (
    ("serving.service.explain", "repro.serving.service",
     "ExplanationService.explain"),
    ("serving.service.append", "repro.serving.service",
     "ExplanationService.append_rows"),
    ("serving.cache.lookup", "repro.serving.cache", "TTLCache.get"),
    ("serving.batcher.submit", "repro.serving.batcher", "MicroBatcher.submit"),
    ("engine.pipeline.batch", "repro.engine.pipeline",
     "ExplanationPipeline.explain_many_envelopes"),
    ("engine.envelope.serialize", "repro.engine.envelope",
     "ExplanationEnvelope.to_dict"),
    ("engine.envelope.serialize", "repro.engine.envelope",
     "ExplanationEnvelope.from_result"),
    ("engine.stages.extraction", "repro.engine.stages", "ExtractionStage.run"),
    ("engine.stages.candidates", "repro.engine.stages", "CandidateStage.run"),
    ("engine.stages.offline_pruning", "repro.engine.stages",
     "OfflinePruningStage.run"),
    ("engine.stages.online_pruning", "repro.engine.stages",
     "OnlinePruningStage.run"),
    ("engine.stages.selection_bias", "repro.engine.stages",
     "SelectionBiasStage.run"),
    ("engine.stages.search", "repro.engine.stages", "SearchStage.run"),
    ("engine.context.warm", "repro.engine.context",
     "PipelineContext.augmented_table"),
    ("engine.context.warm", "repro.engine.context",
     "PipelineContext.offline_pruning"),
    ("engine.context.frame", "repro.engine.context",
     "PipelineContext.context_frame"),
    ("kg.extraction.extract", "repro.kg.extraction",
     "AttributeExtractor.extract"),
    ("kg.extraction.extract", "repro.kg.extraction",
     "AttributeExtractor.augment"),
    ("table.join", "repro.table.table", "Table.join"),
    ("table.concat", "repro.table.table", "Table.concat_rows"),
    ("table.filter", "repro.table.table", "Table.filter"),
    ("table.filter", "repro.table.table", "Table.filter_view"),
    ("missingness.ipw.fit", "repro.missingness.fitcache",
     "compute_ipw_weights_batched"),
    ("missingness.logistic.fit", "repro.missingness.logistic",
     "fit_logistic_multi"),
    ("missingness.recoverability.test", "repro.missingness.recoverability",
     "attribute_selection_bias"),
    ("infotheory.permutation.test", "repro.core.problem",
     "CorrelationExplanationProblem.independence_test"),
    ("core.problem.score", "repro.core.problem",
     "CorrelationExplanationProblem.score_candidates"),
    ("core.problem.score", "repro.core.problem",
     "CorrelationExplanationProblem.cmi"),
    ("core.pruning.online", "repro.core.pruning", "online_prune"),
    ("storage.envelopes.get", "repro.storage.envelopes",
     "DurableEnvelopeStore.get"),
    ("storage.envelopes.put", "repro.storage.envelopes",
     "DurableEnvelopeStore.put"),
    ("distributed.coordinator.rpc", "repro.distributed.coordinator",
     "ShardPool.counts"),
    ("distributed.coordinator.rpc", "repro.distributed.coordinator",
     "ShardPool.compact"),
    ("distributed.coordinator.perm_rounds", "repro.distributed.coordinator",
     "ShardPool.permutation_rounds"),
    ("distributed.coordinator.irls", "repro.distributed.coordinator",
     "ShardPool.fit_logistic_multi"),
)


def _fit_tags(args, kwargs, result) -> Dict[str, Any]:
    """Newton iterations of every fitted model, and the local design size
    (the sharded solver's first argument is its context, not a design)."""
    tags = {"newton_iters": sum(int(getattr(model, "n_iterations_", 0))
                                for model in result or ())}
    features = args[0] if args else kwargs.get("features")
    if hasattr(features, "nbytes"):
        tags["design_bytes"] = int(features.nbytes)
    return tags


def _batch_tags(args, kwargs, result) -> Dict[str, Any]:
    captures = kwargs.get("trace_captures") or ()
    return {"trace_ids": [capture.trace_id for capture in captures
                          if capture is not None]}


TAGGERS: Dict[str, Callable] = {
    "missingness.logistic.fit": _fit_tags,
    "distributed.coordinator.irls": _fit_tags,
    "engine.pipeline.batch": _batch_tags,
}


class Recorder:
    """The in-memory span list of this process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._local = threading.local()
        from repro.obs import trace

        self._trace_id = trace.current_trace_id

    def wrap(self, name: str, function: Callable, skip_self: bool) -> Callable:
        tagger = TAGGERS.get(name)
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            active = getattr(recorder._local, "active", None)
            if active is None:
                active = recorder._local.active = set()
            if name in active or os.getpid() != recorder.pid:
                return function(*args, **kwargs)
            active.add(name)
            trace_id = recorder._trace_id()
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                active.discard(name)
            tags = None
            if tagger is not None:
                tag_args = args[1:] if skip_self else args
                tags = tagger(tag_args, kwargs, result)
            recorder.spans.append([name, start, end, threading.get_ident(),
                                   trace_id, tags])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, in every module that imported it by name."""
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." not in attribute:
                original = getattr(module, attribute)
                wrapped = self.wrap(name, original, skip_self=False)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") \
                            and getattr(loaded, attribute, None) is original:
                        setattr(loaded, attribute, wrapped)
                continue
            class_name, method = attribute.split(".")
            base = getattr(module, class_name)
            for owner in [base, *_subclasses(base)]:
                raw = owner.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, True))
                else:
                    new = self.wrap(name, raw, skip_self=True)
                setattr(owner, method, new)

    def dump(self, path: str) -> None:
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": self.pid, "spans": self.spans}, handle)
        os.replace(path + ".tmp", path)


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    options = parser.parse_args(argv[:split])
    recorder = Recorder()
    recorder.install()
    from repro.serving.__main__ import main as serve

    try:
        serve(argv[split + 1:])
    finally:
        recorder.dump(options.spans_out)


if __name__ == "__main__":
    main()
