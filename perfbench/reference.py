"""Reference answers: a fresh in-process engine with the serving defaults.

Served explanations must equal what a fresh
:class:`~repro.engine.pipeline.ExplanationPipeline` computes with the
configuration ``python -m repro.serving`` builds (early exit and speculative
search on, identifier columns excluded): the same attributes, and every
score within ``TOLERANCE``.  Row-sharded serving draws permutation nulls
from per-shard RNG streams, so its reference is a fresh row-sharded
pipeline over the same number of shards.

Answers are order-independent, so they are cached on disk per query, keyed
by a digest of the program's sources and of this directory: runs after the
first in a checkout only check, and never recompute.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from workloads import DATASET, K, Spec

TOLERANCE = 1e-9


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for folder in ("src", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def summary(envelope_dict: Dict) -> Dict:
    """The fields an answer is judged on: attributes and scores."""
    explanation = envelope_dict["explanation"]
    return {
        "attributes": list(explanation["attributes"]),
        "scores": [float(explanation["explainability"]),
                   float(explanation["baseline_cmi"]),
                   float(explanation["objective"])]
        + [float(score) for _, score in explanation["trace"]],
        "trace": [attribute for attribute, _ in explanation["trace"]],
        "responsibilities": {name: float(value) for name, value
                             in explanation["responsibilities"].items()},
    }


def mismatch(served: Dict, expected: Dict) -> Optional[str]:
    """Why a served summary differs from the reference (None if equal)."""
    if served["attributes"] != expected["attributes"]:
        return f"attributes {served['attributes']} != {expected['attributes']}"
    if served["trace"] != expected["trace"] \
            or sorted(served["responsibilities"]) \
            != sorted(expected["responsibilities"]):
        return "search trace differs"
    if len(served["scores"]) != len(expected["scores"]):
        return "score count differs"
    pairs = list(zip(served["scores"], expected["scores"]))
    pairs += [(served["responsibilities"][name], value)
              for name, value in expected["responsibilities"].items()]
    for got, want in pairs:
        if abs(got - want) > TOLERANCE:
            return f"score {got!r} != {want!r}"
    return None


class References:
    """Lazily computed, disk-cached reference answers for one table."""

    def __init__(self, root: Path, table_tag: str, shards: int = 1,
                 appended: Sequence[Sequence[Dict]] = ()):
        self.root = root
        self.shards = shards
        self.appended = [list(batch) for batch in appended]
        self.tag = f"{table_tag}|shards={shards}"
        work = root / "perfbench" / ".work"
        work.mkdir(parents=True, exist_ok=True)
        self.path = work / f"reference-{source_digest(root)}.json"
        self._cache: Dict[str, Dict] = {}
        if self.path.exists():
            try:
                self._cache = json.loads(self.path.read_text())
            except ValueError:
                self._cache = {}
        self.computed = 0

    def get_many(self, specs: Sequence[Spec]) -> Dict[str, Dict]:
        unique = {spec.key: spec for spec in specs}
        keys = {key: f"{self.tag}|{key}" for key in unique}
        missing = [spec for key, spec in unique.items()
                   if keys[key] not in self._cache]
        if missing:
            for spec, answer in zip(missing, self._compute(missing)):
                self._cache[keys[spec.key]] = answer
            self.computed += len(missing)
            self._save()
        return {key: self._cache[cache_key] for key, cache_key in keys.items()}

    def _save(self) -> None:
        # Re-read first: another workload's run may have added answers.
        merged = {}
        if self.path.exists():
            try:
                merged = json.loads(self.path.read_text())
            except ValueError:
                merged = {}
        merged.update(self._cache)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(merged))
        os.replace(scratch, self.path)

    def _compute(self, specs: List[Spec]) -> List[Dict]:
        from repro.datasets.registry import load_dataset
        from repro.engine.config import MESAConfig
        from repro.engine.pipeline import ExplanationPipeline
        from repro.table.table import Table

        bundle = load_dataset(DATASET, seed=7)
        table = bundle.table
        for rows in self.appended:
            extra = Table.from_rows(rows, columns=list(table.column_names),
                                    name=table.name)
            table = table.concat_rows(extra)
        config = MESAConfig(excluded_columns=tuple(bundle.id_columns),
                            n_jobs=1, permutation_early_exit=True,
                            speculative_search=True)
        pipeline = ExplanationPipeline(table, bundle.knowledge_graph,
                                       bundle.extraction_specs, config=config)
        pool = None
        if self.shards > 1:
            from repro.distributed.coordinator import ShardPool

            pool = ShardPool(n_shards=self.shards).start()
            pipeline.context.shard_pool = pool
            pipeline.context.shard_label = DATASET
        try:
            return [summary(pipeline.explain_many_envelopes(
                [spec.query()], k=K)[0].to_dict()) for spec in specs]
        finally:
            if pool is not None:
                pool.close()
