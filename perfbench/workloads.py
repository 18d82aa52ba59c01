"""Seeded inputs of the served-path benchmark.

Every workload serves the SO dataset at its default 4000 rows with k=3.
The seed decides only the order of the queries and the content of appended
rows; the *set* of queries each workload pre-warms is fixed, so the work a
run does is the same from seed to seed and the figures stay steady.

* ``cold``/``rows``: the 72-query universe (6 exposures x 3 outcomes x 4
  contexts).  Set-up asks the headline query (Country vs Salary) once per
  context, which builds the per-context caches; the timed stream is a
  stratified shuffle of the other 68, so any prefix holds every
  (outcome, context) cell in proportion.
* ``hot``: a fixed working set of 8 queries, pre-warmed; two clients draw
  from it with Zipf(1.1) popularity, the ranking chosen by the seed.
* ``update``: 4 fixed hot queries in a seeded order; each round appends
  20 rows from one of ``ROW_SETS`` seeded row sets (``seed % ROW_SETS``),
  so the reference answers of each table version are computed once per
  checkout rather than once per run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

DATASET = "SO"
K = 3

EXPOSURES = ("Country", "Continent", "DevType", "EdLevel", "Gender", "Hobby")
OUTCOMES = ("Salary", "YearsCode", "Age")
#: Context clauses in the wire form ``(column, value)``; ``None`` is TRUE.
CONTEXTS = (None, ("Continent", "Europe"), ("Hobby", "Yes"),
            ("EdLevel", "Master"))

BLOCK = 6

HOT_SET_EXPOSURES = ("Country", "DevType", "EdLevel", "Gender")
#: Every hot request is a cache hit, so the set's engine cost only shows in
#: set-up; outcomes without the Salary selection-bias fits keep it short.
HOT_SET_OUTCOMES = ("YearsCode", "Age")
ZIPF_S = 1.1

UPDATE_QUERIES = (("Country", "Salary", None), ("DevType", "YearsCode", None),
                  ("EdLevel", "Age", None), ("Gender", "Salary", None))
UPDATE_BATCH_ROWS = 20
ROW_SETS = 4
#: Explain passes per update round after the append: one that misses at the
#: new version, then two that hit (so the median request is a hit and the
#: misses sit in the tail).
UPDATE_HIT_PASSES = 2

BASE_ROWS = 4000


@dataclass(frozen=True)
class Spec:
    """One query in its wire-independent form."""

    exposure: str
    outcome: str
    context: Tuple[str, str] | None = None

    @property
    def key(self) -> str:
        where = "TRUE" if self.context is None else "=".join(self.context)
        return f"{self.exposure}|{self.outcome}|{where}"

    def query(self):
        """The :class:`repro.query.aggregate_query.AggregateQuery`."""
        from repro.query.aggregate_query import AggregateQuery
        from repro.table.expressions import TRUE, Eq

        context = TRUE if self.context is None else Eq(*self.context)
        return AggregateQuery(self.exposure, self.outcome, "avg", context,
                              table_name=DATASET)


def universe() -> List[Spec]:
    return [Spec(e, o, c) for e in EXPOSURES for o in OUTCOMES
            for c in CONTEXTS]


def openers() -> List[Spec]:
    """The headline query of each context, asked during set-up."""
    return [Spec("Country", "Salary", c) for c in CONTEXTS]


def cold_stream(seed: int) -> List[Spec]:
    """The 68 non-opener queries in blocks of ``BLOCK``; the seed orders
    the queries within each block.

    Block membership is fixed (a stratified interleave of the
    (outcome, context) cells), so a run that completes ``n`` blocks did the
    same work under every seed, whatever prefix it reaches.
    """
    layout = random.Random("cold-blocks")
    skip = {spec.key for spec in openers()}
    cells: Dict[Tuple, List[Spec]] = {}
    for spec in universe():
        if spec.key not in skip:
            cells.setdefault((spec.outcome, spec.context), []).append(spec)
    keyed = []
    for cell in cells.values():
        layout.shuffle(cell)
        for position, spec in enumerate(cell):
            keyed.append(((position + layout.random()) / len(cell), spec))
    keyed.sort(key=lambda item: item[0])
    fixed = [spec for _, spec in keyed]
    rng = random.Random(f"cold-{seed}")
    stream: List[Spec] = []
    for start in range(0, len(fixed), BLOCK):
        block = fixed[start:start + BLOCK]
        rng.shuffle(block)
        stream.extend(block)
    return stream


def hot_set() -> List[Spec]:
    return [Spec(e, o) for e in HOT_SET_EXPOSURES for o in HOT_SET_OUTCOMES]


def hot_weights(seed: int) -> List[float]:
    """Zipf popularity of each :func:`hot_set` query (seeded ranking)."""
    ranks = list(range(1, len(hot_set()) + 1))
    random.Random(f"hot-{seed}").shuffle(ranks)
    return [1.0 / rank ** ZIPF_S for rank in ranks]


def update_set() -> List[Spec]:
    return [Spec(*parts) for parts in UPDATE_QUERIES]


def update_order(seed: int, round_index: int) -> List[Spec]:
    specs = update_set()
    random.Random(f"update-{seed}-{round_index}").shuffle(specs)
    return specs


def row_set(seed: int) -> int:
    return seed % ROW_SETS


def appended_rows(seed: int, round_index: int) -> List[Dict[str, object]]:
    """The SO rows of one update round (respondent ids continue)."""
    from repro.datasets.stackoverflow import generate_so_dataset

    table = generate_so_dataset(n_rows=UPDATE_BATCH_ROWS,
                                seed=1000 * (row_set(seed) + 1) + round_index)
    rows = table.to_rows()
    first_id = BASE_ROWS + round_index * UPDATE_BATCH_ROWS + 1
    for offset, row in enumerate(rows):
        row["Respondent"] = first_id + offset
    return rows


def zipf_draws(seed: int, thread_index: int) -> Iterator[int]:
    """Indices into :func:`hot_set` for one client thread's requests."""
    rng = random.Random(f"hot-{seed}-thread-{thread_index}")
    cumulative = list(itertools.accumulate(hot_weights(seed)))
    choices = range(len(cumulative))
    while True:
        yield rng.choices(choices, cum_weights=cumulative)[0]

