"""fastpasta_ray — a Ray-Data-native schema + constraint validation engine.

A from-scratch reimplementation of the *capabilities* of CramBL/fastPASTA
over Parquet tables of pre-tokenized training sequences, built on raw Ray
tasks over zero-copy Arrow blocks:

- waves of raw tasks, one per block (``exchange.map_blocks``; pass 1's
  ``stages.validate.validate_task``), for every per-record transform and
  per-partition pass. The batch type handed from stage to stage is
  ``exchange.Blocks``: block refs already in the object store, typed by
  one schema; ``Blocks.view`` fuses a filter or map into the next wave,
- hash-partitioned raw-task exchanges (``exchange.hash_exchange``, and the
  key checks' own in ``checks.key_checks``) only where semantics require
  co-location (duplicate detection, referential checks, joins, windows),
- mergeable sketch states (counters, HyperLogLog, histograms) combined
  partial→final, mirroring the reference's reader-side pre-aggregation
  (alice_protocol_reader/src/stats.rs:42-119) but as a tree merge instead
  of a single-consumer channel.

The primary input table is ``sequences``:
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string
(see BASELINE.json "input_hint" and FIXTURES.md).
"""

__version__ = "0.1.0"

from fastpasta_ray.schema import SEQUENCES_SCHEMA, VIOLATIONS_SCHEMA  # noqa: F401


def __getattr__(name):  # lazy: keep `import fastpasta_ray` light
    if name in ("run_check", "CheckResult"):
        from fastpasta_ray.pipelines import check as _c

        return getattr(_c, name)
    if name == "CheckConfig":
        from fastpasta_ray.stages.validate import CheckConfig

        return CheckConfig
    if name in ("SynthSpec", "write_fixture"):
        from fastpasta_ray import synth as _s

        return getattr(_s, name)
    raise AttributeError(name)
