"""CLI — the fastPASTA command-surface analog on Ray Data.

    fastpasta check sanity        → fastpasta-ray check <dir> --sanity-only
    fastpasta check all           → fastpasta-ray check <dir>
    fastpasta check all its-stave → fastpasta-ray check <dir> --manifest M
    fastpasta view rdh            → fastpasta-ray view <dir>
    fastpasta --filter-link N -o  → fastpasta-ray filter <dir> -o OUT --sources s1,s2
    --output-stats / --input-stats-file → --output-stats / --input-stats
    --show-only-errors-with-codes → --codes E10,E70
    --max-tolerate-errors         → --max-errors (per partition) and
                                    --max-errors-global (counter-actor stop,
                                    partition-granular divergence window)
    check all (RDH-only, no payload) → --no-payload (column-pruned read)
    TDH trigger period (E440..)   → --expect-stride (exact doc-index stride)

Exit code 1 when any violation was found (init.rs:54 analog).

Owns its Ray session (guarded init — never clashes with a driver that
already initialised Ray).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        # under `ray job submit` the job runtime sets RAY_ADDRESS to the
        # cluster address — join it (num_cpus is only legal when starting
        # a fresh local instance). Standalone/CI: RAY_ADDRESS unset or
        # "local" starts a single-node session sized by RAY_GRAFT_CPUS.
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr == "local":
            ray.init(
                address="local",
                num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
        else:
            ray.init(
                address=addr, ignore_reinit_error=True, logging_level="ERROR"
            )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _read(path: str):
    """The parquet input at ``path`` as ``exchange.Blocks``: one Ray Data
    read, materialized once (so ``rows`` is the exact count, from block
    metadata); every later pass runs over its blocks."""
    import ray

    from fastpasta_ray.exchange import blocks

    return blocks(ray.data.read_parquet(path))


def _write(out, path: str) -> int:
    """Write ``out`` (``exchange.Blocks``) as parquet files under
    ``path``; returns the rows written."""
    import ray

    from fastpasta_ray.exchange import map_blocks

    ray.data.from_arrow_refs(map_blocks(None, out)).write_parquet(path)
    return ray.data.read_parquet(path).count()


def cmd_check(args) -> int:
    from fastpasta_ray.sources.parquet import sequence_files

    if not os.path.isdir(args.input_dir) or not sequence_files(args.input_dir):
        print(f"error: no partition parquet files found in {args.input_dir!r}", file=sys.stderr)
        return 2
    _ray_session()
    from fastpasta_ray.pipelines.check import (
        error_display_lines,
        run_check,
        write_stats,
    )
    from fastpasta_ray.stages.validate import CheckConfig

    profile = None
    if args.input_stats:
        from fastpasta_ray.pipelines.check import load_stats_profile

        profile = load_stats_profile(args.input_stats)
    # Check flags use argparse.SUPPRESS defaults: the attribute exists on
    # the namespace ONLY if the user typed the flag (ADVICE r3 — comparing
    # values against CheckConfig defaults silently ignored an explicitly
    # typed flag whose value equals a default, and broke whenever the
    # argparse and dataclass defaults drifted apart). Typed flags override
    # the config file; untyped ones defer to it.
    _missing = object()
    _split = lambda v: tuple(v.split(",")) if v else None  # noqa: E731
    _int_split = lambda v: tuple(int(x) for x in v.split(",")) if v else None  # noqa: E731
    _ident = lambda v: v  # noqa: E731
    _not = lambda v: not v  # noqa: E731
    spec = {
        # CheckConfig field: (arg attr, fallback when untyped, transform)
        "running_checks": ("sanity_only", False, _not),
        "enabled_codes": ("codes", None, _split),
        "max_errors_per_part": ("max_errors", 10_000, _ident),
        "max_errors_global": ("max_errors_global", None, _ident),
        "expected_row_count": ("expect_rows", None, _ident),
        "expected_index_stride": ("expect_stride", None, _ident),
        "read_payload": ("no_payload", False, _not),
        "filter_sources": ("filter_sources", None, _split),
        "bos_id": ("bos_id", None, _ident),
        "eos_id": ("eos_id", None, _ident),
        "pad_id": ("pad_id", None, _ident),
        "segment_delim_id": ("segment_delim", None, _ident),
        "min_segments": ("min_segments", None, _ident),
        "max_segments": ("max_segments", None, _ident),
        "warning_sentinel_ids": ("warning_sentinels", None, _int_split),
        "fatal_sentinel_ids": ("fatal_sentinels", None, _int_split),
    }
    cli_fields: dict = {}
    typed: set[str] = set()
    for field, (attr, fallback, tf) in spec.items():
        raw = getattr(args, attr, _missing)
        if raw is _missing:
            cli_fields[field] = tf(fallback)
        else:
            cli_fields[field] = tf(raw)
            typed.add(field)
    if args.checks_config:
        from dataclasses import replace

        from fastpasta_ray.checks.registry import load_config

        cfg = replace(
            load_config(args.checks_config), **{k: cli_fields[k] for k in typed}
        )
    else:
        cfg = CheckConfig(**cli_fields)
    res = run_check(
        args.input_dir,
        cfg=cfg,
        manifest_path=args.manifest,
        reference_profile=profile,
        with_key_checks=cfg.running_checks,
        out_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    if not args.mute_errors:
        for line in error_display_lines(res.violations, limit=args.print_errors):
            print(line)
    rep = res.report
    print(f"Total rows        {rep['total_rows']}")
    print(f"Total tokens      {rep['total_tokens']}")
    print(f"Partitions        {rep['total_parts']}")
    print(f"Unique doc_ids ≈  {rep['doc_id_unique_estimate']}")
    print(f"Violations        {rep['violations_total']}  {rep['violations_by_code']}")
    if res.drift_metrics:
        print(f"Drift             {json.dumps(res.drift_metrics)}")
    for m in rep["custom_check_messages"]:
        print(m)
    if args.output_stats:
        path = args.output_stats
        if args.stats_format:
            # explicit format overrides the extension (the reference's
            # -D/--stats-format); write_stats dispatches on the suffix, so
            # normalize the path to carry the requested one
            want = "." + args.stats_format
            if not path.endswith(want):
                base = path
                for ext in (".json", ".toml"):
                    if base.endswith(ext):
                        base = base[: -len(ext)]
                path = base + want
        write_stats(res, path)
        print(f"stats written to {path}")
    if args.output_violations:
        from fastpasta_ray.pipelines.check import write_violations

        paths = write_violations(res.violations, args.output_violations)
        print(f"{len(paths)} violation file(s) written to {args.output_violations}")
    # exit-code contract (init.rs:54): non-zero on any violation; the code
    # itself is configurable but can never be 0 (config.rs:66-73)
    code = args.any_errors_exit_code or 1
    return code if rep["any_errors"] else 0


def cmd_generate_config(args) -> int:
    from fastpasta_ray.checks.registry import generate_template

    generate_template(args.output)
    print(f"config template written to {args.output}")
    return 0


def cmd_view(args) -> int:
    _ray_session()
    from fastpasta_ray.pipelines.view import (
        view_doc_data,
        view_doc_frames,
        view_sequences,
    )

    srcs = tuple(args.filter_sources.split(",")) if args.filter_sources else None
    if args.data:
        lines = view_doc_data(
            args.input_dir,
            args.limit,
            bos_id=args.bos_id,
            eos_id=args.eos_id,
            pad_id=args.pad_id,
            delim_id=args.segment_delim,
            sources=srcs,
        )
    elif args.frames:
        lines = view_doc_frames(args.input_dir, args.limit, sources=srcs)
    else:
        lines = view_sequences(args.input_dir, args.limit, sources=srcs)
    print("\n".join(lines))
    return 0


def cmd_filter(args) -> int:
    _ray_session()
    from fastpasta_ray.pipelines.filter import filter_sequences

    rep = filter_sequences(
        args.input_dir,
        args.output,
        sources=tuple(args.sources.split(",")) if args.sources else None,
        min_n_tok=args.min_n_tok,
        max_n_tok=args.max_n_tok,
    )
    print(json.dumps(rep))
    return 0


def cmd_dedup(args) -> int:
    """Training-data dedup over a documents parquet (exact / minhash /
    simhash); writes the pairs (or surviving docs for exact) as parquet."""
    _ray_session()
    if args.clusters and args.method == "exact":
        print(
            "error: --clusters requires --method minhash or simhash "
            "(exact dedup writes the surviving corpus rows, not pairs)",
            file=sys.stderr,
        )
        return 2
    ds = _read(args.input)
    id_col = args.id_col
    if args.method in ("minhash", "simhash"):
        # the pair exchanges ship slim int64 ids; string-id corpora get an
        # auto surrogate (ADVICE r2 — was a hard crash deep in the exchange)
        import pyarrow as pa

        if args.id_col not in ds.schema.names:
            print(
                f"error: id column {args.id_col!r} not in input schema "
                f"{ds.schema.names}", file=sys.stderr,
            )
            return 2
        if not pa.types.is_integer(ds.schema.field(args.id_col).type):
            from fastpasta_ray.functions.dedup import with_hashed_ids

            ds = with_hashed_ids(ds, args.id_col)
            id_col = "doc_id64"
            print(
                json.dumps(
                    {
                        "note": f"id column {args.id_col!r} is not integer; "
                        "pairs are reported as 64-bit id hashes (doc_id64)"
                    }
                )
            )
    args.id_col = id_col
    if args.method == "exact":
        from fastpasta_ray.functions.dedup import drop_exact_dups

        out = drop_exact_dups(ds, id_col=args.id_col, text_col=args.text_col)
    elif args.method == "minhash":
        from fastpasta_ray.functions.dedup import minhash_lsh_pairs

        out = minhash_lsh_pairs(
            ds, id_col=args.id_col, text_col=args.text_col, threshold=args.threshold
        )
    else:  # simhash
        from fastpasta_ray.functions.dedup import exact_jaccard_verify, simhash_near_dups

        cand = simhash_near_dups(ds, id_col=args.id_col, text_col=args.text_col, aggregate=False)
        out = exact_jaccard_verify(
            cand, ds, threshold=args.threshold, id_col=args.id_col, text_col=args.text_col
        )
    if args.clusters:
        # connected components over the verified pairs → (doc_id,
        # cluster_id) assignments, the standard fuzzy-dedup final step
        from fastpasta_ray.exchange import blocks
        from fastpasta_ray.functions.dedup import near_dup_clusters

        out = blocks(near_dup_clusters(out))
    n = _write(out, args.output)
    print(json.dumps({"method": args.method, "rows_out": n, "output": args.output}))
    return 0


def cmd_compare_stats(args) -> int:
    """Offline diff of two stats snapshots (no corpus scan, no Ray session):
    the reference compares a fresh run vs --input-stats-file; this compares
    two already-written files — 'did yesterday's profile drift from last
    week's?' without touching the data. Exact field-by-field mismatches
    (E9002 analog) plus PSI/KS distances between the two n_tok histograms
    and source mixes. Exit 1 on any mismatch or distance over threshold."""
    import numpy as np

    from fastpasta_ray.checks.drift import (
        DEFAULT_EDGES,
        _mix_vector,
        compare_profiles,
        ks,
        psi,
    )
    from fastpasta_ray.pipelines.check import load_stats_profile
    from fastpasta_ray.sketches import IntHistogram

    obs = load_stats_profile(args.observed)
    ref = load_stats_profile(args.reference)
    msgs = compare_profiles(obs, ref)
    out: dict = {"n_field_mismatches": len(msgs), "messages": msgs[:50]}
    drifted = False
    if "n_tok_hist" in obs and "n_tok_hist" in ref:
        ho = IntHistogram.from_json(obs["n_tok_hist"]).normalized(DEFAULT_EDGES)
        hr = IntHistogram.from_json(ref["n_tok_hist"]).normalized(DEFAULT_EDGES)
        out["ntok_psi"] = round(float(psi(ho, hr)), 6)
        out["ntok_ks"] = round(float(ks(ho, hr)), 6)
        drifted |= out["ntok_psi"] > args.psi_threshold
        drifted |= out["ntok_ks"] > args.ks_threshold
    so, sr = obs.get("source_histogram"), ref.get("source_histogram")
    if so is not None and sr is not None:
        keys = sorted(set(so) | set(sr))
        mo, mr = _mix_vector(so, keys), _mix_vector(sr, keys)
        tot_o, tot_r = mo.sum(), mr.sum()
        if tot_o > 0 and tot_r > 0:
            out["source_mix_psi"] = round(float(psi(mo / tot_o, mr / tot_r)), 6)
            drifted |= out["source_mix_psi"] > args.psi_threshold
    out["drifted"] = bool(drifted)
    print(json.dumps(out, indent=2))
    return 1 if (msgs or drifted) else 0


def cmd_semdedup(args) -> int:
    """SemDeDup over an embeddings parquet: fit k-means, drop within-cluster
    cosine near-dups (keep-first), write the SURVIVING rows as parquet and
    print the drop summary."""
    _ray_session()
    import numpy as np
    import pyarrow as pa
    import ray

    from fastpasta_ray.exchange import collect
    from fastpasta_ray.functions.similarity import kmeans_fit, semantic_dedup

    # the kmeans passes and the dedup pass share the one read's blocks
    ds = _read(args.input)
    cent = kmeans_fit(ds, k=args.k, n_iter=args.iters, emb_col=args.emb_col, id_col=args.id_col)
    dropped = semantic_dedup(
        ds, cent, threshold=args.threshold, id_col=args.id_col, emb_col=args.emb_col
    )
    drop_ids = np.sort(collect(dropped)[args.id_col].to_numpy(zero_copy_only=False))
    ref = ray.put(drop_ids)

    def keep(b: pa.Table) -> pa.Table:
        d = ray.get(ref)
        if not len(d):
            return b
        ids = b[args.id_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(d, ids)
        is_dropped = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
        return b.filter(pa.array(~is_dropped))

    n = _write(ds.view(keep), args.output)
    print(
        json.dumps(
            {
                "k": args.k,
                "threshold": args.threshold,
                "rows_dropped": int(len(drop_ids)),
                "rows_out": n,
                "output": args.output,
            }
        )
    )
    return 0


def cmd_text_stats(args) -> int:
    """Per-document text-quality signals (token counts, quality metrics,
    language ID, repetition, fingerprints) written as parquet."""
    _ray_session()
    from fastpasta_ray.functions import text as ftext

    lang_id = ftext.LangID()

    def stats(b):
        # repetition_metrics already carries n_words; token_count would
        # duplicate the column
        b = ftext.mean_word_length(ftext.repetition_metrics(ftext.quality_metrics(b)))
        return ftext.fingerprint(lang_id(b))

    ds = _read(args.input)
    out = ds.view(stats, stats(ds.schema.empty_table()).schema)
    if getattr(args, "logprob", False):
        # unigram-LM quality score: fit the frequency table on this corpus
        # (one extra counting pass), then score in-pipeline — the table is
        # the only thing that touches the driver (vocab-bounded); smoothed
        # so unseen words stay finite when the fitted table is reused
        vocab, logp, oov = ftext.unigram_logprob_table(ds, alpha=0.5)
        out = ftext.unigram_logprob_score(out, vocab, logp, oov, append=True)
    n = _write(out.select_columns([c for c in out.schema.names if c != "text"]), args.output)
    print(json.dumps({"rows_out": n, "output": args.output}))
    return 0


def cmd_decontam(args) -> int:
    """Benchmark decontamination: flag (default) or drop corpus documents
    that share word n-grams with an eval set."""
    _ray_session()
    from fastpasta_ray.functions.decontam import contamination_check, decontaminate

    docs = _read(args.input)
    bench = _read(args.benchmark)
    try:
        if args.drop:
            out = decontaminate(
                docs, bench, text_col=args.text_col,
                ngram_n=args.ngram, min_overlap=args.min_overlap,
            )
        else:
            out = contamination_check(
                docs, bench, id_col=args.id_col, text_col=args.text_col,
                ngram_n=args.ngram, min_overlap=args.min_overlap,
            )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    n_out = _write(out, args.output)
    print(
        json.dumps(
            {
                "mode": "drop" if args.drop else "flag",
                "ngram": args.ngram,
                "rows_in": docs.rows,
                "rows_out": n_out,
                "output": args.output,
            }
        )
    )
    return 0


def cmd_mixture(args) -> int:
    """Rebalance a corpus to an exact target stratum mixture with
    deterministic hash thresholds; prints the per-stratum thresholds."""
    _ray_session()
    from fastpasta_ray.functions.sampling import mixture_sample

    try:
        weights = {
            k.strip(): int(v)
            for k, v in (pair.split("=", 1) for pair in args.weights.split(","))
        }
    except ValueError:
        print(
            "error: --weights must be 'stratum=int,stratum=int,...' "
            f"(got {args.weights!r})", file=sys.stderr,
        )
        return 2
    ds = _read(args.input)
    try:
        sampled, thr = mixture_sample(
            ds, key_col=args.key_col, stratum_col=args.stratum_col,
            weights=weights, denom=args.denom,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    n_out = _write(sampled, args.output)
    print(
        json.dumps(
            {
                "weights": weights,
                "thresholds": thr,
                "rows_out": n_out,
                "output": args.output,
            }
        )
    )
    return 0


def cmd_bench(args) -> int:
    import bench

    print(json.dumps(bench.run_bench(args.sf_dir, args.num_cpus)))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="fastpasta-ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="validate a sequences fixture dir")
    c.add_argument("input_dir")
    c.add_argument("--manifest", default=None)
    # check-semantics flags: default=SUPPRESS so cmd_check can tell a typed
    # flag from an untyped one (config-file override rules; ADVICE r3)
    SUP = argparse.SUPPRESS
    c.add_argument("--sanity-only", action="store_true", default=SUP,
                   help="stateless checks only (check sanity analog)")
    c.add_argument("--codes", default=SUP, help="comma-separated error-code filter")
    c.add_argument("--filter-sources", default=SUP, metavar="SRC[,SRC...]",
                   help="scope the whole analysis to these sources "
                        "(--filter-link/--filter-fee analog: checks, stats "
                        "and key checks all see only matching rows)")
    c.add_argument("--max-errors", type=int, default=SUP, help="per-partition violation cap (default 10000)")
    c.add_argument("--max-errors-global", type=int, default=SUP,
                   help="global error budget: stop scheduling partitions once exceeded (max_tolerate_errors analog)")
    c.add_argument("--expect-rows", type=int, default=SUP, help="expected row count (custom check E9001)")
    c.add_argument("--expect-stride", type=int, default=SUP,
                   help="exact doc-index stride per partition (E44, trigger-period analog)")
    c.add_argument("--no-payload", action="store_true", default=SUP,
                   help="never read the tokens payload (RDH-only analog; token checks skipped)")
    c.add_argument("--bos-id", type=int, default=SUP, help="grammar: required first token (E30)")
    c.add_argument("--eos-id", type=int, default=SUP, help="grammar: required last token (E50)")
    c.add_argument("--pad-id", type=int, default=SUP, help="grammar: pad token allowed only as tail (E60)")
    c.add_argument("--segment-delim", type=int, default=SUP,
                   help="nested segment decode: delimiter token id (E73/E74/E75, ALPIDE analog)")
    c.add_argument("--min-segments", type=int, default=SUP)
    c.add_argument("--max-segments", type=int, default=SUP)
    c.add_argument("--warning-sentinels", default=SUP, metavar="ID[,ID...]",
                   help="token ids marking a segment WARNING (E77, APE ladder analog)")
    c.add_argument("--fatal-sentinels", default=SUP, metavar="ID[,ID...]",
                   help="token ids marking a segment FATAL (E78; fatal headers drop "
                        "out of E74/E76 and lower the E73 band for the partition)")
    c.add_argument("--input-stats", default=None, help="reference profile JSON to compare against")
    c.add_argument("--output-stats", default=None, help="write stats snapshot JSON here")
    c.add_argument("--output-violations", default=None, help="write violations parquet (one file per partition) here")
    c.add_argument("--print-errors", type=int, default=50)
    c.add_argument("--checkpoint-dir", default=None)
    c.add_argument("--resume", action="store_true")
    c.add_argument("--checks-config", default=None,
                   help="checks config file, .toml or .json by extension "
                        "(overrides other check flags; --checks-toml analog)")
    c.add_argument("--any-errors-exit-code", type=int, default=1,
                   help="exit code when violations were found, cannot be 0 "
                        "(-E/--any-errors-exit-code analog, config.rs:66-73)")
    c.add_argument("--mute-errors", action="store_true",
                   help="suppress per-error lines, print only the report "
                        "(-m/--mute-errors analog, config.rs:121-123)")
    c.add_argument("--stats-format", choices=("json", "toml"), default=None,
                   help="force the stats snapshot format regardless of the "
                        "--output-stats extension (-D/--stats-format analog)")
    c.set_defaults(fn=cmd_check)

    g = sub.add_parser("generate-config", help="write a default checks-config template")
    g.add_argument("output")
    g.set_defaults(fn=cmd_generate_config)

    v = sub.add_parser("view", help="formatted sample rows")
    v.add_argument("input_dir")
    v.add_argument("--limit", type=int, default=20)
    v.add_argument("--filter-sources", default=None, metavar="SRC[,SRC...]",
                   help="show only rows from these sources (--filter-link analog)")
    v.add_argument("--frames", action="store_true", help="doc-frame view")
    v.add_argument("--data", action="store_true",
                   help="per-token data view with classification lanes "
                        "(its-readout-frames-data analog)")
    v.add_argument("--bos-id", type=int, default=None)
    v.add_argument("--eos-id", type=int, default=None)
    v.add_argument("--pad-id", type=int, default=None)
    v.add_argument("--segment-delim", type=int, default=None)
    v.set_defaults(fn=cmd_view)

    f = sub.add_parser("filter", help="filter + rewrite partitions")
    f.add_argument("input_dir")
    f.add_argument("-o", "--output", required=True)
    f.add_argument("--sources", default=None)
    f.add_argument("--min-n-tok", type=int, default=None)
    f.add_argument("--max-n-tok", type=int, default=None)
    f.set_defaults(fn=cmd_filter)

    dd = sub.add_parser("dedup", help="dedup a documents parquet (exact/minhash/simhash)")
    dd.add_argument("input")
    dd.add_argument("-o", "--output", required=True)
    dd.add_argument("--method", choices=("exact", "minhash", "simhash"), default="exact")
    dd.add_argument("--threshold", type=float, default=0.5, help="exact-jaccard threshold for pair output")
    dd.add_argument("--id-col", default="doc_id")
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--clusters", action="store_true",
                    help="minhash/simhash: write (doc_id, cluster_id) "
                         "connected-component assignments instead of pairs")
    dd.set_defaults(fn=cmd_dedup)

    ts = sub.add_parser("text-stats", help="per-doc quality/lang/repetition signals")
    ts.add_argument("input")
    ts.add_argument("-o", "--output", required=True)
    ts.add_argument("--logprob", action="store_true",
                    help="add a unigram-LM quality score fitted on this corpus")
    ts.set_defaults(fn=cmd_text_stats)

    cs = sub.add_parser(
        "compare-stats",
        help="offline diff of two stats snapshots (exact fields + PSI/KS); "
             "no corpus scan, no Ray",
    )
    cs.add_argument("observed", help="snapshot to judge (JSON or TOML)")
    cs.add_argument("reference", help="snapshot to judge against")
    cs.add_argument("--psi-threshold", type=float, default=0.2)
    cs.add_argument("--ks-threshold", type=float, default=0.15)
    cs.set_defaults(fn=cmd_compare_stats)

    sd = sub.add_parser(
        "semdedup",
        help="SemDeDup semantic dedup of an embeddings parquet (drops "
             "within-cluster cosine near-dups)",
    )
    sd.add_argument("input")
    sd.add_argument("-o", "--output", required=True)
    sd.add_argument("--threshold", type=float, default=0.9)
    sd.add_argument("--k", type=int, default=64, help="number of k-means clusters")
    sd.add_argument("--iters", type=int, default=4, help="Lloyd's iterations")
    sd.add_argument("--id-col", default="vec_id")
    sd.add_argument("--emb-col", default="embedding")
    sd.set_defaults(fn=cmd_semdedup)

    dc = sub.add_parser(
        "decontam", help="flag or drop docs sharing word n-grams with a benchmark set"
    )
    dc.add_argument("input", help="corpus parquet file/dir")
    dc.add_argument("--benchmark", required=True, help="benchmark/eval parquet file/dir")
    dc.add_argument("-o", "--output", required=True)
    dc.add_argument("--ngram", type=int, default=8, help="word n-gram size (default 8)")
    dc.add_argument("--min-overlap", type=int, default=1)
    dc.add_argument("--id-col", default="doc_id")
    dc.add_argument("--text-col", default="text")
    dc.add_argument(
        "--drop", action="store_true",
        help="write the CLEANED corpus (default: write the flagged (id, n_overlap) report)",
    )
    dc.set_defaults(fn=cmd_decontam)

    mx = sub.add_parser(
        "mixture", help="deterministically rebalance to a target stratum mixture"
    )
    mx.add_argument("input")
    mx.add_argument("-o", "--output", required=True)
    mx.add_argument(
        "--weights", required=True,
        help="comma list of stratum=integer-weight, e.g. 'web=5,code=3,books=2'",
    )
    mx.add_argument("--key-col", default="doc_id")
    mx.add_argument("--stratum-col", default="source")
    mx.add_argument("--denom", type=int, default=1000)
    mx.set_defaults(fn=cmd_mixture)

    b = sub.add_parser("bench", help="run the benchmark")
    b.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    b.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    b.set_defaults(fn=cmd_bench)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
