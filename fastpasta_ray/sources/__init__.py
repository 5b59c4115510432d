from fastpasta_ray.sources.parquet import sequence_files  # noqa: F401
