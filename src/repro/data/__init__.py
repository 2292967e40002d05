"""``repro.data`` — datasets, loaders, augmentation and label noise."""

from .dataset import ArrayDataset, DataLoader
from .synthetic import (
    SyntheticSpec,
    PROFILES,
    generate_synthetic,
    make_dataset,
)
from .pipeline import (
    DEFAULT_SHARD_SIZE,
    dataset_cache_dir,
    dataset_cache_key,
    generate_dataset,
    load_or_generate,
    plan_shards,
    resolve_spec,
    warm_dataset,
)
from .streaming import StreamReport, evict, stream_dataset
from .toy import two_moons, spirals, gaussian_blobs, train_test_split
from .augment import random_crop, random_horizontal_flip, standard_augment
from .noisy_labels import corrupt_symmetric, corrupt_dataset

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "dataset_cache_dir",
    "dataset_cache_key",
    "generate_dataset",
    "load_or_generate",
    "plan_shards",
    "resolve_spec",
    "warm_dataset",
    "StreamReport",
    "evict",
    "stream_dataset",
    "ArrayDataset",
    "DataLoader",
    "SyntheticSpec",
    "PROFILES",
    "generate_synthetic",
    "make_dataset",
    "two_moons",
    "spirals",
    "gaussian_blobs",
    "train_test_split",
    "random_crop",
    "random_horizontal_flip",
    "standard_augment",
    "corrupt_symmetric",
    "corrupt_dataset",
]
