"""Synthetic image classification datasets — the CIFAR/ImageNet stand-in.

The paper trains on CIFAR-10, CIFAR-100 and ImageNet, none of which are
available offline.  This module generates a deterministic,
class-conditional image distribution with the properties the paper's
phenomena depend on:

* a held-out test split drawn from the same distribution (so a
  generalization gap exists and can be widened by overfitting);
* non-trivial class structure — each class is a mixture of smooth
  spatial prototypes plus localized blobs, and every sample receives a
  random spatial shift, inter-class interference and pixel noise, so a
  model must learn shift-tolerant spatial features (what convolutions
  provide) and can overfit the noise;
* enough samples relative to model capacity that training method
  (SGD vs HERO vs GRAD-L1) changes the solution's flatness.

Three profiles mirror the paper's datasets: ``cifar10_like`` (10
classes), ``cifar100_like`` (20 classes, fewer samples per class —
harder, like CIFAR-100 relative to CIFAR-10) and ``imagenet_like``
(more classes, larger images — the scalability check).
"""

from dataclasses import dataclass

import numpy as np

from ..tensor import default_dtype


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of a synthetic image distribution."""

    name: str
    num_classes: int
    image_size: int
    channels: int = 3
    train_size: int = 512
    test_size: int = 256
    num_components: int = 3  # cosine components per prototype
    num_blobs: int = 2  # localized blobs per class
    prototype_scale: float = 1.0
    interference: float = 0.35  # weight of the wrong-class prototype mixed in
    noise: float = 0.55  # i.i.d. pixel noise std
    max_shift: int = 2  # random circular shift, pixels
    amplitude_jitter: float = 0.25  # multiplicative prototype jitter
    seed: int = 2022

    def class_counts(self, total):
        """Near-uniform per-class sample counts summing to ``total``."""
        base = total // self.num_classes
        counts = np.full(self.num_classes, base, dtype=np.int64)
        counts[: total - base * self.num_classes] += 1
        return counts


# Difficulty calibrated (see EXPERIMENTS.md) so that the paper's SGD
# baseline lands in the overfitting regime at CPU scale: train accuracy
# ~1.0 with a 0.3-0.5 generalization gap and a visible low-bit PTQ drop
# — the conditions under which HERO's mechanisms are observable.
PROFILES = {
    "cifar10_like": SyntheticSpec(
        name="cifar10_like",
        num_classes=10,
        image_size=8,
        train_size=256,
        test_size=320,
        noise=1.0,
        interference=0.6,
        amplitude_jitter=0.4,
    ),
    "cifar100_like": SyntheticSpec(
        name="cifar100_like",
        num_classes=20,
        image_size=8,
        train_size=320,
        test_size=400,
        noise=1.0,
        interference=0.7,
        amplitude_jitter=0.4,
    ),
    "imagenet_like": SyntheticSpec(
        name="imagenet_like",
        num_classes=25,
        image_size=12,
        train_size=400,
        test_size=375,
        noise=0.9,
        interference=0.6,
        amplitude_jitter=0.4,
    ),
    # Grayscale profile (Fashion-MNIST-like shape): exercises the
    # in_channels=1 path through the model zoo and harness.
    "fashion_like": SyntheticSpec(
        name="fashion_like",
        num_classes=10,
        image_size=10,
        channels=1,
        train_size=300,
        test_size=300,
        noise=0.9,
        interference=0.5,
        amplitude_jitter=0.35,
    ),
}


def _class_prototypes(spec, rng):
    """Build one smooth prototype image per class.

    Prototypes combine low-frequency cosine gratings (global structure)
    with Gaussian blobs at class-specific positions (local structure),
    then are normalized to unit RMS so classes are equally "loud".
    """
    size = spec.image_size
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    prototypes = np.zeros((spec.num_classes, spec.channels, size, size))
    for c in range(spec.num_classes):
        proto = np.zeros((spec.channels, size, size))
        for _ in range(spec.num_components):
            fy, fx = rng.uniform(0.5, 2.0, size=2) / size
            phase = rng.uniform(0, 2 * np.pi)
            channel_weights = rng.normal(size=spec.channels)
            grating = np.cos(2 * np.pi * (fy * ys + fx * xs) + phase)
            proto += channel_weights[:, None, None] * grating[None]
        for _ in range(spec.num_blobs):
            cy, cx = rng.uniform(0, size, size=2)
            sigma = rng.uniform(0.08, 0.2) * size
            blob = np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma**2)))
            channel_weights = rng.normal(size=spec.channels) * 2.0
            proto += channel_weights[:, None, None] * blob[None]
        rms = np.sqrt(np.mean(proto**2))
        prototypes[c] = spec.prototype_scale * proto / max(rms, 1e-12)
    return prototypes


def _sample_params(spec, labels, rng):
    """Draw the per-sample randomness shared by both sampler variants.

    Every stochastic choice (interference class, amplitude, mix weight,
    shifts) is drawn here in batched calls, so the loop and vectorized
    samplers consume *exactly* the same generator stream.
    """
    count = len(labels)
    other = rng.integers(0, spec.num_classes, size=count)
    # Make sure interference comes from a *different* class.
    clash = other == labels
    other[clash] = (other[clash] + 1) % spec.num_classes
    amps = 1.0 + spec.amplitude_jitter * rng.standard_normal(count)
    mix = spec.interference * rng.random(count)
    shifts_y = rng.integers(-spec.max_shift, spec.max_shift + 1, size=count)
    shifts_x = rng.integers(-spec.max_shift, spec.max_shift + 1, size=count)
    return other, amps, mix, shifts_y, shifts_x


def _sample_images_loop(spec, prototypes, labels, rng):
    """Reference sampler: one image per loop iteration (the seed code).

    Kept as the executable specification of the generator's stream —
    the parity tests assert :func:`_sample_images` reproduces it bit
    for bit, and ``bench_datagen`` uses it as the speedup baseline.
    """
    count = len(labels)
    size = spec.image_size
    images = np.empty((count, spec.channels, size, size), dtype=default_dtype())
    other, amps, mix, shifts_y, shifts_x = _sample_params(spec, labels, rng)
    for i in range(count):
        img = amps[i] * prototypes[labels[i]] + mix[i] * prototypes[other[i]]
        if shifts_y[i] or shifts_x[i]:
            img = np.roll(img, (shifts_y[i], shifts_x[i]), axis=(1, 2))
        images[i] = img
    images += spec.noise * rng.standard_normal(images.shape)
    return images


def _sample_images(spec, prototypes, labels, rng):
    """Draw one image per label: jittered prototype + interference + noise.

    Vectorized over the whole batch — prototype mixing is two fancy
    indexes plus broadcast multiplies, and the per-image circular shift
    is a single batched gather (roll via modular index arithmetic, no
    per-image ``np.roll``).  Bit-identical to :func:`_sample_images_loop`:
    the RNG draws, the float64 mixture arithmetic and the final cast to
    the engine dtype all happen in the same order.
    """
    count = len(labels)
    size = spec.image_size
    other, amps, mix, shifts_y, shifts_x = _sample_params(spec, labels, rng)
    # Mixture in float64 (prototypes' dtype), exactly as the loop's
    # per-image `amps[i] * proto + mix[i] * proto`.
    mixed = (
        amps[:, None, None, None] * prototypes[labels]
        + mix[:, None, None, None] * prototypes[other]
    )
    # Batched circular shift: np.roll(img, s)[r] == img[(r - s) % size],
    # expressed as one advanced-indexing gather over the batch.
    grid = np.arange(size)
    rows = (grid[None, :] - shifts_y[:, None]) % size
    cols = (grid[None, :] - shifts_x[:, None]) % size
    shifted = mixed[
        np.arange(count)[:, None, None, None],
        np.arange(spec.channels)[None, :, None, None],
        rows[:, None, :, None],
        cols[:, None, None, :],
    ]
    # Cast to the engine dtype on store (the loop casts per image; one
    # batched cast produces the same values), then add pixel noise drawn
    # in the identical single rng call.
    images = shifted.astype(default_dtype())
    images += spec.noise * rng.standard_normal(images.shape)
    return images


def _split_labels(spec, total, split_rng):
    """Near-uniform class labels for one split, shuffled by ``split_rng``."""
    counts = spec.class_counts(total)
    labels = np.repeat(np.arange(spec.num_classes), counts)
    split_rng.shuffle(labels)
    return labels


def _generate_split(spec, prototypes, total, split_rng):
    """One split of the legacy single-stream generator: ``(images, labels)``.

    The label shuffle and the sample draws share ``split_rng`` — this
    is the exact seed-generator stream (generator version 1), which the
    sharded pipeline reuses for datasets small enough to fit one shard.
    """
    labels = _split_labels(spec, total, split_rng)
    images = _sample_images(spec, prototypes, labels, split_rng)
    return images, labels


def make_dataset(profile, seed=None, train_size=None, test_size=None, cache_dir=None):
    """Instantiate a named profile, optionally overriding its scale.

    Returns ``(train_dataset, test_dataset, spec)``.

    ``cache_dir`` (optional) names an on-disk dataset cache directory:
    a repeat call for the same spec + engine dtype memory-maps the
    stored arrays instead of regenerating them, and a cold entry is
    streamed to disk shard by shard (see :mod:`repro.data.streaming`).
    Without it the arrays are generated in RAM
    (:func:`repro.data.pipeline.generate_dataset`).
    """
    from .pipeline import load_or_generate, resolve_spec

    spec = resolve_spec(profile, seed=seed, train_size=train_size, test_size=test_size)
    train, test = load_or_generate(spec, cache_dir=cache_dir)
    return train, test, spec
