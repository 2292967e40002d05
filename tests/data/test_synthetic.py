"""Synthetic image dataset generator."""

import numpy as np
import pytest

from repro.data import PROFILES, generate_dataset, make_dataset
from repro.data.synthetic import SyntheticSpec, _class_prototypes


class TestSpec:
    def test_class_counts_sum(self):
        spec = PROFILES["cifar10_like"]
        counts = spec.class_counts(103)
        assert counts.sum() == 103
        assert counts.max() - counts.min() <= 1

    def test_profiles_exist(self):
        for name in ("cifar10_like", "cifar100_like", "imagenet_like"):
            assert name in PROFILES


class TestGeneration:
    def test_shapes_and_labels(self):
        train, test, spec = make_dataset("cifar10_like", train_size=50, test_size=30)
        assert train.inputs.shape == (50, 3, spec.image_size, spec.image_size)
        assert test.inputs.shape[0] == 30
        assert set(np.unique(train.targets)) <= set(range(spec.num_classes))

    def test_deterministic(self):
        t1, _, _ = make_dataset("cifar10_like", train_size=20, test_size=10)
        t2, _, _ = make_dataset("cifar10_like", train_size=20, test_size=10)
        assert np.allclose(t1.inputs, t2.inputs)
        assert np.all(t1.targets == t2.targets)

    def test_seed_changes_data(self):
        t1, _, _ = make_dataset("cifar10_like", seed=1, train_size=20, test_size=10)
        t2, _, _ = make_dataset("cifar10_like", seed=2, train_size=20, test_size=10)
        assert not np.allclose(t1.inputs, t2.inputs)

    def test_train_test_disjoint_draws(self):
        train, test, _ = make_dataset("cifar10_like", train_size=30, test_size=30)
        # identical shapes but different noise draws
        assert not np.allclose(train.inputs[:10], test.inputs[:10])

    def test_all_classes_present(self):
        train, test, spec = make_dataset("cifar10_like", train_size=100, test_size=100)
        assert len(np.unique(train.targets)) == spec.num_classes
        assert len(np.unique(test.targets)) == spec.num_classes

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            make_dataset("mnist_like")

    def test_prototypes_unit_rms(self):
        spec = PROFILES["cifar10_like"]
        protos = _class_prototypes(spec, np.random.default_rng(0))
        rms = np.sqrt((protos ** 2).mean(axis=(1, 2, 3)))
        assert np.allclose(rms, spec.prototype_scale, rtol=1e-6)

    def test_classes_statistically_separable(self):
        """Nearest-prototype classification must beat chance by a lot.

        Guards against generator regressions that would silently turn
        every experiment into noise fitting.
        """
        spec = SyntheticSpec(
            name="t", num_classes=5, image_size=8, train_size=100, test_size=50,
            noise=0.5, interference=0.3,
        )
        train, _ = generate_dataset(spec)
        protos = _class_prototypes(spec, np.random.default_rng(spec.seed))
        flat_p = protos.reshape(spec.num_classes, -1)
        flat_x = train.inputs.reshape(len(train), -1)
        # correlation with each prototype (shift-sensitive, so imperfect)
        scores = flat_x @ flat_p.T
        predictions = scores.argmax(axis=1)
        accuracy = (predictions == train.targets).mean()
        assert accuracy > 0.4  # chance is 0.2

    def test_custom_sizes_override(self):
        train, test, spec = make_dataset("cifar100_like", train_size=40, test_size=20)
        assert len(train) == 40
        assert len(test) == 20
        assert spec.train_size == 40

    def test_grayscale_profile(self):
        train, _test, spec = make_dataset("fashion_like", train_size=30, test_size=10)
        assert spec.channels == 1
        assert train.inputs.shape == (30, 1, spec.image_size, spec.image_size)

    def test_grayscale_trains_through_models(self):
        from repro import nn, optim
        from repro.core import make_trainer
        from repro.data import DataLoader
        from repro.models import create_model

        train, _test, spec = make_dataset("fashion_like", train_size=60, test_size=20)
        model = create_model(
            "resnet8", num_classes=spec.num_classes, in_channels=1, scale=0.5, seed=0
        )
        opt = optim.SGD(model.parameters(), lr=0.1)
        trainer = make_trainer("sgd", model, nn.CrossEntropyLoss(), opt)
        history = trainer.fit(DataLoader(train, batch_size=30, seed=0), epochs=2)
        assert history["train_loss"][-1] <= history["train_loss"][0] + 0.5
