"""Mode-connectivity interpolation paths."""

import numpy as np
import pytest

from repro import nn, optim
from repro.core import make_trainer
from repro.data import DataLoader, gaussian_blobs
from repro.landscape import barrier_height, interpolation_path
from repro.models import MLP, create_model
from repro.tensor import Tensor, dtype_context, no_grad


def train_model(seed, ds, epochs=10):
    model = MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(seed))
    opt = optim.SGD(model.parameters(), lr=0.2, momentum=0.9)
    make_trainer("sgd", model, nn.CrossEntropyLoss(), opt).fit(
        DataLoader(ds, batch_size=30, seed=seed), epochs=epochs
    )
    return model


class TestInterpolationPath:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = gaussian_blobs(n=90, num_classes=3, spread=2.5, noise=0.4, seed=0)
        m1 = train_model(1, ds)
        m2 = train_model(2, ds)
        x, y = ds[np.arange(len(ds))]
        return ds, m1, m2, [(x, y)]

    def test_path_shape_and_endpoints(self, setup):
        _ds, m1, m2, batches = setup
        path = interpolation_path(
            m1, m1.state_dict(), m2.state_dict(), nn.CrossEntropyLoss(), batches,
            steps=7, start=0.0, stop=1.0,
        )
        assert len(path["ts"]) == 7
        assert len(path["loss"]) == 7
        assert np.all(np.isfinite(path["loss"]))

    def test_identity_path_is_flat(self, setup):
        _ds, m1, _m2, batches = setup
        state = m1.state_dict()
        path = interpolation_path(
            m1, state, state, nn.CrossEntropyLoss(), batches, steps=5,
            start=0.0, stop=1.0,
        )
        assert np.allclose(path["loss"], path["loss"][0], atol=1e-10)
        assert barrier_height(path) == 0.0

    def test_model_restored(self, setup):
        _ds, m1, m2, batches = setup
        before = {n: p.data.copy() for n, p in m1.named_parameters()}
        interpolation_path(
            m1, m1.state_dict(), m2.state_dict(), nn.CrossEntropyLoss(), batches,
            steps=3,
        )
        for n, p in m1.named_parameters():
            assert np.allclose(p.data, before[n])
        assert m1.training

    def test_barrier_nonnegative(self, setup):
        _ds, m1, m2, batches = setup
        path = interpolation_path(
            m1, m1.state_dict(), m2.state_dict(), nn.CrossEntropyLoss(), batches,
            steps=9,
        )
        assert barrier_height(path) >= 0.0

    def test_mismatched_states_raise(self, setup):
        _ds, m1, _m2, batches = setup
        bad = dict(m1.state_dict())
        bad.pop(next(iter(bad)))
        with pytest.raises(ValueError):
            interpolation_path(m1, m1.state_dict(), bad, nn.CrossEntropyLoss(), batches)

    def test_endpoints_are_the_models_themselves_in_float32(self):
        """Each point is evaluated in its parameter's dtype, so t = 0 and
        t = 1 reproduce the two models' own eval losses exactly."""
        with dtype_context("float32"):
            model_a = create_model("resnet8", num_classes=10, scale=0.5, seed=0)
            model_b = create_model("resnet8", num_classes=10, scale=0.5, seed=1)
            rng = np.random.default_rng(0)
            x = rng.standard_normal((8, 3, 8, 8))
            y = rng.integers(0, 10, size=8)
            loss_fn = nn.CrossEntropyLoss()

            def own_loss(model):
                model.eval()
                with no_grad():
                    return float(loss_fn(model(Tensor(x)), y).data)

            path = interpolation_path(
                model_a, model_a.state_dict(), model_b.state_dict(), loss_fn, [(x, y)],
                steps=3, start=0.0, stop=1.0,
            )
            assert path["loss"][0] == own_loss(model_a)
            assert path["loss"][-1] == own_loss(model_b)

    def test_barrier_requires_unit_interval(self):
        with pytest.raises(ValueError):
            barrier_height({"ts": np.array([2.0, 3.0]), "loss": np.array([1.0, 2.0])})


class TestEarlyStopping:
    def test_stops_after_patience(self):
        from repro.core import EarlyStopping

        ds = gaussian_blobs(n=60, num_classes=3, spread=2.5, noise=0.4, seed=0)
        model = MLP(2, hidden=(8,), num_classes=3, rng=np.random.default_rng(0))
        opt = optim.SGD(model.parameters(), lr=1e-9)  # no real progress
        stopper = EarlyStopping(monitor="train_loss", mode="min", patience=2, min_delta=0.5)
        trainer = make_trainer(
            "sgd", model, nn.CrossEntropyLoss(), opt, callbacks=[stopper]
        )
        history = trainer.fit(DataLoader(ds, batch_size=30, seed=0), epochs=20)
        assert stopper.should_stop()
        assert len(history) < 20

    def test_improvement_resets_patience(self):
        from repro.core import EarlyStopping

        stopper = EarlyStopping(monitor="m", mode="max", patience=2)

        class FakeTrainer:
            stop_requested = False

        trainer = FakeTrainer()
        for epoch, value in enumerate([0.1, 0.1, 0.2, 0.2, 0.2]):
            stopper.on_epoch_end(trainer, epoch, {"m": value})
        # stale epochs: after 0.2@2 improvements reset; 0.2@3, 0.2@4 -> 2 stale
        assert trainer.stop_requested

    def test_validation(self):
        from repro.core import EarlyStopping

        with pytest.raises(ValueError):
            EarlyStopping(mode="median")
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
