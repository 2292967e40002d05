"""Dataset and DataLoader abstractions.

Minimal but faithful to the familiar contract: a ``Dataset`` is an
indexable collection of ``(x, y)`` pairs backed by numpy arrays, and a
``DataLoader`` yields shuffled mini-batches, reproducibly.
"""

import numpy as np

from ..tensor import default_dtype


class ArrayDataset:
    """In-memory dataset over parallel numpy arrays.

    Inputs are stored in the engine dtype of the precision policy so
    every batch a loader yields feeds the model without a per-step
    cast.
    """

    def __init__(self, inputs, targets):
        inputs = np.asarray(inputs, dtype=default_dtype())
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs ({len(inputs)}) and targets ({len(targets)}) differ in length"
            )
        self.inputs = inputs
        self.targets = targets

    def __len__(self):
        return len(self.inputs)

    def __getitem__(self, index):
        return self.inputs[index], self.targets[index]

    def subset(self, indices):
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices)
        return ArrayDataset(self.inputs[indices], self.targets[indices])

    def with_targets(self, targets):
        """Return a copy sharing inputs but with replaced targets."""
        return ArrayDataset(self.inputs, targets)


class DataLoader:
    """Iterate mini-batches of an :class:`ArrayDataset`.

    Parameters
    ----------
    dataset:
        The dataset to iterate.
    batch_size:
        Mini-batch size; the final short batch is kept unless
        ``drop_last``.
    shuffle:
        Reshuffle at the start of every epoch.
    transform:
        Optional callable ``(x_batch, rng) -> x_batch`` applied to each
        input batch (data augmentation).
    seed:
        Seeds both shuffling and the transform's rng stream.
    """

    def __init__(
        self,
        dataset,
        batch_size=32,
        shuffle=True,
        transform=None,
        drop_last=False,
        seed=0,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.transform = transform
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self):
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch_order(self, n=None):
        """The sample order the next epoch visits (consumes the rng):
        one global shuffle, or ``range(n)`` without ``shuffle``."""
        n = len(self.dataset) if n is None else n
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        return order

    def __iter__(self):
        n = len(self.dataset)
        order = self.epoch_order(n)
        for start in range(0, n, self.batch_size):
            index = order[start : start + self.batch_size]
            if self.drop_last and len(index) < self.batch_size:
                return
            x, y = self.dataset[index]
            if self.transform is not None:
                x = self.transform(x, self._rng)
            yield x, y
