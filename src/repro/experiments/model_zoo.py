"""Deterministic train-or-load of the paper's workload models.

Models are trained with quantization-aware training (STE weight fake-quant
plus ActQuant activation quantization, per the paper's Sec. 4.2) and stored
as ``zoo`` artifacts of the one artifact store,
:class:`~repro.plan.cache.PlanArtifactCache` (``$REPRO_CACHE_DIR/plan/v<N>/
zoo-<key>.npz``), keyed by the full workload specification, so repeated
invocations skip training and a truncated or corrupt model file is
quarantined and retrained instead of failing the run.  The dataset split
is a ``data`` artifact of the same store (``data-<key>.npz``), keyed by
the spec fields the split depends on, so each split is built once per
cache directory and heals the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import (
    DataSplit,
    synthetic_cifar,
    synthetic_digits,
    synthetic_tiny_imagenet,
)
from repro.nn import (
    SGD,
    TrainConfig,
    Trainer,
    cosine_schedule,
    evaluate_accuracy,
)
from repro.nn.models import convnet, lenet, resnet18
from repro.nn.quant import attach_weight_quantizers
from repro.plan.cache import PlanArtifactCache
from repro.utils.rng import RngStream

__all__ = ["ZooModel", "load_workload", "build_model", "build_data"]


@dataclass
class ZooModel:
    """A trained workload ready for mapping experiments.

    Attributes
    ----------
    model:
        The trained network, in eval mode, QAT weight quantizers attached.
    data:
        The :class:`~repro.data.DataSplit` it was trained on, loaded
        from the artifact store; its arrays are read-only.
    clean_accuracy:
        Test accuracy with (fake-)quantized weights, no device noise —
        the paper's "accuracy without the impact of device variation".
    spec:
        The :class:`~repro.experiments.config.WorkloadSpec`.
    """

    model: object
    data: object
    clean_accuracy: float
    spec: object


#: The :class:`~repro.experiments.config.WorkloadSpec` fields a split
#: depends on: :func:`build_data` reads the sizes, image size and
#: classes, and its stream derives from the seed and the workload key.
_DATA_FIELDS = ("key", "dataset", "n_train", "n_test", "image_size",
                "num_classes", "seed", "data_version")
_SPLIT_ARRAYS = ("train_x", "train_y", "test_x", "test_y")


def build_data(spec, rng):
    """Generate the dataset for a workload spec."""
    if spec.dataset == "digits":
        return synthetic_digits(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size,
        )
    if spec.dataset == "cifar":
        return synthetic_cifar(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size, num_classes=spec.num_classes,
        )
    if spec.dataset == "tiny":
        return synthetic_tiny_imagenet(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size, num_classes=spec.num_classes,
        )
    raise KeyError(f"unknown dataset {spec.dataset!r}")


def build_model(spec, rng):
    """Construct the (untrained) network for a workload spec."""
    if spec.arch == "lenet":
        return lenet(
            rng, num_classes=spec.num_classes, act_bits=spec.act_bits,
            image_size=spec.image_size,
        )
    if spec.arch == "convnet":
        return convnet(
            rng, num_classes=spec.num_classes, width_mult=spec.width_mult,
            image_size=spec.image_size, act_bits=spec.act_bits,
        )
    if spec.arch == "resnet18":
        return resnet18(
            rng, num_classes=spec.num_classes, width_mult=spec.width_mult,
            act_bits=spec.act_bits,
        )
    raise KeyError(f"unknown arch {spec.arch!r}")


def load_workload(spec):
    """Train (or load from the artifact store) the model for a workload spec.

    Deterministic: the spec's seed drives data generation, weight init,
    and batch shuffling, so cache hits and fresh training produce the
    same artifact.  The split is a ``data`` artifact whose key holds
    only the fields it depends on (not the training ones), built on a
    miss and loaded from the store after; its arrays are read-only,
    so a caller that writes into the shared split fails loudly.  A
    model miss trains and stores the state dict plus
    ``clean_accuracy``; hits and misses then load the model the same
    way.

    Returns
    -------
    ZooModel
    """
    root = RngStream(spec.seed).child("zoo", spec.key)
    # The memory tier is off: the caller holds the split and the model,
    # and a second copy of either would only grow the process.
    cache = PlanArtifactCache(memory=False)

    def generate():
        split = build_data(spec, root.child("data"))
        return dict(
            {name: getattr(split, name) for name in _SPLIT_ARRAYS},
            num_classes=np.int64(split.num_classes), name=np.str_(split.name),
        )

    arrays = cache.get_or_create(
        "data", {name: getattr(spec, name) for name in _DATA_FIELDS}, generate
    )
    for name in _SPLIT_ARRAYS:
        arrays[name].flags.writeable = False
    data = DataSplit(
        **{name: arrays[name] for name in _SPLIT_ARRAYS},
        num_classes=int(arrays["num_classes"]), name=str(arrays["name"]),
    )
    model = build_model(spec, root.child("model"))

    def train():
        optimizer = SGD(model.parameters(), lr=spec.lr, momentum=0.9,
                        weight_decay=1e-4)
        trainer = Trainer(
            optimizer,
            schedule=cosine_schedule(spec.lr, spec.epochs),
            rng=root.child("train"),
        )
        trainer.fit(
            model, data.train_x, data.train_y,
            config=TrainConfig(
                epochs=spec.epochs, batch_size=spec.batch_size,
                weight_bits=spec.weight_bits,
            ),
        )
        accuracy = evaluate_accuracy(model, data.test_x, data.test_y)
        return dict(model.state_dict(),
                    clean_accuracy=np.float64(accuracy))

    state = dict(cache.get_or_create("zoo", spec.cache_config(), train))
    clean_accuracy = float(state.pop("clean_accuracy"))
    model.load_state_dict(state)
    # QAT quantizers are not part of the state dict; re-attach.
    attach_weight_quantizers(model, spec.weight_bits)
    model.eval()
    return ZooModel(model=model, data=data, clean_accuracy=clean_accuracy,
                    spec=spec)
