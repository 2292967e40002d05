"""Content-addressed model artifacts: publish, list, reload, rebuild.

An **artifact** is a deployable model snapshot — weights plus every
post-training transform baked into them (BN folding, uniform or mixed
weight PTQ, frozen activation-quantizer ranges) — stored as a
:class:`~repro.io.DirectoryCache` entry exactly like datasets and runs:

    <cache>/artifacts/<key>/weights.npz      flat state dict
    <cache>/artifacts/<key>/manifest.json    serving.artifact_manifest

The key is a content hash over architecture + transform metadata +
weight bytes, so re-publishing identical content is a cache hit and two
racing publishers are both correct.  The manifest doubles as the
loader's recipe: rebuild the architecture with ``create_model``, fold
BatchNorm if the artifact was folded (folding a fresh model yields the
same module structure, so the folded state dict loads), restore the
weights, then re-wrap activation quantizers and restore their frozen
calibration ranges verbatim.  ``build_model()`` output is bit-identical
to the model that was published — the serving layer's determinism
contract rests on it.
"""

import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from ..io import DirectoryCache, read_json
from ..messages import (
    ActivationQuantV1,
    ArtifactManifestV1,
    ArtifactModelV1,
    WeightQuantV1,
    parse,
)
from ..models import create_model
from ..quant.activation import _QuantizedOutput, insert_activation_quantizers
from ..quant.folding import fold_batchnorms

#: Files every complete artifact entry must contain.
ARTIFACT_FILES = ("weights.npz", "manifest.json")


def default_cache_dir():
    """The artifact store's parent cache (shared with runs/datasets)."""
    from ..experiments.runner import default_cache_dir as runs_default

    return runs_default()


def artifact_cache(cache_dir=None):
    """The content-addressed artifact store under ``<cache>/artifacts``."""
    root = cache_dir if cache_dir is not None else default_cache_dir()
    return DirectoryCache(os.path.join(root, "artifacts"), ARTIFACT_FILES)


def model_spec(name, num_classes, in_channels=3, scale=1.0, image_size=None):
    """The ``create_model`` arguments an artifact needs to rebuild."""
    return ArtifactModelV1(
        name=name,
        num_classes=int(num_classes),
        in_channels=int(in_channels),
        scale=float(scale),
        image_size=None if image_size is None else int(image_size),
    )


def uniform_weight_quant(bits, symmetric=True, per_channel=False):
    """Provenance section for uniform weight PTQ."""
    return WeightQuantV1(
        mode="uniform",
        bits=int(bits),
        symmetric=bool(symmetric),
        per_channel=bool(per_channel),
        assignment=None,
    )


def mixed_weight_quant(assignment, symmetric=True, per_channel=False):
    """Provenance section for a per-layer mixed-precision assignment."""
    return WeightQuantV1(
        mode="mixed",
        bits=None,
        symmetric=bool(symmetric),
        per_channel=bool(per_channel),
        assignment={str(k): int(v) for k, v in dict(assignment).items()},
    )


@dataclass
class ServingArtifact:
    """A loaded artifact: the manifest plus the raw state dict."""

    manifest: ArtifactManifestV1
    state: dict

    @property
    def key(self):
        return self.manifest.key

    def build_model(self):
        """Rebuild the published model, bit-identical, in eval mode."""
        spec = self.manifest.model
        model = create_model(
            spec.name,
            num_classes=spec.num_classes,
            in_channels=spec.in_channels,
            scale=spec.scale,
            seed=0,
            image_size=spec.image_size,
        )
        if self.manifest.bn_folded:
            model, _count = fold_batchnorms(model)
        model.load_state_dict(self.state)
        act = self.manifest.activation_quant
        if act is not None:
            model, quantizers = insert_activation_quantizers(
                model, bits=act.bits, symmetric=act.symmetric
            )
            if len(quantizers) != len(act.lows):
                raise ValueError(
                    f"artifact {self.key!r}: {len(act.lows)} stored activation "
                    f"ranges but the rebuilt model has {len(quantizers)} quantizers"
                )
            for fq, low, high in zip(quantizers, act.lows, act.highs):
                fq.observer.low = float(low)
                fq.observer.high = float(high)
                fq.freeze()
        model.eval()
        return model


def publish_artifact(
    model,
    spec,
    *,
    cache_dir=None,
    source=None,
    weight_quant=None,
    bn_folded=False,
    clock=time.time,
):
    """Publish ``model`` as a content-addressed artifact; return its manifest.

    ``model`` may be a plain module, a ``fold_batchnorms`` output, a
    weight-quantized clone, or a ``quantize_weights_and_activations``
    deployment (activation wrappers are detected, their frozen ranges
    captured into the manifest, and the unwrapped state dict stored).
    ``spec`` is the :func:`model_spec` describing how to rebuild the
    architecture; pass ``bn_folded=True`` when the model went through
    ``fold_batchnorms`` and ``weight_quant`` for PTQ provenance.
    Publishing identical content twice returns the existing manifest.
    """
    base, activation = _strip_activation_quantizers(model)
    state = base.state_dict()
    dtype = _state_dtype(state)
    weights_sha = _weights_digest(state)
    if not isinstance(spec, ArtifactModelV1):
        spec = model_spec(**dict(spec))
    if weight_quant is not None and not isinstance(weight_quant, WeightQuantV1):
        raise TypeError(
            "weight_quant must be a WeightQuantV1 "
            "(see uniform_weight_quant / mixed_weight_quant)"
        )
    key = _content_key(spec, bool(bn_folded), weight_quant, activation, weights_sha)
    cache = artifact_cache(cache_dir)
    existing = cache.fetch(key, _load_entry)
    if existing is not None:
        return existing[0]
    manifest = ArtifactManifestV1(
        key=key,
        created_at=float(clock()),
        source=source,
        model=spec,
        dtype=dtype,
        bn_folded=bool(bn_folded),
        weight_quant=weight_quant,
        activation_quant=activation,
        params=int(base.num_parameters()),
        weights_sha256=weights_sha,
    )

    def build(tmp):
        np.savez(os.path.join(tmp, "weights.npz"), **state)
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest.to_dict(), fh, indent=2)

    cache.publish(key, build)
    return manifest


def load_artifact(key, cache_dir=None):
    """Load an artifact by key; raises ``KeyError`` when absent."""
    loaded = artifact_cache(cache_dir).fetch(key, _load_entry)
    if loaded is None:
        raise KeyError(f"no artifact {key!r} in {artifact_cache(cache_dir).root}")
    manifest, state = loaded
    return ServingArtifact(manifest=manifest, state=state)


def list_artifacts(cache_dir=None):
    """Manifests of every complete artifact, sorted by key (lock-free)."""
    cache = artifact_cache(cache_dir)
    manifests = []
    if not os.path.isdir(cache.root):
        return manifests
    for name in sorted(os.listdir(cache.root)):
        if name.endswith((".lock", ".staging")) or ".tmp." in name:
            continue
        if not cache.complete(name):
            continue
        payload = read_json(os.path.join(cache.entry_path(name), "manifest.json"))
        if payload is None:
            continue
        manifests.append(parse("serving.artifact_manifest", payload))
    return manifests


# ----------------------------------------------------------------------
# Capture internals
# ----------------------------------------------------------------------
def _strip_activation_quantizers(model):
    """Deep-copy ``model`` without its ``_QuantizedOutput`` wrappers.

    Returns ``(base_model, ActivationQuantV1 | None)``.  The unwrap
    walk mirrors ``insert_activation_quantizers``'s wrap walk over
    ``_modules`` exactly, so the captured range order matches the order
    a rebuilt model's fresh quantizers are created in.
    """
    clone = copy.deepcopy(model)
    quantizers = []
    _unwrap_in_place(clone, quantizers)
    if not quantizers:
        return clone, None
    bits = quantizers[0].scheme.bits
    symmetric = quantizers[0].scheme.symmetric
    for fq in quantizers:
        if fq.calibrating or not fq.observer.calibrated:
            raise ValueError(
                "cannot publish a model with uncalibrated activation "
                "quantizers — run calibrate()/freeze() first"
            )
        if fq.scheme.bits != bits or fq.scheme.symmetric != symmetric:
            raise ValueError(
                "cannot publish mixed activation-quantizer schemes: "
                f"{fq.scheme.bits}b/sym={fq.scheme.symmetric} vs "
                f"{bits}b/sym={symmetric}"
            )
    activation = ActivationQuantV1(
        bits=int(bits),
        symmetric=bool(symmetric),
        lows=[float(fq.observer.low) for fq in quantizers],
        highs=[float(fq.observer.high) for fq in quantizers],
    )
    return clone, activation


def _unwrap_in_place(module, quantizers):
    for name, child in list(module._modules.items()):
        if isinstance(child, _QuantizedOutput):
            quantizers.append(child.fq)
            setattr(module, name, child.layer)
        else:
            _unwrap_in_place(child, quantizers)


def _weights_digest(state):
    """sha256 over names, dtypes, shapes and raw bytes of the state dict."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _content_key(spec, bn_folded, weight_quant, activation, weights_sha):
    """16-hex content key (volatile fields — created_at, source — excluded)."""
    payload = {
        "model": spec.to_dict(),
        "bn_folded": bn_folded,
        "weight_quant": None if weight_quant is None else weight_quant.to_dict(),
        "activation_quant": None if activation is None else activation.to_dict(),
        "weights_sha256": weights_sha,
    }
    raw = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _state_dtype(state):
    """The one floating dtype of the stored weights (the policy's if none).

    A state dict holding two floating dtypes raises ``ValueError``: the
    manifest names one dtype, and it must be every stored array's.
    """
    dtypes = sorted(
        {str(a.dtype) for a in state.values() if np.issubdtype(a.dtype, np.floating)}
    )
    if len(dtypes) > 1:
        raise ValueError(
            f"cannot publish weights in mixed floating dtypes {' and '.join(dtypes)}; "
            "cast the model to one precision first"
        )
    if dtypes:
        return dtypes[0]
    from ..tensor import default_dtype

    return str(np.dtype(default_dtype()))


def _load_entry(path):
    payload = read_json(os.path.join(path, "manifest.json"))
    manifest = parse("serving.artifact_manifest", payload)
    with np.load(os.path.join(path, "weights.npz")) as archive:
        state = {name: archive[name] for name in archive.files}
    return manifest, state
