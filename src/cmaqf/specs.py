"""The config schema: the dataclass of each config block is its schema.

A block is ``{"type": name, **fields}``.  :data:`TYPES` maps the ``type``
names of the ``levy``, ``kernel`` and ``b`` blocks to their classes, whose
init fields are the block's keys, required where they have no default.  The
derived kernels are named only so that :func:`spec`, the inverse of building
a block, can write every kernel into a provenance hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .covariance import FiniteSupport, PowerDecay
from .kernels import CarmaKernel, ExponentialOU, FractionalNoise, LinComboKernel, PowAbsKernel, SddeKernel, TabulatedKernel
from .levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal

__all__ = ["TYPES", "fields", "spec"]

TYPES = {
    "levy": {
        "brownian_motion": BrownianMotion,
        "compound_poisson_normal": CompoundPoissonNormal,
        "bilateral_gamma": BilateralGamma,
    },
    "kernel": {
        "exponential_ou": ExponentialOU,
        "carma": CarmaKernel,
        "fractional_noise": FractionalNoise,
        "sdde": SddeKernel,
        "tabulated": TabulatedKernel,
    },
    "b": {"finite_support": FiniteSupport, "power_decay": PowerDecay},
    "derived": {"lin_combo": LinComboKernel, "pow_abs": PowAbsKernel},
}

_NAMES = {cls: name for table in TYPES.values() for name, cls in table.items()}


def fields(cls) -> dict[str, bool]:
    """The init fields of ``cls``, each mapped to whether it is required."""
    missing = dataclasses.MISSING
    return {f.name: f.default is missing and f.default_factory is missing for f in dataclasses.fields(cls) if f.init}


def spec(obj) -> dict:
    """``{"type": name, **init fields}`` of a registered object, in JSON-ready form."""
    return {"type": _NAMES[type(obj)], **{name: _plain(getattr(obj, name)) for name in fields(type(obj))}}


def _hash(obj) -> str:
    """Provenance hash of a JSON-ready object: the first 16 hex digits of the sha256 of its sorted JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _plain(value):
    if type(value) in _NAMES:
        return spec(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value
