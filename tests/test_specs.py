import copy
import json
import math

import numpy as np
import pytest

from cmaqf import simulate, specs
from cmaqf.covariance import FiniteSupport, PowerDecay
from cmaqf.errors import ParameterError
from cmaqf.kernels import (
    ExponentialOU,
    FractionalNoise,
    LinComboKernel,
    PowAbsKernel,
    SddeKernel,
    TabulatedKernel,
    build_carma,
)
from cmaqf.levy import BilateralGamma, BrownianMotion, CompoundPoissonNormal

_TS = np.arange(0, 129) * 0.25

# one object of every registered type
OBJECTS = {
    "brownian_motion": BrownianMotion(1.5),
    "compound_poisson_normal": CompoundPoissonNormal(2.0, 0.5),
    "bilateral_gamma": BilateralGamma(1.5, 2.0),
    "exponential_ou": ExponentialOU(0.8),
    "carma": build_carma((3.0, 2.0), (3.0, 1.0), 1),
    "fractional_noise": FractionalNoise(0.1),
    "sdde": SddeKernel(atoms=[(0.5, -1.0)], horizon=8.0, step=0.25),
    "tabulated": TabulatedKernel(t0=0.0, step=0.25, values=np.exp(-_TS)),
    "finite_support": FiniteSupport((1.0, 0.5)),
    "power_decay": PowerDecay(1.0, 1.5, 1.0),
    "lin_combo": LinComboKernel(ExponentialOU(1.0), (0.0, 1.0), (1.0, -0.5)),
    "pow_abs": PowAbsKernel(ExponentialOU(1.0), 2.0),
}


def build(block: dict):
    """The object a spec describes, nested kernels included."""
    cls = {name: cls for table in specs.TYPES.values() for name, cls in table.items()}[block["type"]]
    return cls(**{k: build(v) if isinstance(v, dict) else v for k, v in block.items() if k != "type"})


def test_every_registered_type_is_covered():
    assert set(OBJECTS) == {name for table in specs.TYPES.values() for name in table}


def test_building_from_a_spec_gives_back_the_spec():
    for name, obj in OBJECTS.items():
        spec = specs.spec(obj)
        assert spec["type"] == name
        again = json.loads(json.dumps(spec))  # JSON-ready: survives a round trip unchanged
        assert again == spec, name
        assert specs.spec(build(again)) == spec, name


def test_fields_mark_fields_without_default_as_required():
    assert specs.fields(LinComboKernel) == {"base": True, "shifts": True, "coeffs": True}
    assert specs.fields(TabulatedKernel) == {"t0": True, "step": True, "values": True}


# provenance hashes of simulate_path, kept from before the specs module wrote them;
# the combination's is its value from before its spec had truncation_bound, which is gone
PROVENANCE = {
    "exponential_ou": ("bed2be0903ce297c", "24228758ab6f5e86"),
    "carma": ("bed2be0903ce297c", "46b0659f413632da"),
    "fractional_noise": ("70e399409f279ebf", "b3b3cb6eaa13fc76"),
    "sdde": ("bed2be0903ce297c", "309a04d3e24c2617"),
    "tabulated": ("bed2be0903ce297c", "849d6714b6d0c885"),
    "lin_combo": ("bed2be0903ce297c", "3a7829be47f4f8bc"),
    "pow_abs": ("bed2be0903ce297c", "71253ad0427673cd"),
}
MODEL_HASHES = {
    "brownian_motion": "034ff21fc1c1ff4e",
    "compound_poisson_normal": "ce7dc4970049039f",
    "bilateral_gamma": "b3a955a8dfd02728",
}


def test_provenance_hashes_are_pinned():
    cfg = simulate.PathConfig(delta=1.0, n=8, fine_steps=4, seed=3)
    for name, (config_hash, kernel_hash) in PROVENANCE.items():
        prov = simulate.simulate_path(OBJECTS[name], OBJECTS["brownian_motion"], cfg).provenance
        assert (prov["config"], prov["kernel"], prov["model"]) == (config_hash, kernel_hash, MODEL_HASHES["brownian_motion"]), name
    for name, model_hash in MODEL_HASHES.items():
        prov = simulate.simulate_path(OBJECTS["exponential_ou"], OBJECTS[name], cfg).provenance
        assert prov["model"] == model_hash, name


def _numbers_in(value, at=()):
    """Index paths to the numbers of a spec value: each number of a short list, the two ends of a long one."""
    if isinstance(value, list):
        for i in range(len(value)) if len(value) <= 4 else (0, len(value) - 1):
            yield from _numbers_in(value[i], at + (i,))
    elif not isinstance(value, dict):  # a nested kernel is tested as its own type
        yield at


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_every_model_parameter_rejects_a_value_that_is_not_finite(name, bad):
    # an infinite OU rate stalled eta2_sn, a NaN weight gave eta2_qn = nan or an OverflowError,
    # and other classes accepted the value or failed with LinAlgError, ZeroDivisionError or ValueError
    spec = specs.spec(OBJECTS[name])
    for key, value in spec.items():
        for at in _numbers_in(value) if key != "type" else ():
            block = copy.deepcopy(spec)
            *path, last = (key, *at)
            target = block
            for step in path:
                target = target[step]
            target[last] = bad
            with pytest.raises(ParameterError):
                build(block)
