"""Seeded generators: an int seed plants the bits of the Generator made from it.

Each generator passes ``rng`` to ``np.random.default_rng`` only when it draws
noise, and draws once, so ``seed`` and ``np.random.default_rng(seed)`` must
give the same x, y and sigma_y, with noise and without.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from kipa_lab import config, io_dynamics, synthetic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _plants(noisy: bool) -> dict:
    """name -> rng -> (sweep, truth), one per generator, from the bundled configs."""
    chain = config.parse_chain(_config("chain.json")["chain"])
    syn = _config("chain.json")["synthetic"]
    res = config.parse_device(_config("device.json")["device"]).resonator
    field = config.parse_field_model(_config("field.json")["field_model"])
    cav = config.parse_cavity(_config("gain.json")["cavity"])
    curve = io_dynamics.GainCurve.from_cavity(cav, np.linspace(5.6735e9 - 2e8, 5.6735e9 + 2e8, 101))
    return {
        "gain_sweep": lambda rng: synthetic.gain_sweep(cav, curve, 0.1 * noisy, rng),
        "noise_sweep": lambda rng: synthetic.noise_sweep(chain, syn["t_kipa_k"], syn["f_signal_hz"], syn["f_idler_hz"], None,
                                                         0.01 * noisy, rng),
        "hemt_sweep": lambda rng: synthetic.hemt_sweep(chain, syn["f_signal_hz"], None, 0.01 * noisy, rng),
        "compression_sweep": lambda rng: synthetic.compression_sweep(21.0, -90.0, 2.0, 5.0, np.linspace(-110.0, -70.0, 41),
                                                                     0.05 * noisy, rng),
        "clem_tuning_sweep": lambda rng: synthetic.clem_tuning_sweep(res, np.linspace(0.0, 0.9 * res.i_sw, 25), 1e-4 * noisy, rng),
        "field_shift_sweep": lambda rng: synthetic.field_shift_sweep(field, np.linspace(0.0, 6.0, 13), 1e-7 * noisy, rng),
    }


def _bits(sweep) -> tuple:
    return tuple(None if a is None else a.tobytes() for a in (sweep.x, sweep.y, sweep.sigma_y))


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("name", list(_plants(False)))
def test_int_seed_plants_the_bits_of_its_generator(name, noisy):
    plant = _plants(noisy)[name]
    for seed in (0, 12):
        by_seed, truth = plant(seed)
        by_generator, truth_g = plant(np.random.default_rng(seed))
        assert _bits(by_seed) == _bits(by_generator) and truth == truth_g
        assert (by_seed.sigma_y is not None) is noisy
