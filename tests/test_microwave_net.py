import numpy as np
import pytest

from kipa_lab.errors import ConfigWarning
from kipa_lab.microwave_net import (
    LineSection,
    SifDesign,
    cascade_input_impedance,
    coupling_q,
    coupling_rate,
    effective_impedance,
    input_impedance,
    sif_sections,
)

F0 = 5.75e9


def reference_sif() -> SifDesign:
    return SifDesign(z_l=450.0, z_h=900.0, n_l=6, n_h=5, z_0=50.0, z_r=900.0, f_0=F0)


def quarter(z_f, f_design=F0) -> LineSection:
    return LineSection(z_f=z_f, electrical_length=0.25, f_design=f_design)


def test_quarter_wave_limit_example():
    z = input_impedance(quarter(900.0), 50.0, F0)
    assert z.real == pytest.approx(900.0**2 / 50.0, rel=1e-12)
    assert abs(z.imag) < 1e-6 * abs(z.real)


def test_half_wave_identity_example():
    sec = LineSection(z_f=777.0, electrical_length=0.5, f_design=F0)
    z = input_impedance(sec, 50.0, F0)
    assert z.real == pytest.approx(50.0, rel=1e-12)
    assert abs(z.imag) < 1e-9


def test_quarter_wave_property_random_impedances():
    rng = np.random.default_rng(99)
    for _ in range(100):
        z_f = rng.uniform(10.0, 2000.0)
        z_load = rng.uniform(1.0, 5000.0)
        z = input_impedance(quarter(z_f), z_load, F0)
        assert z.real == pytest.approx(z_f**2 / z_load, rel=1e-12)


def test_two_quarter_waves_reproduce_the_load():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z_f = rng.uniform(10.0, 2000.0)
        z_load = rng.uniform(1.0, 5000.0)
        z = cascade_input_impedance([quarter(z_f), quarter(z_f)], z_load, F0)
        assert z.real == pytest.approx(z_load, rel=1e-12)


def test_cascade_oracle_matches_closed_form():
    # Oracle: fold the quarter-wave transform Z -> Z_f^2/Z by hand over the
    # 11 alternating sections ending at the 50-ohm environment.
    sif = reference_sif()
    z = 50.0
    for sec in sif_sections(sif):
        z = sec.z_f**2 / z
    assert z == pytest.approx(3.9550781250000004, rel=1e-12)

    z_eff = effective_impedance(sif)
    assert z_eff == pytest.approx(z, rel=1e-12)

    z_cascade = cascade_input_impedance(sif_sections(sif), 50.0, F0)
    assert z_cascade.real == pytest.approx(z, rel=1e-9)
    assert abs(z_cascade.imag) < 1e-9 * z


def test_effective_impedance_oracle_equivalence_property():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n_h = int(rng.integers(0, 6))
        n_l = n_h + 1
        z_l = rng.uniform(100.0, 600.0)
        z_h = rng.uniform(z_l + 1.0, 1200.0)
        sif = SifDesign(z_l=z_l, z_h=z_h, n_l=n_l, n_h=n_h, z_0=50.0, z_r=900.0, f_0=F0)
        z = 50.0
        for sec in sif_sections(sif):
            z = sec.z_f**2 / z
        assert effective_impedance(sif) == pytest.approx(z, rel=1e-10)


def test_coupling_q_reference_design():
    assert coupling_q(reference_sif()) == pytest.approx(289.73, abs=0.01)
    assert abs(coupling_q(reference_sif()) - 290.0) <= 1.0


def test_coupling_q_unit_and_linearity():
    sif = reference_sif()
    z_eff = effective_impedance(sif)
    unit = SifDesign(z_l=450.0, z_h=900.0, n_l=6, n_h=5, z_0=50.0, z_r=z_eff * np.pi / 4.0, f_0=F0)
    assert coupling_q(unit) == pytest.approx(1.0, rel=1e-12)
    doubled = SifDesign(z_l=450.0, z_h=900.0, n_l=6, n_h=5, z_0=50.0, z_r=1800.0, f_0=F0)
    assert coupling_q(doubled) == pytest.approx(2.0 * coupling_q(sif), rel=1e-12)


def test_coupling_rate_reference_design():
    k = coupling_rate(reference_sif())
    assert k == pytest.approx(19.845876e6, rel=1e-6)
    assert abs(k - 19.8e6) <= 0.2e6


def test_coupling_rate_two_routes_agree():
    # coupling_rate computes (pi/4)(Z_eff/Z_r) f_0 directly; the route
    # through the quality factor, f_0/Q_c, must agree.
    sif = reference_sif()
    assert coupling_rate(sif) == pytest.approx(sif.f_0 / coupling_q(sif), rel=1e-12)


def test_coupling_rate_scales_with_z_eff():
    # One fewer mirror pair raises Z_eff by (Z_h/Z_l)^2 = 4 and kappa with it.
    sif = reference_sif()
    weaker = SifDesign(z_l=450.0, z_h=900.0, n_l=5, n_h=4, z_0=50.0, z_r=900.0, f_0=F0)
    ratio = effective_impedance(weaker) / effective_impedance(sif)
    assert ratio == pytest.approx(4.0, rel=1e-12)
    assert coupling_rate(weaker) == pytest.approx(4.0 * coupling_rate(sif), rel=1e-12)


def test_coupling_rate_vanishes_for_strong_mirror():
    strong = SifDesign(z_l=50.0, z_h=2000.0, n_l=7, n_h=6, z_0=50.0, z_r=900.0, f_0=F0)
    assert coupling_rate(strong) < 1.0  # essentially decoupled


def test_degenerate_no_mirror_warns():
    with pytest.warns(ConfigWarning):  # 0 sections also violates the topology rule
        sif = SifDesign(z_l=450.0, z_h=900.0, n_l=0, n_h=0, z_0=50.0, z_r=900.0, f_0=F0)
    with pytest.warns(ConfigWarning):
        z = effective_impedance(sif)
    assert z == pytest.approx(1.0 / 50.0, rel=1e-12)


def test_equal_impedances_collapse_to_single_transformer():
    with pytest.warns(ConfigWarning):
        sif = SifDesign(z_l=450.0, z_h=450.0, n_l=1, n_h=0, z_0=50.0, z_r=900.0, f_0=F0)
    assert effective_impedance(sif) == pytest.approx(450.0**2 / 50.0, rel=1e-12)


def test_topology_warning():
    with pytest.warns(ConfigWarning):
        SifDesign(z_l=450.0, z_h=900.0, n_l=5, n_h=5, z_0=50.0, z_r=900.0, f_0=F0)


@pytest.mark.parametrize("z_h, n_l", [(450.0, 6), (900.0, 5)], ids=["degenerate", "topology"])
def test_design_warnings_name_the_caller(z_h, n_l):
    """Each warning points at the line that builds the design, not at the
    dataclass-generated __init__ ("<string>")."""
    with pytest.warns(ConfigWarning) as rec:
        SifDesign(z_l=450.0, z_h=z_h, n_l=n_l, n_h=5, z_0=50.0, z_r=900.0, f_0=F0)
    assert [w.filename for w in rec] == [__file__]

def test_stopband_sweep_is_finite_off_resonance():
    sif = reference_sif()
    for f in np.linspace(0.5 * F0, 1.5 * F0, 101):
        z = cascade_input_impedance(sif_sections(sif), 50.0, float(f))
        assert np.isfinite(z.real) and np.isfinite(z.imag)
