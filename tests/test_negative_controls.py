"""Negative controls: the design-dependent claims fail on a mere 1-design.

The d=2 Pauli group {X^a Z^b} is a unitary 1-design with frame potential
4, not 2.  With the verification flag forced on, every check that relies
on the 2-design property must miss by a clear margin.
"""

import numpy as np
import pytest

from zecheck.channel import build_channel, output_overlap, random_block_state
from zecheck.designs import (
    UnitaryFamily,
    _canonical_phases,
    clock,
    frame_potential,
    shift,
    verify_two_design,
)
from zecheck.suites import case_rng
from zecheck.zero_error import (
    averaged_output_overlap,
    design_average_overlap_operator,
    overlap_operator,
)


def pauli_family() -> UnitaryFamily:
    x, z = shift(2), clock(2)
    members = _canonical_phases(np.stack([
        np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        for a in range(2)
        for b in range(2)
    ]))
    return UnitaryFamily(d=2, members=members, weights=np.full(4, 0.25))


def bypassed() -> UnitaryFamily:
    fam = pauli_family()
    fam.verified = True
    return fam


def test_pauli_group_is_not_a_two_design():
    fam = pauli_family()
    assert frame_potential(fam) == pytest.approx(4.0)
    assert not verify_two_design(fam)
    assert not fam.verified
    with pytest.raises(ValueError):
        build_channel(2, fam)


def test_pauli_group_breaks_closed_form_operator():
    gap = float(np.abs(design_average_overlap_operator(bypassed()) - overlap_operator(2)).max())
    assert gap > 0.1


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_group_breaks_central_identity(n):
    fam = bypassed()
    ch = build_channel(2, fam)
    worst = 0.0
    for case in range(10):
        rng = case_rng(1, "channel", case)
        p1 = random_block_state(2, n, rng)
        p2 = random_block_state(2, n, rng)
        lhs = (len(fam) ** n) * output_overlap(ch, p1, p2)
        worst = max(worst, abs(lhs - averaged_output_overlap(p1, p2)))
    assert worst > 0.05
