"""Byte-identity goldens: the SHA-256 of the stdout of commands whose exact
values carry large denominators (q = 9/10, D up to 40). The digests were
taken before polynomials moved to integer numerators over one common
denominator (the phi_q_delta digest: before exp(h G d) became the
conjugated Taylor shift; the degree-40 projection and the q = 1/3 verify:
before spectral diagonals read cached dual-basis rows and realizations were
memoized); any change in a printed value, its order or its spelling
changes them."""

import hashlib

import pytest

from qdeform.cli import main

# a fixed degree-40 polynomial with small rational coefficients
POLY_40 = (
    "3*x^40-1*x^39+2*x^37-3*x^36+1/4*x^35+5/3*x^34-1*x^33+2*x^32-5/4*x^31"
    "-1/3*x^30+3/2*x^29-4*x^28+4/3*x^26-3/2*x^25+1*x^24+5/4*x^23-2/3*x^22"
    "+1*x^21-5*x^20-1/4*x^19+1*x^18-2*x^17+1*x^15-1*x^14+1/2*x^13+5*x^12"
    "-1/2*x^11+2/3*x^10-5/2*x^9-1*x^8+3/4*x^7-4/3*x^6+4*x^4-3/4*x^3+1/3*x^2"
    "+5/2*x-2"
)

GOLDENS = [
    pytest.param(
        ["basis", "phi_delta_q", "40", "--q=9/10", "--delta=1/2", "--degree", "40"],
        "7238d0da009b679fa2b5d32d404d486fffac8ae68857a750d79efaf4a0489cab",
        id="basis",
    ),
    pytest.param(
        # the images of phi_q_delta carry exp(delta Dq), the conjugated shift
        ["basis", "phi_q_delta", "40", "--q=9/10", "--delta=1/2", "--degree", "40"],
        "b377f860f710fa63cd3fe9e385724f4352aadf796fec7cbde9d9909b4eb79d84",
        id="basis-phi_q_delta",
    ),
    pytest.param(
        ["hahn", "q_deformed", "--alpha=1/2", "--beta=1/3", "--N=45", "--q=9/10",
         "--kmax", "24", "--degree", "24"],
        "d9a41ab48199481a66b97fe142cfb4a862dcb9323ce3bc78cc323b883957035f",
        id="hahn",
    ),
    pytest.param(
        ["realize", "Ddelta*xdelta-xdelta*Ddelta", "--delta=1/3", "--degree", "40"],
        "e479cea86912d8e63fbf83bb29199a3b2676f5f8c42220fde9fc72e60d52230f",
        id="realize",
    ),
    pytest.param(
        ["verify", "all", "--q=-9/10", "--delta=3/2", "--degree", "16"],
        "cada90053b48beff603b49e6c4c64de5527be8528b24b4db2bda59af6369e839",
        id="verify",
    ),
    pytest.param(
        # |0>..|40> of phi_delta_q apply qb(B) in phi_delta's adapted basis
        ["project", "phi_delta_q", POLY_40, "--q=9/10", "--delta=1/2", "--degree", "40"],
        "ce4cbec2df5720ce440fe40134eda1f340256207d0654a8e6952885c04f2e8a7",
        id="project",
    ),
    pytest.param(
        # a small-denominator q, where suites realize the constructors' checks again
        ["verify", "all", "--q=1/3", "--delta=-1/2", "--degree", "16"],
        "0437d4fa4520beac2668accbc69f1af4b716fa6645ce5e527bf5fbb5f1531a54",
        id="verify-small-q",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDENS)
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
