"""Byte-identity goldens: the SHA-256 of the stdout of commands whose exact
values carry large denominators (q = 9/10, D up to 40). The digests were
taken before polynomials moved to integer numerators over one common
denominator (the phi_q_delta digest: before exp(h G d) became the
conjugated Taylor shift); any change in a printed value, its order or its
spelling changes them."""

import hashlib

import pytest

from qdeform.cli import main

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
]


@pytest.mark.parametrize("argv, digest", GOLDENS)
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
