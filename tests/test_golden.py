"""Golden sha256 digests of CLI artifacts and stdout for small fixed runs.

Each case runs ``cli.main`` in process into a fresh output directory. The
digest of every artifact and of stdout (with the output path replaced by
``<out>``) must match the pinned value, so a refactor that changes one byte
of a run fails here. A change that means to move a number updates the
digest and says so in CHANGES.md.

To print the digests of the cases the current code moves::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.print_digests()"
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import oracles
from topoprobe.cli import main

# name -> (argv without --out, config file payload or None)
CASES = {
    "validate-ising": (["validate", "--model", "ising"], None),
    "validate-fibonacci": (["validate", "--model", "fibonacci"], None),
    "validate-semion": (["validate", "--model", "semion"], None),
    "interfere-detuned": (
        ["interfere", "--probes", "50", "--trials", "20", "--seed", "7"],
        {"theta_I": 0.4},
    ),
    "interfere-diagonal": (
        ["interfere", "--probes", "12", "--trials", "4", "--seed", "5"],
        {"theta_I": 1.1, "initial_state": {"diagonal": [0.25, 0.75]}},
    ),
    "interfere-complex": (
        ["interfere", "--probes", "12", "--trials", "4", "--seed", "9"],
        {"theta_II": -0.7, "t1": [0.6, 0.0], "r1": [0.0, 0.8],
         "initial_state": {"amplitudes": [[0.6, 0.2], [-0.1, 0.5]]}},
    ),
    "twisted-default": (["twisted", "--trials", "200", "--seed", "3"], None),
    "twisted-complex": (
        ["twisted", "--trials", "200", "--seed", "4"],
        {"initial_state": {"amplitudes": [[math.cos(0.3), 0.0], [0.0, math.sin(0.3)]]}},
    ),
    "protocol": (["protocol"], None),
    "sweep-delta": (
        ["sweep", "--param", "delta", "--from", "0", "--to", "3", "--steps", "7"],
        {"initial_state": {"diagonal": [0.4, 0.6]}},
    ),
    "dump-ising": (["dump"], None),
    "dump-fibonacci": (["dump", "--model", "fibonacci"], None),
}

GOLDEN = {
    "validate-ising": {
        "validation.json": "2f6480e79c4e469d6b88a75b596a25071303381f6bfadd38efbb56f3ea573480",
        "stdout": "b92583835ccb50d6f7a8192dc74753301a10e7ef55c13fe54701c2d8a6e5e3f1",
    },
    "validate-fibonacci": {
        "validation.json": "9661342b41e14742cab3865226ecbc0d7068a62f65e75ce7966ee23cae2b52ec",
        "stdout": "f9ed095deb996a9c304565c301e0bdcffa719541e504b42af63d9fb483c02f69",
    },
    "validate-semion": {
        "validation.json": "d74c89a99d34f3f410400a0e03eb8389a4e17ee7b7fef1ebf9adc2a425be1328",
        "stdout": "820dd488c1e7842044d92aea180c3262d41014dc02efca1d98f39cb6ca055d09",
    },
    "interfere-detuned": {
        "asymptotic.json": "a2106f9907efcac40b3dbe67c9ba6266c281e833013ab8e175fa570164418ce1",
        "summary.csv": "2f43c807f4f2cb247d5ef8a38a79ca200c842cf6dfbcf725b87ca6590852a96b",
        "trajectories.jsonl": "7a5da7a4dfa11d6c787b0a76446dd373660dd6930bccc46982bbfdd817a7e96f",
        "stdout": "df6a3d3d2bc4759058ec937fd44f64525221b7c5298006c4777d2d46188cdb2a",
    },
    "interfere-diagonal": {
        "asymptotic.json": "4efec71afdafff447928627b21ba313998dae4ef7337bea9cb7a9bb004f5918b",
        "summary.csv": "cbb1f13804f33b1e5935dd87c8cbf0c3a7e3ce4b3d85381b774f8e8b9a7a3c16",
        "trajectories.jsonl": "864a6344171d6b7e3d70c5a803170ddd6a50093d6bc4fc393a12d88b8a12d265",
        "stdout": "35dec39069a8351e26bea9d7c7c0682a6d8c325e30268ec519351ad6d8064ddc",
    },
    "interfere-complex": {
        "asymptotic.json": "c6bc6963b4b68f643e4b7cd28193b4f2c6868f3be8b4b2c8d2699bd466e13158",
        "summary.csv": "73ede099aa1b8b975cd6a2093a673caac6b67ff95a3448cc738acebba51b3592",
        "trajectories.jsonl": "0403607fb017a2549faf9c4d38d25619b7cacb46dd35e66b141e9445a43e2b43",
        "stdout": "2c88dfa45e7993d6738f9fb93290c74f9b8273bd43ad85ab1950317fd20d911c",
    },
    "twisted-default": {
        "twisted.json": "743d113c797f619259265648a9789feaa07207d0291c98d6ae5018705e73188b",
        "stdout": "788d40f455fff6322a0ddcd55574992ff8ee9060f17deaeff450917e77defb67",
    },
    "twisted-complex": {
        "twisted.json": "b8a8c7c8ad2bc97443c5a682da7d2e0311613b2f30b403383451bd9f6d19e5e9",
        "stdout": "1413446ad4c66c625f5db60c31ecf81110f5a8a58b2d0581f23e87062a67b7fe",
    },
    "protocol": {
        "protocol.json": "3159a30077e45ff5f5db6e25076dfa7d8de3e9e3f48d14a701c18792eaf6f13a",
        "stdout": "65c4432e42a74d9398743d9554965ebdca080aed6a49c58f36b01791ee285514",
    },
    "sweep-delta": {
        "sweep.csv": "09652ed51f9ac6be83ec8f3b558c1903299f36a92cf1f9781df0b0c231c1651c",
        "stdout": "27960126bc587e4e5e9cf33c6a934453124eeebc447d314773b814d93052b9e8",
    },
    "dump-ising": {
        "matrices.json": "b6d63c50b1254f634a32ea81c43e61d077656addb2d6cf1d4c4543bac8b1e663",
        "stdout": "ad848722b2632bf65c0e4462c0aee8e5533375b627f73d1341c547c6a0319efe",
    },
    "dump-fibonacci": {
        "matrices.json": "85d198ee9b48fb13e86d0013bd3b4f347ff1edfb950380f3821688e683bd0449",
        "stdout": "ad848722b2632bf65c0e4462c0aee8e5533375b627f73d1341c547c6a0319efe",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, root: Path) -> tuple[int, dict]:
    """Exit code and {artifact name or "stdout": sha256} of one case."""
    argv, config = CASES[name]
    work = root / name
    work.mkdir()
    out = work / "out"
    argv = [*argv, "--out", str(out)]
    if config is not None:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert stderr.getvalue() == ""
    digests = {path.name: _sha(path.read_bytes()) for path in sorted(out.iterdir())}
    digests["stdout"] = _sha(stdout.getvalue().replace(str(out), "<out>").encode())
    return code, digests


def print_digests():
    """Print the entry of each case whose digests differ from GOLDEN, naming the moved files."""
    unchanged = 0
    with tempfile.TemporaryDirectory() as root:
        for name in CASES:
            code, digests = run_case(name, Path(root))
            assert code == 0, name
            pinned = GOLDEN.get(name, {})
            moved = sorted(key for key in digests.keys() | pinned.keys() if digests.get(key) != pinned.get(key))
            if moved:
                print(f"    # moved: {', '.join(moved)}")
                print(f"    {name!r}: {digests!r},")
            else:
                unchanged += 1
    print(f"{unchanged} of {len(CASES)} cases unchanged")


@pytest.mark.parametrize("name", list(CASES))
def test_cli_run_matches_its_golden_digests(tmp_path, name):
    code, digests = run_case(name, tmp_path)
    assert code == 0
    assert digests == GOLDEN[name]


def _complex_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


@pytest.mark.parametrize("name", ["twisted-default", "twisted-complex"])
def test_the_golden_twisted_runs_match_the_closed_form(tmp_path, name):
    code, _ = run_case(name, tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / name / "out" / "twisted.json").read_text())
    rho = _complex_matrix(payload["initial"])
    for outcome, vacuum in (("I", True), ("psi", False)):
        probability, state = oracles.twisted_closed_form(rho, vacuum)
        written = payload["conditioned"][outcome]
        assert abs(written["probability"] - probability) <= 1e-15
        assert np.max(np.abs(_complex_matrix(written["state"]) - state)) <= 1e-15
