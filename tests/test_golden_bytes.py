"""Output bytes pinned at small sizes.

The digests were recorded before ground-truth jumps moved to arrays and the
per-path estimator sums were fused; any change to a draw, a formula or the
order of a sum shows up here as a different sha256. Change a pin only with a
change that is meant to change output bytes.
"""

import hashlib
import os

import pytest

from jumpsift import ExperimentConfig, Model1, ThresholdSpec, jump_size_clt_experiment
from jumpsift.cli import main

SMALL = ["--paths", "6", "--n", "400", "--seed", "11", "--parallelism", "1"]

MC_DIGESTS = {
    ("mc", "model1-desk"): {
        "summary.json": "0d39afc78fb2fa35cff62df0cd6fdb1046a60651e604d87b50cadb67d7cbeb77",
        "hist.csv": "44e4707efb1fe98cbb4a58cec08fa41db44bf8f95fffcddc4d08567adf59213e",
    },
    ("mc", "model2-desk"): {
        "summary.json": "3232169fe0f84e1cb5045712260cfe183f3fa97df80706de2246029c37c18211",
        "hist.csv": "3e2219acfb46edd1aa4e62cc141b33366917c91bb8f3d3aed45cb676f298eb06",
    },
    ("mc", "model3-desk"): {
        "summary.json": "a47816ac0046c424f33f3198c5a96ed1f1cdd3643a081c2af84345abfb68b299",
        "hist.csv": "b2d49088a64436ecbdd89ca8b4b178ec572fa13144b68f942c62b35846f6a8f0",
    },
    ("compare", "diffusion-desk"): {
        "efficiency.csv": "3b4258834ce89ce8ffed07dc492d0ce5ed0d95f5b18daa1cab0097e520805f65",
    },
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outputs(tmp_path, argv, names):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    return {name: _sha256(os.path.join(tmp_path, name)) for name in names}


@pytest.mark.parametrize("command,preset", sorted(MC_DIGESTS))
def test_golden_bytes_per_preset(tmp_path, command, preset):
    expected = MC_DIGESTS[(command, preset)]
    got = _outputs(tmp_path, [command, "--preset", preset] + SMALL, expected)
    assert got == expected


def test_golden_bytes_irregular_grid(tmp_path):
    """Jittered grid: per-interval thresholds, no normality block."""
    got = _outputs(tmp_path, ["mc", "--preset", "model1-desk", "--jitter", "0.3"] + SMALL,
                   ["summary.json"])
    assert got == {"summary.json":
                   "a3c30940d7554bea626506697e280754090fadd6c9f43d5a13e66c7850fddcc6"}


def test_golden_bytes_simulate_and_detect(tmp_path):
    assert main(["simulate", "--preset", "model2-desk", "--n", "400", "--seed", "11",
                 "--out", str(tmp_path)]) == 0
    path_csv = os.path.join(tmp_path, "path.csv")
    assert _sha256(path_csv) == \
        "22755d7276e21b41fa4611f3b0feda492a122b4a18081b4492e686d65ec27dc2"
    got = _outputs(tmp_path, ["detect", "--in", path_csv], ["detection.csv", "report.json"])
    assert got == {
        "detection.csv": "09f70e0ed577e2f33c434a3fba35ef4a515836c600440337c6b93876b4a5aa06",
        "report.json": "4531b62eb1cae8b8db516dd0639daaac516ab4f4edc5624b3e76edcb5e146d3e",
    }


def test_golden_bytes_jump_size_law():
    cfg = ExperimentConfig(Model1(), ThresholdSpec(0.9), n=400, n_paths=6, base_seed=11)
    res = jump_size_clt_experiment(cfg)
    assert hashlib.sha256(res.samples.tobytes()).hexdigest() == \
        "57317f06e55ff2b13b820221bc291da3d8c37b440aa254d9e700eeda4274175c"
    assert res.ks_statistic == 0.2760296619889244
