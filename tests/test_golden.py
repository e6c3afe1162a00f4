"""Golden digests: the bytes of three small runs, pinned across versions.

The determinism tests compare two runs of the same code, so they cannot see
a refactor that silently changes outputs.  These tests pin the SHA-256 of
each deterministic artifact instead.  A change that shifts a digest on
purpose updates the pinned value in the same commit and says why in
CHANGES.md.

The pinned artifacts are metrics.csv, checkpoint.bin, report.csv and
participation.csv (the post-hoc privacy log, whose bytes depend only on
cohort selection), plus secagg.csv for the SecAgg run.  The configs are the
adaptive and SecAgg configs of test_harness.py, plus the adaptive one with a
fixed clip norm; the adaptive and fixed-clip runs select the same cohorts, so
their participation.csv digests agree.  Each run takes about 0.1 s.

The accountant's wide-table path is pinned the same way: the min_sep 1000
sweep row, as harness.sweep_privacy writes it, and the two test_11 rho
values, compared with ==.
"""

import hashlib

import pytest

from fpsim import (
    ExperimentConfig,
    ParticipationSchema,
    SweepConfig,
    run_experiment,
    sweep_privacy,
    zcdp,
)

ADAPTIVE_CONFIG = """
seed = 7
rounds = 12
report_goal = 8
population = 120
timer_rounds = 3
noise_multiplier = 0.5
model.vocab_size = 10
data.examples_per_client = 30
data.eval_examples = 200
clip.mode = adaptive
clip.c0 = 0.4
restart.mode = explicit
restart.rounds = 5, 9
"""

FIXED_CONFIG = ADAPTIVE_CONFIG.replace("clip.mode = adaptive", "clip.mode = fixed")

SECAGG_CONFIG = """
seed = 3
rounds = 10
report_goal = 6
population = 60
timer_rounds = 4
noise_multiplier = 0.8
model.vocab_size = 8
data.examples_per_client = 10
data.eval_examples = 100
clip.mode = fixed
clip.c0 = 0.5
secagg.enabled = true
restart.mode = explicit
restart.rounds = 6
"""

GOLDEN = {
    "adaptive": (
        ADAPTIVE_CONFIG,
        {
            "metrics.csv": "90cbfa514d2c608e4152b9ef9b5d1f3c533162f89ffdf3ab2ea0570aa78acce3",
            "checkpoint.bin": "21761255383aec6563d0a8cf8874bd2ee4c0594ce3e1395e73017d2655d2f0a6",
            "report.csv": "1e1b613fcae33d55b7ed7a5aab992e96b42bd75c5cbb8300b47b1b7c75398feb",
            "participation.csv": "51e83eb51ef2a9609e1246969536d14b66f469e93f179fe350a7ae071bc6163d",
        },
    ),
    "fixed": (
        FIXED_CONFIG,
        {
            "metrics.csv": "c94a516ce6899801f705948e89a10fe30b6a25e2e3a04de1a8c09d511de16647",
            "checkpoint.bin": "ac68ff66cd0de82306177e6124280b78c3c95b3a88cf44ec3fe2605b3c5ce2ef",
            "report.csv": "9ac8c4d9ddd799ba5a12bfb8d9aa03617d197304a78438c5c7db6d6ae23af59c",
            "participation.csv": "51e83eb51ef2a9609e1246969536d14b66f469e93f179fe350a7ae071bc6163d",
        },
    ),
    "secagg": (
        SECAGG_CONFIG,
        {
            "metrics.csv": "e772d7faab5be4a7e571cf61f4187d0316a3305ccd4c61fe1ddc635801c2b593",
            "checkpoint.bin": "593f128690a1727c34e82b2ca00a24e1e7575615a02254f7dac180fa2894f493",
            "report.csv": "11cb4e404c44f33a2bd5b3c84e4de1d0303f0265da06ba006e381bf571cdb063",
            "participation.csv": "bc079d68c703287a21dc50dbac1b8036e1606a30854638dc7a3699ef8f11766d",
            "secagg.csv": "2c3aa49679d926133e8087f613663391863293826419b147184e2e051b278198",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests_pinned(name, tmp_path):
    text, expected = GOLDEN[name]
    run_experiment(ExperimentConfig.from_text(text), tmp_path)
    got = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in expected
    }
    assert got == expected


def test_wide_sweep_row_pinned(tmp_path):
    """One 2048-round tree at min_sep 1000: 1000-wide DP tables."""
    grid = SweepConfig(z=7.0, report_goal=100, population=100_000, rounds=(2048,))
    rows = sweep_privacy(grid, tmp_path / "sweep.csv")
    assert rows == [(2048, 100, 7.0, 1000, 3, 0.4489795918367347)]


def test_production_schema_rho_pinned():
    """test_11's schema (min_sep 313, at most 7 participations), with the
    periodic restarts and as one segment."""
    restarts = (128, 1152)
    assert zcdp(7.0, ParticipationSchema(2048, 313, 7, restarts)) == 0.8877551020408163
    assert zcdp(7.0, ParticipationSchema(2048, 313, 7, ())) == 1.530612244897959
