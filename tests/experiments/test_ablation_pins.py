"""Pinned results of the two ablations that leave counter mode's
prefetch-free machine.

``encryption_mode_comparison`` runs every policy under CBC and
``prefetch_sweep`` runs them with a stream prefetcher, so each
evaluation path a CBC or prefetching member can take must reproduce
these averages exactly.  The values are literal: they were produced by
the per-policy legacy simulator, the reference model.
"""

from repro.experiments import ablations

SMALL = dict(benchmarks=("gzip", "swim"), num_instructions=2000,
             warmup=1000)


def test_encryption_mode_comparison_pinned():
    assert ablations.encryption_mode_comparison(**SMALL) == {
        "ctr": {"decrypt-only": 0.13240309224805719,
                "authen-then-issue": 0.11754302868955241,
                "authen-then-commit": 0.12375512585933132},
        "cbc": {"decrypt-only": 0.0755435519299546,
                "authen-then-issue": 0.06260572273981248,
                "authen-then-commit": 0.06846583369887813},
    }


def test_prefetch_sweep_pinned():
    assert ablations.prefetch_sweep(degrees=(0, 2, 4), **SMALL) == {
        0: {"decrypt-only": 0.13240309224805719,
            "authen-then-issue": 0.11754302868955241,
            "authen-then-commit": 0.12375512585933132},
        2: {"decrypt-only": 0.1598406569207137,
            "authen-then-issue": 0.1481174469907215,
            "authen-then-commit": 0.15206937108134963},
        4: {"decrypt-only": 0.18652171138673607,
            "authen-then-issue": 0.17315747998838704,
            "authen-then-commit": 0.1764852245139757},
    }
