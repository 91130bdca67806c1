"""compare.py flags regressions against the bounds, and only those."""

import json
import os

import pytest

import compare


def result(wall_samples, seed=2006):
    return {"kind": "bench-result",
            "environment": {"seed": seed, "scale": "standard"},
            "digests": {"sweep": "abc"},
            "workloads": {"figures-cold": {"metrics": {
                "wall_s": {"samples": list(wall_samples)},
                "setup_s": {"samples": [0.2, 0.21, 0.2, 0.19]}}}}}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = [3.00, 3.02, 2.98, 3.01, 2.99, 3.03]


def test_identical_inputs_pass(tmp_path, capsys):
    a = write(tmp_path, "a.json", result(BASE))
    assert compare.main([a, a]) == 0
    assert "REGRESSION" not in capsys.readouterr().out


def wall_bound():
    with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as handle:
        specs = json.load(handle)["end_to_end"]
    return next(spec["bound"] for spec in specs if spec["name"] == "wall_s")


def test_wall_regression_beyond_the_bound_fails(tmp_path, capsys):
    a = write(tmp_path, "a.json", result(BASE))
    slower = 1 + wall_bound() + 0.05
    b = write(tmp_path, "b.json", result([x * slower for x in BASE]))
    assert compare.main([a, b]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_separated_wall_change_inside_the_bound_is_shown(tmp_path, capsys):
    a = write(tmp_path, "a.json", result(BASE))
    slower = 1 + wall_bound() - 0.05
    b = write(tmp_path, "b.json", result([x * slower for x in BASE]))
    assert compare.main([a, b]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out
    assert "figures-cold    worse" in out


def test_a_20_percent_wall_slowdown_is_flagged():
    verdict, worse = compare.verdict(BASE, [x * 1.2 for x in BASE],
                                     wall_bound(), "lower")
    assert verdict in ("worse", "REGRESSION")
    assert worse == pytest.approx(0.2)


def test_noisy_change_is_unresolved_not_a_regression():
    noisy_a = [1.0, 1.5, 2.0, 2.5, 3.0]
    noisy_b = [1.2, 1.8, 2.4, 3.0, 3.6]
    assert compare.verdict(noisy_a, noisy_b, 0.1, "lower")[0] == "unresolved"


def test_separated_samples_decide_despite_spread():
    a = [1.0, 1.4, 1.8]
    b = [2.5, 3.0, 3.5]
    assert compare.verdict(a, b, 0.1, "lower")[0] == "REGRESSION"
    assert compare.verdict(b, a, 0.1, "lower")[0] == "improved"


def test_higher_is_better_metrics_flip_the_sign():
    assert compare.verdict([100.0] * 3, [70.0] * 3, 0.1,
                           "higher")[0] == "REGRESSION"


def test_differing_sweep_digest_fails(tmp_path, capsys):
    a = write(tmp_path, "a.json", result(BASE))
    changed = result(BASE)
    changed["digests"]["sweep"] = "def"
    b = write(tmp_path, "b.json", changed)
    assert compare.main([a, b]) == 1
    assert "sweep results differ" in capsys.readouterr().out
