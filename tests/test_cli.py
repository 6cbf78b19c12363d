import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multifinsler.cli import dumps_stable, main
from multifinsler.config import ConfigError, load_config, parse_config

BIMETRIC = {
    "dimension": 2,
    "coordinates": ["x1", "x2"],
    "metrics": [
        {"name": "alpha", "components": [["1", "0"], ["0", "1"]]},
        {"name": "beta", "components": [["4", "0"], ["0", "1+x1^2"]]},
    ],
    "sampling": {"seed": 42, "count": 40, "box": [[-1, 1], [-1, 1]]},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "space.json"
    p.write_text(json.dumps(BIMETRIC))
    return str(p)


class TestConfig:
    def test_load_valid(self, config_path):
        cfg = load_config(config_path)
        assert cfg.dimension == 2
        assert cfg.sampling.seed == 42
        space = cfg.build_space()
        assert space.n_metrics == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/space.json")

    def test_dimension_mismatch(self):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][0]["components"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(bad)

    def test_unknown_identifier(self):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["components"] = [["x3", "0"], ["0", "1"]]
        with pytest.raises(ConfigError, match="unknown identifier"):
            parse_config(bad)

    def test_spd_probe(self):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][0]["components"] = [["1", "0"], ["0", "0-1"]]
        with pytest.raises(ConfigError, match="SPD"):
            parse_config(bad)

    def test_defaults(self):
        minimal = {
            "dimension": 2,
            "coordinates": ["x1", "x2"],
            "metrics": [{"name": "a", "components": [["1", "0"], ["0", "1"]]}],
        }
        cfg = parse_config(minimal)
        assert cfg.sampling.seed == 42
        assert cfg.sampling.count == 500
        assert cfg.sampling.box == ((-1.0, 1.0), (-1.0, 1.0))

    def test_tolerances_rejected(self):
        bad = {**BIMETRIC, "tolerances": {"fd": 1e-3}}
        with pytest.raises(ConfigError, match="--tol-scale"):
            parse_config(bad)

    def test_unknown_keys_rejected(self):
        bad = {**BIMETRIC, "samplng": BIMETRIC["sampling"]}
        with pytest.raises(ConfigError, match="samplng"):
            parse_config(bad)
        bad = {**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "cout": 10}}
        with pytest.raises(ConfigError, match="cout"):
            parse_config(bad)
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][0]["component"] = bad["metrics"][0]["components"]
        with pytest.raises(ConfigError, match="component"):
            parse_config(bad)


    def test_negative_seed_rejected(self, tmp_path, capsys):
        bad = {**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "seed": -1}}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(bad)
        p = tmp_path / "space.json"
        p.write_text(json.dumps(bad))
        assert main(["check", "--config", str(p), "--suite", "identities"]) == 2
        assert "sampling.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["-Infinity", "Infinity", "NaN"])
    def test_non_finite_box_rejected(self, tmp_path, bound, capsys):
        # Python's json accepts these tokens, so they reach parse_config as floats
        text = json.dumps(BIMETRIC).replace("[[-1, 1], [-1, 1]]", f"[[{bound}, 1], [-1, 1]]")
        p = tmp_path / "space.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            load_config(p)
        assert main(["validate", "--config", str(p)]) == 2
        assert "box" in capsys.readouterr().err

    def test_booleans_are_not_numbers(self):
        one_d = {
            "dimension": True,
            "coordinates": ["x1"],
            "metrics": [{"name": "a", "components": [["1"]]}],
            "sampling": {"box": [[-1, 1]]},
        }
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(one_d)
        for key, value in (("seed", True), ("count", True), ("box", [[False, 1], [-1, 1]])):
            bad = {**BIMETRIC, "sampling": {**BIMETRIC["sampling"], key: value}}
            with pytest.raises(ConfigError, match=key):
                parse_config(bad)


class TestCli:
    def test_validate(self, config_path, tmp_path, capsys):
        assert main(["validate", "--config", config_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_validate_round_trips_control_characters(self, tmp_path):
        cfg = json.loads(json.dumps(BIMETRIC))
        cfg["metrics"][0]["name"] = "al\npha\tone"
        p = tmp_path / "space.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "valid.json"
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["metrics"][0]["name"] == "al\npha\tone"

    def test_fiber_directions_need_2d(self, tmp_path, capsys):
        p = tmp_path / "line.json"
        p.write_text(json.dumps({
            "dimension": 1, "coordinates": ["t"],
            "metrics": [{"name": "a", "components": [["1+t^2"]]}],
            "sampling": {"box": [[-1, 1]]},
        }))
        assert main(["sample", "--config", str(p), "--grid", "2", "--directions", "2"]) == 2
        assert "dimension 1" in capsys.readouterr().err
        script = Path(__file__).resolve().parent.parent / "scripts" / "geodesic_fan.py"
        proc = subprocess.run([sys.executable, str(script), str(p), "--rays", "2",
                               "--out-dir", str(tmp_path / "fan")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "dimension 1" in proc.stderr and "Traceback" not in proc.stderr

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dimension": 2')
        code = main(["check", "--config", str(p), "--suite", "all"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_check_identities(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--config", config_path, "--suite", "identities", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        names = {c["check"] for c in rep["checks"]}
        assert "determinant-identity" in names
        assert "spray-factorized-vs-variational" in names
        for c in rep["checks"]:
            assert c["tolerance_class"] in ("analytic", "fd", "nested-fd")

    def test_sample_count_is_honoured(self, tmp_path):
        cfg = {**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "count": 501}}
        path, out = tmp_path / "space.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path), "--suite", "identities", "--out", str(out)]) == 0
        samples = {c["check"]: c["samples"] for c in json.loads(out.read_text())["checks"]}
        for name in ("norm-homogeneity", "euler-contractions", "horizontal-norm-compatibility",
                     "determinant-identity", "frame-orthonormality", "cartan-frame-factorization"):
            assert samples[name] == 501
        assert samples["fundamental-tensor-vs-hessian-oracle"] == 40

    def test_reports_are_byte_stable(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", "--config", config_path, "--suite", "identities", "--out", str(out1)])
        main(["check", "--config", config_path, "--suite", "identities", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["check", "--config", config_path, "--suite", "identities", "--out", str(out1)])
        main(["check", "--config", config_path, "--suite", "identities", "--seed", "7",
              "--out", str(out2)])
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert r1["seed"] == 42 and r2["seed"] == 7
        assert r1["passed"] and r2["passed"]

    def test_tol_scale(self, config_path, tmp_path):
        out = tmp_path / "r.json"
        main(["check", "--config", config_path, "--suite", "identities",
              "--tol-scale", "10", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["tolerance_scale"] == 10.0

    def test_measure_command(self, config_path, capsys):
        assert main(["measure", "--config", config_path, "--at", "0,0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        ht = rep["holmes_thompson"]
        assert ht["rel_deviation"] < 1e-6
        assert rep["busemann_hausdorff"]["value"] > 0

    def test_geodesic_csv(self, config_path, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["geodesic", "--config", config_path, "--x0", "0.1,0.2", "--y0", "1,0",
                     "--t-end", "0.2", "--step", "0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,y1,y2,F"
        assert len(lines) == 22

    def test_geodesic_json(self, config_path, capsys):
        code = main(["geodesic", "--config", config_path, "--x0", "0.1,0.2", "--y0", "1,0",
                     "--t-end", "0.2", "--step", "0.01", "--format", "json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["norm_drift"] < 1e-10
        assert rep["action"] == pytest.approx(sum(rep["action_per_sector"]), rel=1e-12)

    def test_sample_grid(self, config_path, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["sample", "--config", config_path, "--grid", "3", "--directions", "4",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,theta,F,det_g,I,J,K"
        assert len(lines) == 1 + 3 * 3 * 4

    def test_sample_computes_gauss_curvature_once_per_point(self, config_path, tmp_path, monkeypatch):
        import multifinsler.cli as cli
        import multifinsler.dim2 as dim2

        calls = [0]
        original = dim2.gauss_curvature

        def counted(field, x):
            calls[0] += 1
            return original(field, x)

        for module in (cli, dim2):
            monkeypatch.setattr(module, "gauss_curvature", counted, raising=False)
        assert main(["sample", "--config", config_path, "--grid", "2", "--directions", "3",
                     "--out", str(tmp_path / "grid.csv")]) == 0
        assert calls[0] == 2 * 2 * 2  # grid points x sectors, independent of the directions

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_tol_scale_must_be_finite_and_positive(self, config_path, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", config_path, "--suite", "identities", "--tol-scale", scale])
        assert exc.value.code == 2
        assert "--tol-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--grid", "0"],
        ["sample", "--directions", "0"],
        ["sample", "--grid", "-1"],
        ["geodesic", "--step", "0"],
        ["geodesic", "--t-end", "nan"],
    ])
    def test_counts_and_steps_must_be_positive(self, config_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", config_path, *argv[1:]])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_check_seed_must_be_non_negative(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", config_path, "--suite", "identities", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["measure", "--at", "0,0,0"],
        ["measure", "--at", "0,x"],
        ["geodesic", "--x0", "0.1"],
        ["geodesic", "--y0", "1,nan"],
    ])
    def test_points_need_one_number_per_coordinate(self, config_path, argv, capsys):
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert argv[1] in err and "Traceback" not in err

    def test_fan_script_point_needs_one_number_per_coordinate(self, config_path, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "geodesic_fan.py"
        proc = subprocess.run([sys.executable, str(script), config_path, "--x0", "0.1",
                               "--out-dir", str(tmp_path / "fan")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "--x0" in proc.stderr and "Traceback" not in proc.stderr


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, suite", [
    *(pytest.param(name, "identities", id=name) for name in ("single", "bimetric", "trimetric")),
    *(pytest.param(name, "measures", id=f"{name}-measures") for name in ("single", "bimetric", "trimetric")),
])
def test_identity_reports_match_stored_references(name, suite, tmp_path):
    """check --suite identities and measures at each config's own seed, byte for byte."""
    out = tmp_path / "report.json"
    assert main(["check", "--config", str(REPO / "configs" / f"{name}.json"),
                 "--suite", suite, "--out", str(out)]) == 0
    reference = REPO / "perfbench" / "reference" / f"check-{name}-{suite}.json"
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
@pytest.mark.parametrize("point", ["centre", "0.3_-0.2"])
def test_measure_output_matches_stored_bytes(name, point, tmp_path):
    """multifinsler measure at the box centre and at 0.3,-0.2, byte for byte."""
    out = tmp_path / "measure.json"
    at = [] if point == "centre" else ["--at", point.replace("_", ",")]
    assert main(["measure", "--config", str(REPO / "configs" / f"{name}.json"),
                 *at, "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / f"measure-{name}-{point}.json").read_bytes()

@pytest.mark.parametrize("workload", ["invariant_map", "geodesic_fan"])
def test_benchmark_workload_outputs_pass_their_checks(workload, tmp_path, monkeypatch):
    """The benchmark's sample and geodesic-fan items at seed 0: every oracle check
    passes, and each sample CSV equals perfbench/reference/sample-*.csv byte for byte."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    for item in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, tmp_path):
        out = item.run(item.argv)
        assert item.check(out) == [], item.label
        if workload == "invariant_map":
            reference = workloads.REFERENCE / f"sample-{item.config}.csv"
            assert next(iter(out.files.values())) == reference.read_bytes(), item.label


def test_benchmark_tracer_selftest():
    """perfbench/selftest.py: self-time arithmetic, and traced output equals untraced output."""
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestStableJson:
    def test_sorted_keys_and_float_format(self):
        text = dumps_stable({"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"nested": True}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text
        parsed = json.loads(text)
        assert parsed["a"] == [1, 2.5]
        assert parsed["c"]["nested"] is True

    def test_floats_survive_roundtrip_exactly(self):
        vals = [1e-17, 3.141592653589793, 6.083928850380081, 2.0**-52]
        parsed = json.loads(dumps_stable(vals))
        assert parsed == vals
