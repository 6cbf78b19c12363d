import errno
import importlib
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import multifinsler.config as config_module
import multifinsler.riemann as riemann_module
from multifinsler.cli import dumps_stable, main
from multifinsler.config import ConfigError, load_config, parse_config
from multifinsler.riemann import MetricField, NotPositiveDefiniteError
from multifinsler.suites import CHECKS, TOLERANCES, run_suite

from conftest import count_calls, count_spd_validations, record_evaluations

BIMETRIC = {
    "dimension": 2,
    "coordinates": ["x1", "x2"],
    "metrics": [
        {"name": "alpha", "components": [["1", "0"], ["0", "1"]]},
        {"name": "beta", "components": [["4", "0"], ["0", "1+x1^2"]]},
    ],
    "sampling": {"seed": 42, "count": 40, "box": [[-1, 1], [-1, 1]]},
}


# (beta, box, stderr of `sample --grid 3 --directions 4`) for spaces where the sample fails
SAMPLE_ERRORS = {
    # the third grid point, (-1, 1.5), leaves the SPD region of beta
    "spd": ([["4", "0"], ["0", "1 - x2"]], [[-1, 1], [-1, 1.5]],
            "error: NotPositiveDefiniteError: metric 'beta' is not positive definite at x=[-1.0, 1.5] "
            "(eigenvalues [-0.5, 4.0])\n"),
    # the first grid point has x1 = 5e-6, so its x-stencil evaluates log(x1) at x1 < 0; that
    # comes before the third grid point, (5e-6, 2), where beta is not SPD
    "log": ([["4", "0"], ["0", "1.5 + x1*log(x1) - x2"]], [[5e-6, 1], [-1, 2]],
            "error: EvalDomainError: log of a non-positive value in 'log(x1)'\n"),
}


# (beta, box, seed, stderr of `check --suite identities` on 10 samples) for spaces where
# a later sample fails, recorded while the suite took its samples one at a time
CHECK_ERRORS = {
    # the seventh pointwise sample, x2 > 1, leaves the SPD region of beta
    "spd": ([["4", "0"], ["0", "1 - x2"]], [[-1, 1], [-1, 1.5]], 2,
            "error: NotPositiveDefiniteError: metric 'beta' is not positive definite at "
            "x=[-0.36370679876925127, 1.3105422412670604] (eigenvalues [-0.3105422412670604, 4.0])\n"),
    # the second FD sample has x1 = 2.3e-5, so the x-stencil of its variational spray takes
    # log(x1) at x1 < 0; the ninth FD sample, where beta is not SPD, comes later
    "log": ([["4", "0"], ["0", "1.8 + x1*log(x1) - x2"]], [[2e-6, 1e-3], [-1, 2]], 64,
            "error: EvalDomainError: log of a non-positive value in 'log(x1)'\n"),
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
        space = cfg.space
        assert space.n_metrics == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/space.json")

    def test_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path)]) == 2
        reason = os.strerror(errno.EISDIR)
        assert capsys.readouterr().err == f"config error: {tmp_path}: cannot read the file: {reason}\n"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_a_json_error_names_the_line_of_a_text_read(self, newline, tmp_path):
        p = tmp_path / "space.json"
        p.write_bytes(newline.join([b"{", b'"dimension": 2,', b'"x": }']))
        with pytest.raises(ConfigError, match="invalid JSON at line 3, column 6: Expecting value"):
            load_config(p)

    def test_a_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        p = tmp_path / "space.json"
        p.write_bytes(b"\xff\xfe{")
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"config error: {p}: not UTF-8 text: invalid start byte at byte 0\n"

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

    def test_domain_error_at_box_center_is_a_config_error(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["components"] = [["4", "0"], ["0", "1+log(x1)"]]
        with pytest.raises(ConfigError, match="SPD probe failed at box center: log of a non-positive"):
            parse_config(bad)
        p = tmp_path / "space.json"
        p.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_domain_error_in_the_symmetry_probe_is_a_config_error(self, tmp_path, capsys):
        # the (0,1) and (1,0) texts differ, so they are compared at probe points x1 < 0.2
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["components"] = [["4", "log(x1-0.2)"], ["log(x1 - 0.2)", "4"]]
        with pytest.raises(ConfigError, match="invalid metric component: log of a non-positive"):
            parse_config(bad)
        p = tmp_path / "space.json"
        p.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("components, message", [
        # at the box centre x1 = 100
        ([["1+x1^400", "0"], ["0", "1"]], "SPD probe failed at box center: overflow in 'x1^400.0'"),
        # the (0,1) and (1,0) texts differ, so they are compared at the probe points
        ([["2", "x1^400/x1^400-1"], ["x1^400/x1^400 - 1", "2"]], "invalid metric component: overflow in 'x1^400.0'"),
    ])
    def test_overflow_in_a_probe_is_a_config_error_without_a_warning(self, components, message):
        bad = {**BIMETRIC, "metrics": [{"name": "steep", "components": components}],
               "sampling": {"seed": 1, "count": 10, "box": [[99, 101], [-1, 1]]}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError) as error:
                parse_config(bad)
        assert str(error.value) == message and caught == []

    @pytest.mark.parametrize("text", ["-1e999", "1e999"])
    def test_a_non_finite_component_fails_the_spd_probe(self, text, tmp_path, capsys):
        # the constant is infinite, so the eigenvalues are NaN, which fail no comparison
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["components"] = [["4", "0"], ["0", text]]
        p = tmp_path / "space.json"
        p.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: SPD probe failed at box center: metric 'beta' is not finite at x=[0.0, 0.0] ")

    @pytest.mark.parametrize("texts", [["0.1*log(x1)", "log(x1)*0.1"], ["0.1*log(x1)", "0.1*log(x1)"]])
    def test_symmetry_probe_stays_inside_the_box(self, tmp_path, texts):
        # log(x1) is defined on the whole box, so differing texts validate as identical ones do
        cfg = json.loads(json.dumps(BIMETRIC))
        cfg["metrics"][1]["components"] = [["4", texts[0]], [texts[1], "4"]]
        cfg["sampling"]["box"] = [[0.5, 1], [0.5, 1]]
        p = tmp_path / "space.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(p)]) == 0

    def test_asymmetric_components_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["components"] = [["1", "x1"], ["x2", "1"]]
        p = tmp_path / "space.json"
        p.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(p)]) == 2
        assert "are not symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [["alpha", "alpha"], [None, "metric0"]])
    def test_duplicate_metric_names_rejected(self, names):
        bad = json.loads(json.dumps(BIMETRIC))
        for m, name in zip(bad["metrics"], names):
            if name is None:
                del m["name"]  # the default name of metrics[0] is "metric0"
            else:
                m["name"] = name
        with pytest.raises(ConfigError, match=r"metrics\[1\]: duplicate metric name"):
            parse_config(bad)

    @pytest.mark.parametrize("name", [5, 1.5, True, None, ["alpha"], ""])
    def test_metric_names_must_be_non_empty_strings(self, name):
        bad = json.loads(json.dumps(BIMETRIC))
        bad["metrics"][1]["name"] = name
        with pytest.raises(ConfigError, match=r"metrics\[1\]\.name must be a non-empty string"):
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

    @pytest.mark.parametrize("bound", [10 ** 400, -10 ** 400], ids=["high", "low"])
    def test_an_integer_bound_beyond_the_float_range_is_a_config_error(self, bound, tmp_path, capsys):
        # json reads the integer exactly; no float holds it, so it is not a finite number
        box = [[0, bound], [-1, 1]] if bound > 0 else [[bound, 0], [-1, 1]]
        p = tmp_path / "space.json"
        p.write_text(json.dumps({**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "box": box}}))
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid box interval {box[0]!r}: needs two finite numbers, low < high\n")

    @pytest.mark.parametrize("box", [[[-1e308, 1e308], [-1, 1]], [[1e308, 1.7e308], [-1, 1]]],
                             ids=["width", "centre"])
    def test_a_box_whose_width_or_centre_overflows_is_a_config_error(self, box, tmp_path, capsys):
        # both bounds are finite, but the probes read lo + t*(hi - lo) and the centre (lo + hi)/2
        p = tmp_path / "space.json"
        p.write_text(json.dumps({**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "box": box}}))
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid box interval {box[0]!r}: its width or its centre overflows a float\n")

    def test_unicode_coordinates_give_the_samples_of_their_ascii_twin(self, tmp_path):
        # the same space written with the coordinates (ξ, η) and (x1, x2)
        def space(u, v):
            return {**BIMETRIC, "coordinates": [u, v], "metrics": [
                {"name": "alpha", "components": [[f"1+{u}^2", f"0.25*{v}"], [f"0.25*{v}", "2"]]},
                {"name": "beta", "components": [["4", "0"], ["0", f"2+{u}*{v}^2"]]}]}

        tables = {}
        for u, v in (("ξ", "η"), ("x1", "x2")):
            p, out = tmp_path / f"{u}.json", tmp_path / f"{u}.csv"
            p.write_text(json.dumps(space(u, v), ensure_ascii=False), encoding="utf-8")
            assert main(["sample", "--config", str(p), "--grid", "3", "--directions", "4", "--out", str(out)]) == 0
            header, *rows = out.read_text(encoding="utf-8").splitlines()
            assert header.startswith(f"{u},{v},theta,")
            tables[u] = rows
        assert tables["ξ"] == tables["x1"] and len(tables["ξ"]) == 36

    @pytest.mark.parametrize("name", ["1x", "x y", "x-1", "a.b", "x\u0301"])
    def test_a_coordinate_that_is_not_one_identifier_is_a_config_error(self, name, tmp_path, capsys):
        # the tokenizer could never read the name in a component, so the config is refused
        p = tmp_path / "space.json"
        p.write_text(json.dumps({**BIMETRIC, "coordinates": [name, "x2"]}, ensure_ascii=False), encoding="utf-8")
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"config error: coordinate name {name!r} is not an identifier: a letter or '_', "
            "then letters, digits or '_'\n")

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

    def test_files_are_written_in_utf8_under_an_ascii_locale(self, tmp_path):
        """validate, sample, check and geodesic write UTF-8 whatever the locale's encoding:
        under the C locale with UTF-8 mode off they write the bytes a UTF-8 process writes,
        and validate, sample and geodesic write to stdout (--out -) the bytes of the file."""
        cfg = {**BIMETRIC, "coordinates": ["ξ", "η"], "metrics": [
            {"name": "α", "components": [["1", "0"], ["0", "1"]]},
            {"name": "β", "components": [["4", "0"], ["0", "2"]]}]}
        config = tmp_path / "space.json"
        config.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        commands = {"valid.json": ["validate"], "sample.csv": ["sample", "--grid", "2", "--directions", "2"],
                    "check.json": ["check", "--suite", "identities"],
                    "geodesic.csv": ["geodesic", "--t-end", "0.01", "--step", "0.005"]}
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = {}
        for locale_env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, {"PYTHONUTF8": "1"}):
            env = {**os.environ, "PYTHONPATH": src, **locale_env}
            encoding = subprocess.run([sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
                                      capture_output=True, text=True, env=env, check=True).stdout.strip()
            assert (encoding.lower().replace("-", "") == "utf8") == (locale_env["PYTHONUTF8"] == "1"), encoding
            out = tmp_path / locale_env["PYTHONUTF8"]
            out.mkdir()
            def run(argv, dest):
                proc = subprocess.run([sys.executable, "-m", "multifinsler.cli", *argv, "--config", str(config),
                                       "--out", dest], capture_output=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
                return proc.stdout

            for name, argv in commands.items():
                assert run(argv, str(out / name)) == b""
            outputs[locale_env["PYTHONUTF8"]] = {name: (out / name).read_bytes() for name in commands}
            for name in ("valid.json", "sample.csv", "geodesic.csv"):
                assert run(commands[name], "-") == outputs[locale_env["PYTHONUTF8"]][name], name
        assert outputs["0"] == outputs["1"]
        assert "α".encode() in outputs["1"]["valid.json"] and "ξ".encode() in outputs["1"]["sample.csv"]

    @pytest.mark.parametrize("argv", [["validate"], ["check", "--suite", "identities"], ["measure"],
                                      ["geodesic"], ["sample"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["no-directory", "a-directory"])
    def test_an_out_that_cannot_be_written_is_refused_before_any_work(self, argv, where, config_path, tmp_path,
                                                                       monkeypatch, capsys):
        import multifinsler.cli as cli

        suites = count_calls(monkeypatch, cli, "run_suite")
        loads = count_calls(monkeypatch, cli, "load_config")
        out = tmp_path / "missing" / "report" if where == "no-directory" else tmp_path
        assert main([*argv, "--config", config_path, "--out", str(out)]) == 2
        reason = f": no directory {out.parent}" if where == "no-directory" else " is a directory"
        assert capsys.readouterr().err == f"usage error: --out {out}{reason}\n"
        assert suites[0] == loads[0] == 0

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

    @pytest.mark.parametrize("argv, what", [
        (["measure"], "measure"),
        (["measure", "--at", "0.1,0.2,0.3"], "measure"),
        (["check", "--suite", "measures"], "--suite measures"),
        (["check", "--suite", "all"], "--suite all"),
    ], ids=["measure", "measure-at", "suite-measures", "suite-all"])
    def test_2d_only_commands_reject_a_3d_config_before_any_work(self, argv, what, monkeypatch, capsys):
        import multifinsler.cli as cli

        suites = count_calls(monkeypatch, cli, "run_suite")
        measures = count_calls(monkeypatch, cli, "holmes_thompson")
        config = str(Path(__file__).resolve().parent.parent / "tests" / "data" / "bimetric3d.json")
        assert main([*argv, "--config", config]) == 2
        assert capsys.readouterr().err == f"usage error: {what} needs a 2D config, got dimension 3\n"
        assert suites[0] == measures[0] == 0

    def test_run_suite_rejects_a_3d_config_before_the_identities_run(self, monkeypatch):
        import multifinsler.suites as suites

        calls = count_calls(monkeypatch, suites, "_identity_checks")
        cfg = load_config(Path(__file__).resolve().parent.parent / "tests" / "data" / "bimetric3d.json")
        with pytest.raises(ValueError, match="measure checks require a 2D space"):
            run_suite(cfg, "all")
        assert calls[0] == 0

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
        evaluations = record_evaluations(monkeypatch)
        assert main(["sample", "--config", config_path, "--grid", "2", "--directions", "3",
                     "--out", str(tmp_path / "grid.csv")]) == 0
        # metric name -> the points its second derivatives were evaluated at
        points = {name: p for (name, order), p in evaluations.items() if order == 2}
        # each of the 2 x 2 grid points once per sector (2 x 2 x 2 in all), independent of the directions
        assert [len(p) for p in points.values()] == [2 * 2] * 2
        assert all(len(set(map(tuple, p))) == len(p) for p in points.values())

    def test_sample_makes_one_batch_of_rows(self, config_path, tmp_path, monkeypatch):
        import multifinsler.cli as cli
        import multifinsler.dim2 as dim2

        calls = [count_calls(monkeypatch, module, "connection_state") for module in (cli, dim2)]
        for grid, directions in ((1, 1), (2, 3), (3, 5)):
            for c in calls:
                c[0] = 0
            assert main(["sample", "--config", config_path, "--grid", str(grid), "--directions",
                         str(directions), "--out", str(tmp_path / "grid.csv")]) == 0
            # the grid-point x direction rows, then the 8 neighbours of every row
            assert [c[0] for c in calls] == [1, 1]

    @pytest.mark.parametrize("name", sorted(SAMPLE_ERRORS))
    def test_sample_raises_the_error_of_its_first_failing_sample(self, name, tmp_path, capsys):
        # stderr as a loop over the rows, one sample at a time, writes it
        beta, box, stderr = SAMPLE_ERRORS[name]
        cfg = {**BIMETRIC, "metrics": [BIMETRIC["metrics"][0], {"name": "beta", "components": beta}],
               "sampling": {"seed": 1, "count": 10, "box": box}}
        p = tmp_path / "space.json"
        p.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(p), "--grid", "3", "--directions", "4",
                     "--out", str(tmp_path / "grid.csv")]) == 1
        assert capsys.readouterr().err == stderr

    def test_sample_row_raises_its_connection_state_error_first(self, tmp_path, capsys):
        # at the first grid point, (0, -1), beta is not SPD and the second derivative of
        # alpha takes 0^-0.5; J and K evaluate the Gauss curvatures after the connection
        # state, so the SPD error raises, not the EvalDomainError
        cfg = {**BIMETRIC, "metrics": [{"name": "alpha", "components": [["1 + x1^1.5", "0"], ["0", "1"]]},
                                       {"name": "beta", "components": [["4", "0"], ["0", "x1"]]}],
               "sampling": {"seed": 1, "count": 10, "box": [[0, 1], [-1, 1]]}}
        p = tmp_path / "space.json"
        p.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(p), "--grid", "3", "--directions", "4",
                     "--out", str(tmp_path / "grid.csv")]) == 1
        assert capsys.readouterr().err == ("error: NotPositiveDefiniteError: metric 'beta' is not positive "
                                           "definite at x=[0.0, -1.0] (eigenvalues [0.0, 4.0])\n")

    def test_overflowing_component_is_a_domain_error_without_a_warning(self, tmp_path):
        # x1^400 overflows at x1 = 100; a fresh interpreter shows the user's stderr,
        # warnings included
        p = tmp_path / "steep.json"
        p.write_text(json.dumps({**BIMETRIC, "metrics": [
            {"name": "steep", "components": [["1+x1^400", "0"], ["0", "1"]]}]}))
        proc = subprocess.run([sys.executable, "-m", "multifinsler.cli", "geodesic", "--config", str(p),
                               "--x0=100,0", "--y0=1,0", "--t-end", "0.01", "--step", "0.01"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
        assert proc.returncode == 1
        assert proc.stderr == "error: EvalDomainError: overflow in 'x1^400.0'\n"

    def test_ill_conditioned_metric_names_the_ratio(self, capsys):
        # beta = diag(4, 1 + x1^2) at x1 = 5e100 is positive definite, but its eigenvalue
        # ratio is far below SPD_EIG_RATIO
        config = str(Path(__file__).resolve().parent.parent / "configs" / "bimetric.json")
        assert main(["geodesic", "--config", config, "--x0", "0.1,0.1", "--y0", "1e103,1",
                     "--t-end", "0.01", "--step", "0.01"]) == 1
        assert capsys.readouterr().err == (
            "error: NotPositiveDefiniteError: metric 'beta' is ill-conditioned at x=[5e+100, 0.10500000000000001]: "
            "eigenvalue ratio 1.6000000000000002e-201 at or below SPD_EIG_RATIO = 1e-10 "
            "(eigenvalues [4.0, 2.5e+201])\n")

    @pytest.mark.parametrize("name", sorted(CHECK_ERRORS))
    def test_check_raises_the_error_of_its_first_failing_sample(self, name, tmp_path, capsys):
        beta, box, seed, stderr = CHECK_ERRORS[name]
        cfg = {**BIMETRIC, "metrics": [BIMETRIC["metrics"][0], {"name": "beta", "components": beta}],
               "sampling": {"seed": seed, "count": 10, "box": box}}
        p = tmp_path / "space.json"
        p.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(p), "--suite", "identities",
                     "--out", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == stderr

    def test_measure_suite_runs_the_quadrature_once_per_point(self, tmp_path, monkeypatch):
        # one metric: busemann_hausdorff falls back to the quadrature at every point, and
        # the check against the quadrature reuses that value
        import multifinsler.measure as measure
        import multifinsler.suites as suites

        calls = [0]
        original = measure.busemann_hausdorff_quadrature

        def counted(space, x):
            calls[0] += 1
            return original(space, x)

        for module in (measure, suites):
            monkeypatch.setattr(module, "busemann_hausdorff_quadrature", counted)
        single = {**BIMETRIC, "metrics": BIMETRIC["metrics"][1:]}
        p, out = tmp_path / "space.json", tmp_path / "report.json"
        p.write_text(json.dumps(single))
        assert main(["check", "--config", str(p), "--suite", "measures", "--out", str(out)]) == 0
        checks = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
        bh = checks["busemann-hausdorff-vs-quadrature"]
        assert bh["residual"] == 0.0 and bh["samples"] == 4
        assert calls[0] == 4

    def test_identity_suite_makes_one_batch_per_stage(self, tmp_path, monkeypatch):
        import multifinsler.suites as suites

        calls = count_calls(monkeypatch, suites, "connection_state")
        p, out = tmp_path / "space.json", tmp_path / "report.json"
        for count in (1, 7, 60):
            calls[0] = 0
            p.write_text(json.dumps({**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "count": count}}))
            assert main(["check", "--config", str(p), "--suite", "identities", "--out", str(out)]) == 0
            # the pointwise samples, then the FD samples
            assert calls[0] == 2

    def test_a_non_finite_residual_fails_its_check(self, config_path, tmp_path, monkeypatch):
        import multifinsler.suites as suites

        # the third sample's residual is NaN, whether the route takes one sample or a batch
        original, seen = suites.horizontal_compatibility_residual, [0]

        def poisoned(space, cs):
            values = np.array(original(space, cs), dtype=float)
            flat = values.reshape(-1)
            if 0 <= 2 - seen[0] < flat.size:
                flat[2 - seen[0]] = np.nan
            seen[0] += flat.size
            return values if values.ndim else float(values)

        monkeypatch.setattr(suites, "horizontal_compatibility_residual", poisoned)
        out = tmp_path / "report.json"
        assert main(["check", "--config", config_path, "--suite", "identities", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        check = next(c for c in report["checks"] if c["check"] == "horizontal-norm-compatibility")
        assert check["residual"] == "non-finite" and check["pass"] is False
        assert report["passed"] is False

    def test_each_call_parses_its_own_arguments(self, config_path, tmp_path):
        import multifinsler.cli as cli

        assert cli.build_parser() is cli.build_parser()  # built once per process
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["check", "--config", config_path, "--suite", "identities", "--seed", "7",
                     "--tol-scale", "10", "--out", str(first)]) == 0
        assert main(["validate", "--config", config_path, "--out", str(second)]) == 0
        assert json.loads(second.read_text())["valid"] is True
        assert main(["check", "--config", config_path, "--suite", "identities", "--out", str(second)]) == 0
        r1, r2 = json.loads(first.read_text()), json.loads(second.read_text())
        assert (r1["seed"], r1["tolerance_scale"]) == (7, 10.0)
        assert (r2["seed"], r2["tolerance_scale"]) == (42, 1.0)
        args = cli.build_parser().parse_args(["sample", "--config", config_path])
        assert (args.grid, args.directions) == (8, 16) and not hasattr(args, "seed")

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
        ["measure", "--at", "-0.1,x"],
        ["geodesic", "--x0", "-0.1,0.2,0.3"],
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

    @pytest.mark.parametrize("argv", [
        ["measure", "--at", "-0.1,0.25"],
        ["geodesic", "--x0", "-0.1,0.2", "--t-end", "0.02", "--step", "0.01"],
        ["geodesic", "--y0", "-1,0", "--t-end", "0.02", "--step", "0.01"],
    ])
    def test_negative_point_needs_no_equals_sign(self, config_path, argv, capsys):
        flag, value, *rest = argv[1:]
        assert main([argv[0], "--config", config_path, f"{flag}={value}", *rest]) == 0
        expected = capsys.readouterr().out
        assert main([argv[0], "--config", config_path, *argv[1:]]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("out_dir", ["ray.csv", "ray.csv/fan"])
    def test_fan_script_out_dir_on_a_file_is_a_usage_error(self, config_path, tmp_path, out_dir):
        # the directory, or one on its path, is an existing file: refused before any integration
        script = Path(__file__).resolve().parent.parent / "scripts" / "geodesic_fan.py"
        (tmp_path / "ray.csv").write_text("kept\n")
        proc = subprocess.run([sys.executable, str(script), config_path, "--rays", "1",
                               "--out-dir", str(tmp_path / out_dir)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: --out-dir") and "Traceback" not in proc.stderr
        assert proc.stdout == "" and (tmp_path / "ray.csv").read_text() == "kept\n"

    def test_fan_script_negative_point_needs_no_equals_sign(self, config_path, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "geodesic_fan.py"
        proc = subprocess.run([sys.executable, str(script), config_path, "--x0", "-0.5,0.1",
                               "--rays", "1", "--t-end", "0.01", "--step", "0.01",
                               "--out-dir", str(tmp_path / "fan")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "fan" / "ray_00.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[1:3]] == [-0.5, 0.1]


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
@pytest.mark.parametrize("seed", [1, 7])
def test_identity_reports_at_other_seeds_match_stored_bytes(name, seed, tmp_path):
    """check --suite identities --seed 1 and 7, byte for byte as the suite wrote them
    when it took its samples one at a time."""
    out = tmp_path / "report.json"
    assert main(["check", "--config", str(REPO / "configs" / f"{name}.json"), "--suite", "identities",
                 "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / f"check-{name}-identities-seed{seed}.json").read_bytes()


def test_identity_report_in_3d_matches_stored_bytes(tmp_path):
    """check --suite identities on a 3D bimetric config, where the 2D-only checks are left out."""
    out = tmp_path / "report.json"
    assert main(["check", "--config", str(REPO / "tests" / "data" / "bimetric3d.json"),
                 "--suite", "identities", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / "check-bimetric3d-identities.json").read_bytes()


def test_sample_in_3d_matches_stored_bytes(tmp_path):
    """sample --grid 3 --directions 5 on a 3D bimetric config, where the table holds F and
    det g only, byte for byte."""
    out = tmp_path / "grid.csv"
    assert main(["sample", "--config", str(REPO / "tests" / "data" / "bimetric3d.json"),
                 "--grid", "3", "--directions", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / "sample-bimetric3d.csv").read_bytes()


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric", "bimetric3d"])
def test_geodesics_reports_match_stored_bytes(name, tmp_path):
    """check --suite geodesics at each config's own seed, byte for byte."""
    out = tmp_path / "report.json"
    config = REPO / ("tests/data" if name == "bimetric3d" else "configs") / f"{name}.json"
    assert main(["check", "--config", str(config), "--suite", "geodesics", "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / f"check-{name}-geodesics.json").read_bytes()


def test_geodesics_suite_makes_four_runs_of_2096_steps(monkeypatch):
    """The forward run, its time reversal and the 1/32 and 1/64 runs of the order ratio,
    whose reference is the forward run's end: no run is made twice."""
    import multifinsler.suites as suites

    original, steps = suites.integrate_geodesic, []

    def counted(*args):
        path = original(*args)
        steps.append(len(path.t) - 1)
        return path

    monkeypatch.setattr(suites, "integrate_geodesic", counted)
    run_suite(load_config(REPO / "configs" / "bimetric.json"), "geodesics")
    assert (len(steps), sum(steps)) == (4, 2096)


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric", "bimetric3d"])
def test_action_vs_conserved_norm_fails_on_a_scaled_action(name, monkeypatch):
    """An action 1e-5 too large in total and in every sector fails the conserved-norm
    check, while the sector decomposition, which compares the action with itself,
    still passes."""
    import multifinsler.suites as suites
    from multifinsler.geodesic import ActionResult

    original = suites.action_of_path

    def scaled(*args):
        act = original(*args)
        return ActionResult(total=act.total * (1.0 + 1e-5), sector_totals=act.sector_totals * (1.0 + 1e-5))

    monkeypatch.setattr(suites, "action_of_path", scaled)
    config = REPO / ("tests/data" if name == "bimetric3d" else "configs") / f"{name}.json"
    checks = {c["check"]: c for c in run_suite(load_config(config), "geodesics")["checks"]}
    assert not checks["action-vs-conserved-norm"]["pass"]
    assert checks["action-vs-conserved-norm"]["residual"] == pytest.approx(1e-5, rel=1e-6)
    assert checks["action-sector-decomposition"]["pass"]


# Every value a command prints on configs/bimetric.json, as "command: field", a JSON field
# by its dotted path (name[] for the items of a list of objects) and the Busemann-Hausdorff
# fields under the route that computed them.  The values a command is given, or that
# name a row or a sector:
PRINTED_INPUTS = {
    "sample: x1", "sample: x2", "sample: theta",
    "measure: point", "measure: holmes_thompson.cross_terms[].mu", "measure: holmes_thompson.cross_terms[].nu",
    "geodesic csv: t",  # the step grid of t_end and step
    "geodesic json: t_end", "geodesic json: step", "geodesic json: start.x", "geodesic json: start.y",
}
# the computed values, each with the suites.CHECKS names whose oracles cover it
PRINTED_CHECKS = {
    "sample: F": ("norm-homogeneity",),
    "sample: det_g": ("determinant-identity", "fundamental-tensor-vs-hessian-oracle"),
    "sample: I": ("invariant-I-compact-vs-oracle", "cartan-frame-factorization"),
    "sample: J": ("landsberg-scalar-vs-directional-derivative",),
    "measure: holmes_thompson.value": ("holmes-thompson-three-modes", "measure-positivity"),
    "measure: holmes_thompson.diagonal_terms": ("holmes-thompson-three-modes",),
    **{f"measure: holmes_thompson.cross_terms[].{k}": ("holmes-thompson-three-modes",)
       for k in ("E", "lam_minus", "lam_plus", "modulus", "term")},
    "measure: holmes_thompson.disc_oracle": ("holmes-thompson-three-modes",),
    "measure: holmes_thompson.abs_deviation": ("holmes-thompson-three-modes",),
    "measure: holmes_thompson.rel_deviation": ("holmes-thompson-three-modes",),
    "measure: busemann_hausdorff[closed_bimetric].value": ("busemann-hausdorff-vs-quadrature", "measure-positivity"),
    **{f"measure: busemann_hausdorff[closed_bimetric].parts.{k}": ("busemann-hausdorff-vs-quadrature",)
       for k in ("trace_part", "elliptic_part", "indicatrix_area_over_pi")},
    "geodesic csv: F": ("geodesic-norm-drift",),
    "geodesic json: norm_initial": ("norm-homogeneity",),
    "geodesic json: norm_drift": ("geodesic-norm-drift",),
    "geodesic json: action": ("action-vs-conserved-norm",),
}
# the computed values no check covers with an oracle independent of their route; an
# entry leaves when a check covers it, and none is added
PRINTED_UNCHECKED = {
    "sample: K": "no curvature oracle",
    # the quadrature route's value is its own reference in busemann-hausdorff-vs-quadrature
    "measure: busemann_hausdorff[quadrature].value": "the quadrature checks itself",
    "measure: busemann_hausdorff[quadrature].parts.indicatrix_area_over_pi": "pi / the quadrature's value",
    **{f"geodesic csv: {k}": "the path checks only itself" for k in ("x1", "x2", "y1", "y2")},
    "geodesic json: end.x": "the path checks only itself",
    "geodesic json: end.y": "the path checks only itself",
    "geodesic json: action_per_sector": "action-sector-decomposition cannot fail",
}
PRINTED_UNCHECKED_MOST = 10  # lower it as entries leave; never raise it


def _numeric_leaves(obj, name=""):
    """The dotted names of the numeric leaves of a JSON value: a list of numbers is one
    leaf, and the leaves of the objects of a list are named name[].key."""
    if isinstance(obj, dict):
        return set().union(*(_numeric_leaves(v, f"{name}.{k}" if name else k) for k, v in obj.items()))
    if isinstance(obj, list) and all(isinstance(v, dict) for v in obj):
        return set().union(*(_numeric_leaves(v, f"{name}[]") for v in obj))
    values = obj if isinstance(obj, list) else [obj]
    return {name} if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values) else set()


def _printed_fields(tmp_path) -> set:
    config, out = str(REPO / "configs" / "bimetric.json"), tmp_path / "out"
    fields = set()

    def run(*argv):
        assert main([argv[0], "--config", config, *argv[1:], "--out", str(out)]) == 0
        return out.read_text()

    header = run("sample", "--grid", "2", "--directions", "2").splitlines()[0]
    fields |= {f"sample: {c}" for c in header.split(",")}
    for at in ([], ["--at", "0.3,-0.2"]):  # the centre falls back to the quadrature, 0.3,-0.2 does not
        report = json.loads(run("measure", *at))
        bh = report.pop("busemann_hausdorff")
        report[f"busemann_hausdorff[{bh['method']}]"] = bh
        fields |= {f"measure: {f}" for f in _numeric_leaves(report)}
    header = run("geodesic", "--t-end", "0.01", "--step", "0.005").splitlines()[0]
    fields |= {f"geodesic csv: {c}" for c in header.split(",")}
    report = json.loads(run("geodesic", "--t-end", "0.01", "--step", "0.005", "--format", "json"))
    return fields | {f"geodesic json: {f}" for f in _numeric_leaves(report)}


def test_every_printed_value_is_an_input_checked_or_listed_as_unchecked(tmp_path):
    """Each value that sample, measure and geodesic print is an input, maps to checks of
    suites.CHECKS, or sits on the unchecked list, which may only shrink: a new printed
    field fails until it is placed."""
    tables = (PRINTED_INPUTS, set(PRINTED_CHECKS), set(PRINTED_UNCHECKED))
    assert sum(map(len, tables)) == len(set().union(*tables)), "a field is in two tables"
    placed = set().union(*tables)
    printed = _printed_fields(tmp_path)
    assert printed == placed, f"not placed: {sorted(printed - placed)}; not printed: {sorted(placed - printed)}"
    assert {c for checks in PRINTED_CHECKS.values() for c in checks} <= set(CHECKS)
    assert all(PRINTED_CHECKS.values())
    assert len(PRINTED_UNCHECKED) <= PRINTED_UNCHECKED_MOST


@pytest.mark.parametrize("eps", ["1e-4", "1e-6", "1e-8", "1e-11"])
def test_near_proportional_pencils_pass_the_identities_suite(eps):
    """A pencil beta = 3 (1 + eps x2) alpha in its (0, 0) entry: detection reads a
    relative misfit of order eps, the Cartan tensor grows as eps^2, and between about
    1e-10 and 1e-5 the two verdicts disagree, which the check allows."""
    data = json.loads((REPO / "tests" / "data" / "near-proportional.json").read_text())
    beta = data["metrics"][1]["components"]
    beta[0][0] = beta[0][0].replace("1e-6", eps)
    report = run_suite(parse_config(data), "identities")
    assert [c["check"] for c in report["checks"] if not c["pass"]] == []


def test_check_table_names_the_checks_of_the_stored_reports():
    """suites.CHECKS holds one row for each check of the stored reports, and no other, with
    the tolerance class and tolerance each report entry prints; every class it names is a
    key of TOLERANCES."""
    paths = [*(REPO / "perfbench" / "reference").glob("check-*.json"), *(REPO / "tests" / "data").glob("check-*.json")]
    entries = [c for p in paths for c in json.loads(p.read_text())["checks"]]
    assert set(CHECKS) == {c["check"] for c in entries}
    assert len(CHECKS) == 31
    for c in entries:
        tol_class, tol = CHECKS[c["check"]]
        assert (c["tolerance_class"], c["tolerance"]) == (tol_class, TOLERANCES[tol_class] if tol is None else tol)
    assert {tol_class for tol_class, _ in CHECKS.values()} <= set(TOLERANCES)


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
@pytest.mark.parametrize("point", ["centre", "0.3_-0.2"])
def test_measure_output_matches_stored_bytes(name, point, tmp_path):
    """multifinsler measure at the box centre and at 0.3,-0.2, byte for byte."""
    out = tmp_path / "measure.json"
    at = [] if point == "centre" else ["--at", point.replace("_", ",")]
    assert main(["measure", "--config", str(REPO / "configs" / f"{name}.json"),
                 *at, "--out", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / f"measure-{name}-{point}.json").read_bytes()


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
@pytest.mark.parametrize("start", ["centre", "offcentre"])
def test_geodesic_output_matches_stored_bytes(name, start, tmp_path):
    """multifinsler geodesic --t-end 0.05 --format json from the box centre along x1,
    and from -0.1,0.2 along 0.6,-0.8, byte for byte."""
    out = tmp_path / "geodesic.json"
    at = [] if start == "centre" else ["--x0", "-0.1,0.2", "--y0", "0.6,-0.8"]
    assert main(["geodesic", "--config", str(REPO / "configs" / f"{name}.json"), *at,
                 "--t-end", "0.05", "--format", "json", "--out", str(out)]) == 0
    suffix = "" if start == "centre" else "-offcentre"
    assert out.read_bytes() == (REPO / "tests" / "data" / f"geodesic-{name}{suffix}.json").read_bytes()


FAN_SCRIPT = REPO / "scripts" / "geodesic_fan.py"


def run_fan(argv, out_dir, monkeypatch, capsys):
    """Run scripts/geodesic_fan.py in process.  Returns its stdout, with the output
    directory cut from each '-> path', and the exception it raised (None if none)."""
    monkeypatch.setattr(sys, "argv", [str(FAN_SCRIPT), *argv, "--out-dir", str(out_dir)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    error = None
    try:
        runpy.run_path(str(FAN_SCRIPT), run_name="__main__")
    except Exception as exc:
        error = exc
    return capsys.readouterr().out.replace(f"-> {out_dir}{os.sep}", "-> "), error


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
def test_fan_script_output_matches_stored_bytes(name, tmp_path, monkeypatch, capsys):
    """geodesic_fan.py --rays 4 --t-end 0.05 --x0 -0.1,0.2: the ray CSVs and stdout
    equal tests/data/fan-<config>/, written by the serial fan, byte for byte."""
    stdout, error = run_fan([str(REPO / "configs" / f"{name}.json"), "--rays", "4", "--t-end", "0.05",
                             "--x0", "-0.1,0.2"], tmp_path, monkeypatch, capsys)
    stored = REPO / "tests" / "data" / f"fan-{name}"
    assert error is None
    assert stdout == (stored / "stdout.txt").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"ray_{k:02d}.csv" for k in range(4)]
    for k in range(4):
        assert (tmp_path / f"ray_{k:02d}.csv").read_bytes() == (stored / f"ray_{k:02d}.csv").read_bytes()


def test_fan_script_ray_failure_matches_serial_fan(tmp_path, monkeypatch, capsys):
    """A fan whose ray 2 runs into x1 = -1, where a_11 = 1 + x1 stops being SPD: rays 0
    and 1 are written and printed as by the serial fan (tests/data/fan-spd-loss/),
    ray 3 is not, and the script raises ray 2's NotPositiveDefiniteError."""
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({
        "dimension": 2, "coordinates": ["x1", "x2"],
        "metrics": [{"name": "alpha", "components": [["1+x1", "0"], ["0", "1"]]},
                    {"name": "beta", "components": [["1", "0"], ["0", "1+x2^2"]]}],
        "sampling": {"seed": 1, "count": 10, "box": [[-1, 1], [-1, 1]]},
    }))
    out_dir = tmp_path / "fan"
    stored = REPO / "tests" / "data" / "fan-spd-loss"
    stdout, error = run_fan([str(cfg), "--rays", "4", "--t-end", "0.2", "--step", "0.01",
                             "--x0", "-0.8,0.1"], out_dir, monkeypatch, capsys)
    assert isinstance(error, NotPositiveDefiniteError)
    assert f"{type(error).__module__}.{type(error).__name__}: {error}" == (stored / "error.txt").read_text().strip()
    assert stdout == (stored / "stdout.txt").read_text()
    assert sorted(p.name for p in out_dir.iterdir()) == ["ray_00.csv", "ray_01.csv"]
    for k in range(2):
        assert (out_dir / f"ray_{k:02d}.csv").read_bytes() == (stored / f"ray_{k:02d}.csv").read_bytes()


def record_metric_builds(monkeypatch):
    """Record each MetricField that MetricField.from_strings builds; returns the list."""
    original = MetricField.from_strings
    built = []

    def recorded(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(MetricField, "from_strings", recorded)
    return built


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
def test_load_config_builds_each_metric_once_into_its_space(name, monkeypatch):
    built = record_metric_builds(monkeypatch)
    cfg = load_config(REPO / "configs" / f"{name}.json")
    assert len(built) == len(cfg.metrics)
    assert all(a is b for a, b in zip(cfg.space.metrics, built, strict=True))


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "identities"],
    ["measure", "--at", "0.3,-0.2"],
    ["geodesic", "--t-end", "0.01", "--format", "json"],
    ["sample", "--grid", "1", "--directions", "1"],
], ids=lambda argv: argv[0])
def test_each_command_builds_each_metric_once(argv, tmp_path, monkeypatch):
    built = record_metric_builds(monkeypatch)
    assert main([*argv, "--config", str(REPO / "configs" / "trimetric.json"), "--out", str(tmp_path / "out")]) == 0
    assert [m.name for m in built] == ["alpha", "beta", "gamma"]


def test_the_fan_script_builds_each_metric_once(tmp_path, monkeypatch, capsys):
    built = record_metric_builds(monkeypatch)
    _, error = run_fan([str(REPO / "configs" / "trimetric.json"), "--rays", "2", "--t-end", "0.01"],
                       tmp_path, monkeypatch, capsys)
    assert error is None
    assert [m.name for m in built] == ["alpha", "beta", "gamma"]


def test_the_config_space_holds_its_box_center_probe(monkeypatch):
    """cfg.space is the space parse_config probed, so the box center is in its memo."""
    cfg = load_config(REPO / "configs" / "bimetric.json")
    evaluations = record_evaluations(monkeypatch)
    spd = count_spd_validations(monkeypatch)
    a, _, det = cfg.space.metric_values(cfg.box_center())
    assert evaluations == {} and spd[0] == 0
    assert a.shape == (2, 2, 2) and np.all(det > 0)


def test_a_second_sample_in_one_process_parses_probes_and_emits_nothing(tmp_path, monkeypatch):
    """The same bytes give the same SpaceConfig, whatever the path, so a second command
    on a config builds no metric, parses no component and generates no table."""
    config = REPO / "configs" / "trimetric.json"
    argv = ["sample", "--config", str(config), "--grid", "2", "--directions", "3"]
    assert main([*argv, "--out", str(tmp_path / "first.csv")]) == 0
    cfg = load_config(config)
    copy = tmp_path / "copy.json"
    copy.write_bytes(config.read_bytes())
    assert load_config(str(config)) is cfg and load_config(copy) is cfg
    built = record_metric_builds(monkeypatch)
    parsed = count_calls(monkeypatch, riemann_module, "parse_expression")
    tables = count_calls(monkeypatch, riemann_module, "compile_table")
    assert main([*argv, "--out", str(tmp_path / "second.csv")]) == 0
    assert (built, parsed[0], tables[0]) == ([], 0, 0)
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_an_edited_config_is_read_and_built_again(tmp_path):
    p = tmp_path / "space.json"
    p.write_text(json.dumps(BIMETRIC))
    first = load_config(p)
    edited = json.loads(json.dumps(BIMETRIC))
    edited["metrics"][1]["components"][0][0] = "9"
    p.write_text(json.dumps(edited))
    second = load_config(p)
    assert second.space is not first.space
    assert second.space.metric_values([0.5, 0.5])[0][1].tolist() == [[9.0, 0.0], [0.0, 1.25]]
    assert first.space.metric_values([0.5, 0.5])[0][1].tolist() == [[4.0, 0.0], [0.0, 1.25]]
    # the first content is still kept
    p.write_text(json.dumps(BIMETRIC))
    assert load_config(p) is first


@pytest.mark.parametrize("text, message", [
    (json.dumps({**BIMETRIC, "metrics": [{"name": "alpha", "components": [["1", "0"], ["0", "-1"]]}]}),
     "SPD probe failed at box center"),
    (json.dumps(BIMETRIC)[:-1], "invalid JSON"),
    (b"\xff\xfe{", "not UTF-8 text"),
], ids=["spd", "json", "utf8"])
def test_an_invalid_config_raises_on_every_call(text, message, tmp_path, monkeypatch):
    p = tmp_path / "space.json"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    built = record_metric_builds(monkeypatch)
    for _ in range(3):
        with pytest.raises(ConfigError, match=message):
            load_config(p)
    assert len(built) == (3 if message.startswith("SPD") else 0)
    assert config_module._config_of_text.cache_info().currsize == 0


def test_more_distinct_configs_than_the_bound_evict_the_oldest(tmp_path):
    paths = []
    for seed in range(config_module._CONFIG_CACHE_SIZE + 1):
        paths.append(tmp_path / f"space-{seed}.json")
        paths[-1].write_text(json.dumps({**BIMETRIC, "sampling": {**BIMETRIC["sampling"], "seed": seed}}))
    loaded = [load_config(p) for p in paths]
    assert all(load_config(p) is cfg for p, cfg in zip(paths[1:], loaded[1:]))
    again = load_config(paths[0])
    assert again is not loaded[0] and again == loaded[0]
    assert config_module._config_of_text.cache_info().currsize == config_module._CONFIG_CACHE_SIZE


def test_a_second_benchmark_sample_in_one_process_equals_the_reference(tmp_path, monkeypatch):
    """The invariant_map items run twice in one process: the second run of each builds
    no metric and writes perfbench/reference/sample-*.csv byte for byte."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    items = workloads.WORKLOADS["invariant_map"](0, tmp_path)
    for item in items:
        item.run(item.argv)
    built = record_metric_builds(monkeypatch)
    for item in items:
        out = item.run(item.argv)
        assert item.check(out) == [], item.label
        reference = workloads.REFERENCE / f"sample-{item.config}.csv"
        assert next(iter(out.files.values())) == reference.read_bytes(), item.label
    assert built == []


@pytest.mark.parametrize("workload, seed", [
    pytest.param("invariant_map", 0, id="invariant_map"),
    pytest.param("geodesic_fan", 0, id="geodesic_fan"),
    pytest.param("geodesic_fan", 1, id="geodesic_fan-seed1"),
])
def test_benchmark_workload_outputs_pass_their_checks(workload, seed, tmp_path, monkeypatch):
    """The benchmark's sample and geodesic-fan items: every oracle check passes, at
    seed 0 also against the stored reference, where each sample CSV equals
    perfbench/reference/sample-*.csv byte for byte.  Seed 1 shoots the fans from
    another x0 and checks them against the oracles alone."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    for item in workloads.WORKLOADS[workload](seed, tmp_path):
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
