import json
import math
from pathlib import Path

import numpy as np
import pytest

from ddlab.cli import (
    CSV_COLUMNS,
    CurveRow,
    main,
    load_config,
    parse_spectrum_flag,
    preset_config,
    read_curve_csv,
    run_fig3,
    sweep_rows,
    write_curve_csv,
)
from ddlab.config import ConfigError, SweepConfig, default_m_grid


class TestConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 40, "d": 20}')
        cfg = load_config(path)
        assert cfg.sigma_noise == 1.0
        assert cfg.spectrum_kind == "isotropic"
        assert cfg.spectrum_params == [1.0 / 20]
        assert cfg.sampler == "rademacher"
        assert cfg.mode == "theory"
        assert cfg.m_grid == default_m_grid(40)

    def test_flags_over_file_fill_defaults_at_final_dims(self, tmp_path):
        def meta_after(doc, *flags):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "o.csv"
            assert main(["theory", "--config", str(cfg), *flags, "--out", str(out)]) == 0
            return json.loads(out.with_suffix(".meta.json").read_text())

        meta = meta_after({"n": 10, "d": 5}, "--d", "20", "--n", "40")
        assert meta["config"]["spectrum"]["params"] == [1.0 / 20]
        assert meta["normalizations"]["trace_sigma"] == pytest.approx(1.0)
        assert meta["config"]["m_grid"] == default_m_grid(40)
        explicit = {"n": 10, "d": 5, "spectrum": {"kind": "isotropic", "params": [0.5]}}
        meta = meta_after(explicit, "--d", "20")
        assert meta["config"]["spectrum"]["params"] == [0.5]
        assert meta["normalizations"]["trace_sigma"] == pytest.approx(10.0)

    def test_round_trip_identity(self, tmp_path):
        cfg = SweepConfig(
            n=30, d=60, sigma_noise=0.5, spectrum_kind="two_dirac",
            spectrum_params=[0.5, 1.0, 4.0], m_grid=[5, 10, 20],
            replications=7, sampler="gaussian", master_seed=9, mode="both",
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict(), indent=2))
        assert load_config(path) == cfg

    def test_schema_violation_names_field(self):
        with pytest.raises(ConfigError, match="m_grid\\[1\\]"):
            SweepConfig(n=10, d=5, m_grid=[5, -3])
        with pytest.raises(ConfigError, match="sampler"):
            SweepConfig(n=10, d=5, m_grid=[5], sampler="bogus")
        with pytest.raises(ConfigError, match="unknown field"):
            SweepConfig.from_dict({"n": 4, "d": 2, "bogus": 1})
        with pytest.raises(ConfigError, match="spectrum.kind"):
            SweepConfig(n=10, d=5, m_grid=[2], spectrum_kind="wavelet")

    def test_grid_exclusivity(self):
        with pytest.raises(ConfigError, match="only one"):
            SweepConfig(n=10, d=5, m_grid=[2], lambda_grid=[0.1])

    def test_fig4_preset_file_round_trip(self, tmp_path):
        preset = preset_config("fig4")
        path = tmp_path / "fig4.json"
        path.write_text(json.dumps(preset.to_dict(), indent=2))
        assert load_config(path) == preset

    @pytest.mark.parametrize("doc, field", [
        ({"spectrum": {"kind": "two_dirac", "params": [0.5]}}, r"^spectrum\.params:"),
        ({"spectrum": {"kind": "isotropic", "params": [1.0, 2.0]}}, r"^spectrum\.params:"),
        ({"spectrum": {"kind": "isotropic", "params": ["x"]}}, r"^spectrum\.params\[0\]:"),
        ({"replications": 2.7}, r"^replications:"),
        ({"n": True}, r"^n:"),
        ({"d": True}, r"^d:"),
        ({"sigma_noise": math.inf}, r"^sigma_noise:"),
        ({"sigma_noise": math.nan}, r"^sigma_noise:"),
        ({"lambda_grid": [0.1, math.inf]}, r"^lambda_grid\[1\]:"),
        ({"lambda_grid": [math.nan]}, r"^lambda_grid\[0\]:"),
        ({"spectrum": {"kind": "isotropic", "params": [math.inf]}}, r"^spectrum\.params\[0\]:"),
        ({"spectrum": {"kind": "two_dirac", "params": [0.5, 1.0, math.nan]}},
         r"^spectrum\.params\[2\]:"),
        ({"sigma_noise": 10**400}, r"^sigma_noise:"),
        ({"lambda_grid": [0.1, 10**400]}, r"^lambda_grid\[1\]:"),
        ({"spectrum": {"kind": "isotropic", "params": [10**400]}}, r"^spectrum\.params\[0\]:"),
        ({"signal": {"sed": 3}}, r"^signal\.sed:"),
        ({"signal": {"kind": "random_gaussian_normalized", "seed": 3, "seeds": 4}},
         r"^signal\.seeds:"),
        ({"spectrum": {"kind": "isotropic", "param": [1.0]}}, r"^spectrum\.param:"),
        ({"spectrum": {"kind": "power_law", "params": [0]}},
         r"^spectrum\.params\[0\]: alpha must be finite and exceed 1"),
        ({"spectrum": {"kind": "power_law", "params": [1.5, -2.0]}},
         r"^spectrum\.params\[1\]: tau must be finite and positive"),
        ({"spectrum": {"kind": "two_dirac", "params": [2, 1, 4]}},
         r"^spectrum\.params\[0\]: pi1 must lie in \[0, 1\]"),
        ({"spectrum": {"kind": "two_dirac", "params": [0.5, 1, 0]}},
         r"^spectrum\.params\[2\]: sigma2 must be finite and positive"),
        ({"spectrum": {"kind": "isotropic", "params": [-1]}},
         r"^spectrum\.params\[0\]: sigma must be finite and positive"),
    ], ids=["arity_short", "arity_long", "non_numeric", "fractional_reps", "bool_n", "bool_d",
            "inf_sigma", "nan_sigma", "inf_lambda", "nan_lambda", "inf_param", "nan_param",
            "huge_int_sigma", "huge_int_lambda", "huge_int_param", "unknown_signal_key",
            "unknown_signal_key_beside_known", "unknown_spectrum_key", "alpha_range",
            "tau_range", "pi1_range", "sigma2_range", "isotropic_range"])
    def test_schema_rejects_with_field_path(self, doc, field):
        with pytest.raises(ConfigError, match=field):
            SweepConfig.from_dict({"n": 10, "d": 5, **doc})

    def test_parse_spectrum_flag(self):
        assert parse_spectrum_flag("isotropic:1") == ("isotropic", [1.0])
        assert parse_spectrum_flag("two_dirac:0.5,1,4") == ("two_dirac", [0.5, 1.0, 4.0])
        assert parse_spectrum_flag("inverse_index") == ("inverse_index", [])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            CurveRow(
                m_or_lambda=10.0, delta=0.05, bias_theory=1.2345678901234567,
                var_theory=0.1, total_theory=1.3345678901234567, diverged_flag=0,
                bias_emp_mean=None, bias_emp_std=None, var_emp_mean=None,
                var_emp_std=None, reps_used=None, kappa=0.77,
            ),
            CurveRow(
                m_or_lambda=200.0, delta=1.0, bias_theory=math.inf,
                var_theory=math.inf, total_theory=math.inf, diverged_flag=1,
                bias_emp_mean=3.5, bias_emp_std=0.2, var_emp_mean=99.0,
                var_emp_std=12.0, reps_used=40, kappa=0.0,
            ),
        ]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert "\r" not in text
        back = read_curve_csv(path)
        for a, b in zip(rows, back):
            for col in CSV_COLUMNS:
                assert getattr(a, col) == getattr(b, col)

    def test_na_grid_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [CurveRow(m_or_lambda=1.0), CurveRow(m_or_lambda=2.0)])
        lines = path.read_text().splitlines()
        lines[2] = ",".join(["NA"] * len(CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"row 2, column m_or_lambda"):
            read_curve_csv(path)

    def test_na_for_absent_not_zero(self, tmp_path):
        cfg = SweepConfig(n=20, d=40, m_grid=[5, 30], mode="theory")
        rows, _, _ = sweep_rows(cfg)
        path = tmp_path / "t.csv"
        write_curve_csv(path, rows)
        back = read_curve_csv(path)
        for row in back:
            assert row.bias_emp_mean is None
            assert row.reps_used is None
            assert row.bias_theory is not None


class TestMain:
    def test_kappa_prints_one(self, capsys):
        code = main(["kappa", "--spectrum", "isotropic:1", "--gamma", "2", "--lambda", "0"])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1])
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_theory_subcommand_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "theory", "--n", "200", "--d", "400", "--sigma", "1",
            "--spectrum", "inverse_index", "--m-grid", "100,150", "--out", str(out),
        ])
        assert code == 0
        rows = read_curve_csv(out)
        assert rows[0].m_or_lambda == 100.0
        assert rows[0].var_theory == pytest.approx(1.0)
        assert rows[1].var_theory == pytest.approx(3.0)
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["config"]["n"] == 200
        assert "normalizations" in meta

    def test_empirical_subcommand_with_theory(self, tmp_path):
        out = tmp_path / "emp.csv"
        per_rep = tmp_path / "reps.csv"
        code = main([
            "empirical", "--n", "24", "--d", "12", "--sigma", "1",
            "--spectrum", "isotropic:0.1", "--m-grid", "6,18", "--reps", "3",
            "--master-seed", "3", "--with-theory", "--record-kappa",
            "--per-rep-out", str(per_rep), "--out", str(out),
        ])
        assert code == 0
        rows = read_curve_csv(out)
        assert all(r.reps_used == 3 for r in rows)
        assert all(r.var_emp_mean is not None for r in rows)
        assert all(r.var_theory is not None for r in rows)
        rep_lines = per_rep.read_text().strip().splitlines()
        assert rep_lines[0] == "grid_index,m_or_lambda,rep_index,bias,variance,kappa_hat"
        assert len(rep_lines) == 1 + 2 * 3
        # kappa recorded only where the projected covariance is invertible (m <= d)
        kappa_cells = {ln.split(",")[1]: ln.split(",")[-1] for ln in rep_lines[1:]}
        assert kappa_cells["6"] != "NA"
        assert kappa_cells["18"] == "NA"

    def test_lambda_grid_sweep(self, tmp_path):
        out = tmp_path / "ridge.csv"
        code = main([
            "theory", "--n", "100", "--d", "50", "--sigma", "1",
            "--spectrum", "isotropic:1", "--lambda-grid", "0,0.1,1", "--out", str(out),
        ])
        assert code == 0
        rows = read_curve_csv(out)
        assert rows[0].m_or_lambda == 0.0
        assert rows[0].var_theory == pytest.approx(1.0, rel=1e-10)  # d/(n-d)
        assert rows[0].delta is None

    def test_probe_traces_subcommand(self, tmp_path):
        out = tmp_path / "probes.csv"
        code = main([
            "probe-traces", "--n", "150", "--d", "150", "--spectrum", "isotropic:1",
            "--lambdas", "0.5", "--seeds", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "seed,lambda,name,lhs,rhs,rel_gap"
        assert len(lines) == 7

    def test_reproduce_fig3(self, tmp_path):
        code = main(["reproduce", "fig3", "--out", str(tmp_path / "f3")])
        assert code == 0
        rows = read_curve_csv(tmp_path / "f3" / "fig3.csv")
        gammas = sorted({r.delta for r in rows})
        assert gammas == [0.5, 1.0, 2.0]
        at_zero = {r.delta: r.kappa for r in rows if r.m_or_lambda == 0.0}
        assert at_zero[0.5] == pytest.approx(0.0, abs=1e-12)
        assert at_zero[2.0] == pytest.approx(1.0, abs=1e-10)
        meta = json.loads((tmp_path / "f3" / "fig3.meta.json").read_text())
        assert meta["preset"] == "fig3"

    def test_reproduce_fig2_meta_describes_the_run(self, tmp_path, monkeypatch):
        import functools

        import ddlab.cli as cli

        noises = []

        def recording_instance(sigma_noise, *args):
            noises.append(sigma_noise)
            return seeded_instance(sigma_noise, *args)

        seeded_instance = cli.seeded_instance
        monkeypatch.setattr(cli, "seeded_instance", recording_instance)
        monkeypatch.setattr(cli, "run_fig2", functools.partial(
            cli.run_fig2, n_values=(10,), deltas=(0.4, 2.0), realizations=2
        ))
        assert main(["reproduce", "fig2", "--out", str(tmp_path / "f2")]) == 0
        text = (tmp_path / "f2" / "fig2.meta.json").read_text()
        meta = json.loads(text)
        spec, _ = cli.fig2_theory_measures(10)
        assert spec.d == meta["gamma"] * 10
        assert spec.eigenvalues.tolist() == list(cli.FIG2_ATOMS)
        assert spec.weights.tolist() == [spec.d / 2] * 2
        assert meta["spectrum"] == cli.FIG2_SPECTRUM
        assert set(noises) == {meta["sigma_noise"]}
        # The bytes the study's meta has always carried.
        for line in ('"gamma": 2.0,', '"sigma_noise": 1.0,',
                     '"spectrum": "two atoms at 1 and 4, equal halves"'):
            assert line in text

    def test_usage_errors_exit_one(self, capsys, tmp_path, monkeypatch):
        assert main(["kappa", "--spectrum", "isotropic:1"]) == 1
        assert main(["theory", "--out", "x.csv"]) == 1
        assert main(["bogus-command"]) == 1
        # Every command checks a kind's parameter count; kappa has no path
        # flag for a file spectrum.
        for spectrum in ("isotropic:1,2", "two_dirac:0.5", "file"):
            assert main(["kappa", "--spectrum", spectrum, "--gamma", "2"]) == 1
        assert main([
            "theory", "--n", "10", "--d", "15", "--spectrum", "isotropic:1,2",
            "--m-grid", "5", "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert "spectrum.params" in capsys.readouterr().err
        # A gamma that is not finite and positive, or that rounds to d = 0,
        # and a zero dimension are usage errors, not crashes.
        for dims in (["--gamma", "inf"], ["--gamma", "0"], ["--gamma", "1e-9"],
                     ["--n", "10", "--d", "0"]):
            assert main(["kappa", "--spectrum", "isotropic", *dims]) == 1
        # A Monte Carlo sweep without replications would write only NA columns.
        assert main([
            "empirical", "--n", "10", "--d", "20", "--m-grid", "5,15",
            "--out", str(tmp_path / "e.csv"),
        ]) == 1
        assert "--reps" in capsys.readouterr().err
        # Non-finite numbers are rejected at the schema, naming the field.
        for flags, field in ((["--lambda-grid", "inf"], "lambda_grid[0]"),
                             (["--lambda-grid", "0.1,nan"], "lambda_grid[1]"),
                             (["--sigma", "inf"], "sigma_noise"),
                             (["--spectrum", "isotropic:inf"], "spectrum.params[0]")):
            for command in (["theory"], ["empirical", "--reps", "2"]):
                assert main([
                    *command, "--n", "20", "--d", "40", *flags, "--out", str(tmp_path / "n.csv"),
                ]) == 1, (command, flags)
                assert field in capsys.readouterr().err
        # probe-traces checks its flags before building the instance.
        def no_build(config):
            raise AssertionError("instance built before the flags were checked")

        monkeypatch.setattr("ddlab.cli.build_instance", no_build)
        bad = [("--seeds", v) for v in ("0", "-1")]
        bad += [("--lambdas", v) for v in ("inf", "0.1,nan", "0", "-1")]
        for flag, value in bad:
            assert main([
                "probe-traces", "--n", "20", "--d", "40", flag, value,
                "--out", str(tmp_path / "p.csv"),
            ]) == 1, (flag, value)
            assert flag in capsys.readouterr().err
        # A list flag whose value does not parse is named in the error.
        for command, flag, value in (
            (["theory"], "--m-grid", "5,1.5"), (["theory"], "--m-grid", ""),
            (["empirical", "--reps", "2"], "--lambda-grid", "0.1,x"),
            (["theory"], "--spectrum", "two_dirac:0.5,one,4"),
            (["probe-traces"], "--lambdas", "0.1,,1"),
        ):
            assert main([
                *command, "--n", "20", "--d", "40", flag, value, "--out", str(tmp_path / "u.csv"),
            ]) == 1, (command, flag, value)
            assert capsys.readouterr().err.startswith(f"error: {flag}: "), (command, flag)
        assert main(["kappa", "--spectrum", "isotropic:x", "--gamma", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: --spectrum: ")
        # An out-of-range spectrum parameter is named by its schema path, or
        # by the flag where a command has no config schema.
        for spectrum, field in (("power_law:0", "spectrum.params[0]"),
                                ("two_dirac:2,1,4", "spectrum.params[0]"),
                                ("isotropic:inf", "spectrum.params[0]"),
                                ("file", "spectrum.path")):
            assert main([
                "theory", "--n", "20", "--d", "40", "--spectrum", spectrum,
                "--out", str(tmp_path / "r.csv"),
            ]) == 1
            assert capsys.readouterr().err.startswith(f"error: {field}: "), spectrum
            probe = ["probe-traces", "--n", "20", "--d", "40", "--out", str(tmp_path / "r.csv")]
            for argv in (["kappa", "--gamma", "2"], probe):
                assert main([*argv, "--spectrum", spectrum]) == 1
                assert capsys.readouterr().err.startswith("error: --spectrum: "), (argv, spectrum)

    def test_empirical_builds_instance_once(self, tmp_path, monkeypatch):
        import ddlab.cli
        import ddlab.empirical

        calls = []
        original = ddlab.empirical.build_instance

        def counting(config):
            calls.append(config)
            return original(config)

        formed = []
        matrix = ddlab.empirical.seeded_reflectors

        def counting_matrix(d, seed):
            formed.append(seed)
            return matrix(d, seed)

        monkeypatch.setattr(ddlab.empirical, "build_instance", counting)
        monkeypatch.setattr(ddlab.cli, "build_instance", counting)
        monkeypatch.setattr(ddlab.empirical, "seeded_reflectors", counting_matrix)
        code = main([
            "empirical", "--n", "12", "--d", "8", "--spectrum", "inverse_index",
            "--m-grid", "4", "--reps", "2", "--with-theory", "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 0
        assert len(calls) == 1
        assert len(formed) == 1

    def test_theory_sweep_never_forms_basis(self, tmp_path, monkeypatch):
        import ddlab.empirical
        from ddlab.spectrum import SignalMeasure, Spectrum, spectrum_to_json

        def no_matrix(*args, **kwargs):
            raise AssertionError("d x d basis drawn or factored in a theory sweep")

        monkeypatch.setattr(ddlab.empirical, "seeded_reflectors", no_matrix)
        monkeypatch.setattr(np.linalg, "qr", no_matrix)
        spec = Spectrum(eigenvalues=np.array([0.5, 2.0]), weights=np.array([40.0, 20.0]), d=60)
        measures = tmp_path / "measures.json"
        measures.write_text(spectrum_to_json(spec, SignalMeasure(masses=np.array([0.8, 1.2]))))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 30, "d": 60, "spectrum": {"kind": "file", "path": str(measures)},
            "signal": {"kind": "aligned_file"},
        }))
        base = ["theory", "--n", "30", "--d", "60", "--spectrum", "inverse_index"]
        for argv in (
            [*base, "--m-grid", "10,29,31,90"],
            [*base, "--lambda-grid", "0,0.01,1"],
            ["theory", "--config", str(cfg), "--m-grid", "10,29,31,90"],
            ["theory", "--config", str(cfg), "--lambda-grid", "0,0.01,1"],
        ):
            assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 0, argv

    def test_probe_traces_never_form_dense_covariance(self, tmp_path, monkeypatch):
        import ddlab.empirical

        def no_dense(self):
            raise AssertionError("dense Sigma or Sigma^(1/2) formed for the probes")

        monkeypatch.setattr(ddlab.empirical.ProblemInstance, "covariance", no_dense)
        monkeypatch.setattr(ddlab.empirical.ProblemInstance, "sqrt_covariance", no_dense)
        for n, d in ((40, 60), (60, 40), (50, 50)):
            out = tmp_path / f"probes-{n}-{d}.csv"
            assert main([
                "probe-traces", "--n", str(n), "--d", str(d), "--spectrum", "two_dirac:0.5,1,4",
                "--lambdas", "0.1,1", "--seeds", "2", "--out", str(out),
            ]) == 0, (n, d)
            assert len(out.read_text().strip().splitlines()) == 1 + 2 * 2 * 6

    @pytest.mark.parametrize("argv", [
        ["theory", "--n", "20", "--d", "40", "--m-grid", "10,30"],
        ["probe-traces", "--n", "20", "--d", "40", "--lambdas", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_commands_pin_heap_thresholds(self, argv, tmp_path, monkeypatch):
        # main pins glibc's heap thresholds once, before any handler runs.
        import ddlab.cli

        calls = []
        handler = getattr(ddlab.cli, "_cmd_" + argv[0].replace("-", "_"))

        def handling(args):
            assert calls == ["pinned"]
            return handler(args)

        monkeypatch.setattr(ddlab.cli, "pin_heap_thresholds", lambda: calls.append("pinned"))
        monkeypatch.setattr(ddlab.cli, handler.__name__, handling)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == ["pinned"]

    def test_probe_traces_form_basis_only_for_many_draws(self, tmp_path, monkeypatch):
        # Up to _ROTATIONS_PER_BASIS draws are rotated from the reflectors
        # and Q is never formed; past it, Q is formed once and every draw
        # multiplies by it.  Both give the first draw's traces at roundoff.
        import csv

        import ddlab.cli
        import ddlab.empirical

        formed = []
        accumulate = ddlab.empirical.householder_q

        def counting(raw, tau):
            formed.append(raw.shape)
            return accumulate(raw, tau)

        monkeypatch.setattr(ddlab.empirical, "householder_q", counting)
        many = ddlab.cli._ROTATIONS_PER_BASIS + 1
        lhs = {}
        for n, d in ((40, 60), (60, 40)):
            for seeds, forms in ((1, 0), (many, 1)):
                formed.clear()
                out = tmp_path / f"probes-{n}-{d}-{seeds}.csv"
                assert main([
                    "probe-traces", "--n", str(n), "--d", str(d), "--spectrum", "two_dirac:0.5,1,4",
                    "--lambdas", "0.1,1", "--seeds", str(seeds), "--out", str(out),
                ]) == 0
                assert len(formed) == forms, (n, d, seeds)
                with open(out, newline="", encoding="utf-8") as fh:
                    lhs[seeds] = [float(r["lhs"]) for r in csv.DictReader(fh) if r["seed"] == "0"]
            assert len(lhs[1]) == 12
            np.testing.assert_allclose(lhs[1], lhs[many], rtol=1e-12)

    def test_outputs_create_missing_directories(self, tmp_path, monkeypatch):
        # The replication stream goes to a directory other than --out's.
        monkeypatch.chdir(tmp_path)
        assert main([
            "empirical", "--n", "10", "--d", "20", "--m-grid", "5,15", "--reps", "2",
            "--out", "out/s.csv", "--per-rep-out", "sub/reps.csv",
        ]) == 0
        assert (tmp_path / "out" / "s.meta.json").is_file()
        rep_lines = (tmp_path / "sub" / "reps.csv").read_text().splitlines()
        assert rep_lines[0] == "grid_index,m_or_lambda,rep_index,bias,variance,kappa_hat"
        assert len(rep_lines) == 1 + 2 * 2

    def test_every_meta_carries_artifact_version(self, tmp_path, monkeypatch):
        import functools

        import ddlab
        import ddlab.cli

        toy_fig2 = functools.partial(
            ddlab.cli.run_fig2, n_values=(10,), deltas=(0.4, 2.0), realizations=2
        )
        monkeypatch.setattr(ddlab.cli, "run_fig2", toy_fig2)
        sweep = ["--n", "10", "--d", "15", "--m-grid", "5,20"]
        for argv in (
            ["theory", *sweep, "--out", str(tmp_path / "theory" / "t.csv")],
            ["empirical", *sweep, "--reps", "2", "--out", str(tmp_path / "empirical" / "e.csv")],
            ["probe-traces", "--n", "20", "--d", "30", "--out", str(tmp_path / "probes" / "p.csv")],
            ["reproduce", "fig2", "--out", str(tmp_path / "fig2")],
            ["reproduce", "fig3", "--out", str(tmp_path / "fig3")],
        ):
            assert main(argv) == 0, argv
        metas = sorted(tmp_path.rglob("*.meta.json"))
        assert [p.parent.name for p in metas] == ["empirical", "fig2", "fig3", "probes", "theory"]
        for path in metas:
            assert json.loads(path.read_text())["artifact_version"] == ddlab.__version__

    @pytest.mark.parametrize("d", [40, 12])
    def test_record_kappa_on_lambda_grid_fills_kappa_hat(self, tmp_path, d):
        # The estimate fills kappa_hat and moves no risk: the sweep CSV is
        # byte-identical, and so is every other replication column.
        runs = []
        for flags in ((), ("--record-kappa",)):
            out, reps = tmp_path / f"ridge{len(flags)}.csv", tmp_path / f"reps{len(flags)}.csv"
            assert main([
                "empirical", "--n", "20", "--d", str(d), "--lambda-grid", "0,0.1,1", "--reps", "2",
                *flags, "--per-rep-out", str(reps), "--out", str(out),
            ]) == 0
            lines = reps.read_text().strip().splitlines()
            runs.append((out.read_bytes(), [line.rsplit(",", 1) for line in lines[1:]]))
        (plain_csv, plain_reps), (kappa_csv, kappa_reps) = runs
        assert kappa_csv == plain_csv
        assert [row[0] for row in kappa_reps] == [row[0] for row in plain_reps]
        assert {row[1] for row in plain_reps} == {"NA"}
        kappas = [float(row[1]) for row in kappa_reps]
        assert len(kappas) == 6 and all(math.isfinite(k) and k >= 0 for k in kappas)
        # Below rank n at lambda = 0 the estimate is 0; elsewhere positive.
        assert all((k == 0) == (d < 20 and i < 2) for i, k in enumerate(kappas))

    def test_linalg_error_exit_two(self, tmp_path, capsys, monkeypatch):
        import ddlab.cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(ddlab.cli, "run_fig3", singular)
        assert main(["reproduce", "fig3", "--out", str(tmp_path / "f3")]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: Singular matrix")

    def test_unconverged_kappa_exit_two(self, capsys, monkeypatch):
        import ddlab.selfconsistent

        monkeypatch.setattr(ddlab.selfconsistent, "_NEWTON_CAP", 1)
        argv = ["kappa", "--spectrum", "inverse_index", "--n", "200", "--d", "400"]
        assert main([*argv, "--dof-target", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: kappa solve did not converge")

    def test_threads_below_one_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DDLAB_THREADS", "-4")
        assert main([
            "empirical", "--n", "10", "--d", "20", "--m-grid", "5,15", "--reps", "2",
            "--out", str(tmp_path / "e.csv"),
        ]) == 1
        assert "DDLAB_THREADS" in capsys.readouterr().err

    def test_unreadable_config_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["theory", "--config", str(missing), "--out", str(tmp_path / "o.csv")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 10}')
        assert main(["theory", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
        capsys.readouterr()
        # An integer no float can hold is a schema error, not an OverflowError.
        bad.write_text('{"n": 10, "d": 5, "sigma_noise": 1' + "0" * 400 + "}")
        assert main(["theory", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: sigma_noise:")


class TestFig3Rows:
    def test_kappa_increasing_in_lambda(self):
        rows = [r for r in run_fig3() if r.delta == 1.0]
        kappas = [r.kappa for r in rows]
        assert all(a < b for a, b in zip(kappas, kappas[1:]))


class TestFig2Driver:
    def test_small_scale_tables_and_summary(self):
        from ddlab.cli import run_fig2

        tables, summary = run_fig2(n_values=(10,), deltas=(0.4, 2.0), realizations=2)
        rows = tables[10]
        assert [r.m_or_lambda for r in rows] == [4.0, 20.0]
        assert all(r.reps_used == 2 for r in rows)
        assert all(r.bias_theory is not None for r in rows)
        assert set(summary[10]) == {
            "mean_abs_gap_bias", "mean_abs_gap_variance",
            "gap_of_means_bias", "gap_of_means_variance",
        }

    def test_draws_follow_the_sweep_replication_rule(self, monkeypatch):
        import ddlab.empirical
        from ddlab.cli import run_fig2
        from ddlab.empirical import RankDeficientDesignError

        original = ddlab.empirical.conditional_risk_projected
        draws = []

        # Draws run realization by realization: (r0, 0.4), (r0, 2.0), (r1, 0.4), ...
        def patched(*args, **kwargs):
            k = len(draws)
            bias, variance = original(*args, **kwargs)
            if k == 2:
                draws.append(None)
                raise RankDeficientDesignError("projected design lost rank")
            bias = {1: -1e-12}.get(k, bias)
            variance = {0: math.nan}.get(k, variance)
            draws.append((bias, variance))
            return bias, variance

        monkeypatch.setattr(ddlab.empirical, "conditional_risk_projected", patched)
        # The draw counter needs the draws in order, on one worker.
        monkeypatch.setenv("DDLAB_THREADS", "1")
        tables, summary = run_fig2(n_values=(10,), deltas=(0.4, 2.0), realizations=3)
        small, large = tables[10]
        # A NaN variance and a rank-deficient draw are excluded ...
        assert small.reps_used == 1
        assert small.bias_emp_mean == draws[4][0]
        assert math.isnan(small.bias_emp_std)
        # ... and so is a negative bias, however small.
        assert large.reps_used == 2
        assert large.bias_emp_mean == pytest.approx(np.mean([draws[3][0], draws[5][0]]))
        assert all(math.isfinite(v) for v in summary[10].values())

    def test_thread_count_does_not_change_results(self, monkeypatch):
        from ddlab.cli import run_fig2

        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DDLAB_THREADS", threads)
            runs.append(run_fig2(n_values=(10,), deltas=(0.4, 2.0), realizations=3))
        (tables_1, summary_1), (tables_2, summary_2) = runs
        assert tables_1 == tables_2
        assert summary_1 == summary_2

    def test_kappa_dof_target_subcommand(self, capsys):
        # Single atom at 1 with d = 2n: df1(kappa) = n/2 gives kappa = 3.
        code = main([
            "kappa", "--spectrum", "isotropic:1", "--gamma", "2",
            "--dof-target", "0.5",
        ])
        assert code == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(3.0, abs=1e-9)


class TestPresetNormalizations:
    @pytest.mark.parametrize("name", ["fig1", "fig4", "fig5"])
    def test_unit_trace_and_signal(self, name):
        from ddlab.empirical import build_instance

        cfg = preset_config(name)
        inst = build_instance(cfg)
        assert float(np.sum(inst.sigma_eigs)) == pytest.approx(1.0, rel=1e-9)
        assert inst.signal_strength() == pytest.approx(1.0, rel=1e-9)
        assert cfg.n == 200 and cfg.d == 400
        assert cfg.n in cfg.m_grid and 4 * cfg.n in cfg.m_grid

    def test_fig1_noise_quarter(self):
        cfg = preset_config("fig1")
        assert cfg.sigma_noise**2 == pytest.approx(0.25)
        assert cfg.replications == 400

    def test_fig1_metadata_normalizations(self):
        from ddlab.cli import _sweep_metadata
        from ddlab.empirical import build_instance

        cfg = preset_config("fig1")
        meta = _sweep_metadata(cfg, build_instance(cfg))
        norms = meta["normalizations"]
        assert norms["signal_strength"] == pytest.approx(1.0, rel=1e-9)
        assert norms["trace_sigma"] == pytest.approx(1.0, rel=1e-9)
        assert norms["noise_variance"] == pytest.approx(0.25)
        assert meta["config"]["spectrum"]["kind"] == "inverse_index"

    def test_fig4_eigenvalues_inverse_index(self):
        from ddlab.empirical import build_instance

        inst = build_instance(preset_config("fig4"))
        ratio = inst.sigma_eigs[0] / inst.sigma_eigs[9]
        assert ratio == pytest.approx(10.0, rel=1e-9)


# Runs in a fresh interpreter, so modules another test imported do not count.
_NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from ddlab.cli import main
from ddlab.spectrum import SignalMeasure, Spectrum, spectrum_to_json

out = Path(sys.argv[1])
spec = Spectrum(eigenvalues=np.array([0.5, 2.0]), weights=np.array([8.0, 4.0]), d=12)
(out / "measures.json").write_text(spectrum_to_json(spec, SignalMeasure(masses=np.array([0.8, 1.2]))))
(out / "aligned.json").write_text(json.dumps({
    "n": 10, "d": 12, "spectrum": {"kind": "file", "path": str(out / "measures.json")},
    "signal": {"kind": "aligned_file"},
}))
sweep = ["--n", "10", "--d", "12", "--spectrum", "inverse_index"]
for argv in (
    ["theory", *sweep, "--m-grid", "4,10,20", "--out", str(out / "t_m.csv")],
    ["theory", *sweep, "--lambda-grid", "0,0.1", "--out", str(out / "t_l.csv")],
    ["empirical", *sweep, "--m-grid", "4,20", "--reps", "2", "--with-theory",
     "--record-kappa", "--out", str(out / "e_m.csv")],
    ["empirical", *sweep, "--lambda-grid", "0,0.1", "--reps", "2", "--out", str(out / "e_l.csv")],
    ["empirical", "--config", str(out / "aligned.json"), "--m-grid", "4,20", "--reps", "2",
     "--with-theory", "--out", str(out / "e_a.csv")],
    ["probe-traces", *sweep, "--lambdas", "0.1", "--seeds", "1", "--out", str(out / "p.csv")],
    ["kappa", "--spectrum", "isotropic:1", "--gamma", "2", "--lambda", "0"],
    ["reproduce", "fig3", "--out", str(out / "fig3")],
):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_load_no_scipy(tmp_path):
    # numpy's OpenBLAS is the only BLAS a ddlab process loads; scipy would
    # bring a second one with its own thread pool.
    import os
    import subprocess
    import sys

    import ddlab

    src = str(Path(ddlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
