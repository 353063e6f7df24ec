"""End-to-end tests of the command-line pipelines: exit codes, report
and CSV artifacts, schema validity, and byte-level reproducibility."""

import json
import multiprocessing
import signal
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from levyreduce import pricing
from levyreduce.cli import RunConfig, run
from levyreduce.exceptions import CutoffTooSmall
from levyreduce.simulate import RngStream, simulate_original

from conftest import base_config

SCHEMA = json.loads(
    Path("src/levyreduce/schemas/report.schema.json").read_text()
)


def load_report(outdir):
    payload = json.loads((Path(outdir) / "report.json").read_text())
    jsonschema.validate(payload, SCHEMA)
    return payload


def item_status(payload, name):
    matches = [it for it in payload["items"] if it["name"] == name]
    assert matches, f"no report item named {name}"
    return matches[0]["status"]


class TestArgumentHandling:
    def test_unknown_subcommand_exits_2_with_usage(self, capsys, write_config, tmp_path):
        cfg = write_config(base_config())
        code = run(["frobnicate", cfg, str(tmp_path / "out")])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code = run(["check", str(tmp_path / "absent.json"), str(tmp_path / "out")])
        assert code == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_unparseable_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["check", str(bad), str(tmp_path / "out")])
        assert code == 2

    def test_config_missing_required_section_exits_2(self, write_config, tmp_path, capsys):
        doc = base_config()
        del doc["model"]
        code = run(["check", write_config(doc), str(tmp_path / "out")])
        assert code == 2

    def test_missing_outdir_exits_2(self, capsys, write_config, monkeypatch):
        monkeypatch.delenv("LEVYREDUCE_OUTDIR", raising=False)
        code = run(["check", write_config(base_config())])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_outdir_from_environment(self, write_config, tmp_path, monkeypatch):
        outdir = tmp_path / "envout"
        monkeypatch.setenv("LEVYREDUCE_OUTDIR", str(outdir))
        code = run(["check", write_config(base_config()), "--quiet"])
        assert code == 0
        assert (outdir / "report.json").exists()

    def test_pipeline_requiring_g_without_g_exits_2(self, capsys, write_config, tmp_path):
        doc = base_config()
        del doc["G"]
        code = run(["simulate", write_config(doc), str(tmp_path / "out")])
        assert code == 2
        assert "G section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--threads", "4"], ["--tol", "1e-6"]], ids=["threads", "tol"]
    )
    def test_removed_options_exit_2_with_usage(self, option, capsys, write_config, tmp_path):
        out = tmp_path / "out"
        assert run(["check", write_config(base_config()), str(out), *option, "--quiet"]) == 2
        assert "usage" in capsys.readouterr().err.lower()
        assert not (out / "report.json").exists()

    def test_quiet_suppresses_stdout(self, capsys, write_config, tmp_path):
        assert run(["check", write_config(base_config()), str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


def _negative_weight(doc):
    doc["model"]["spherical"]["atoms"]["weights"] = [0.5, -0.5]


def _non_unit_direction(doc):
    doc["model"]["spherical"]["atoms"]["directions"] = [[2.0, 0.0], [0.0, 1.0]]


def _negative_dt(doc):
    doc["simulation"]["dt"] = -0.01


def _unordered_g_table(doc):
    doc["G"] = {
        "kind": "tabulated",
        "points": [[1.0, [1.0, 1.0]], [0.0, [0.0, 0.0]], [2.0, [2.0, 2.0]]],
    }


def _misspelt_section(doc):
    doc["pricng"] = doc.pop("pricing")


def _quadrature_section(doc):
    doc["quadrature"] = {"rel_tol": 1e-6}


def _misspelt_key(section, key, typo):
    def patch(doc):
        doc[section][typo] = doc[section].pop(key)

    return patch


class TestUnknownKeysExit2:
    """A misspelt section or key used to fall back to its default."""

    @pytest.mark.parametrize(
        "patch",
        [
            _misspelt_section,
            _quadrature_section,
            _misspelt_key("model", "radial", "radail"),
            _misspelt_key("drift", "a", "A"),
            _misspelt_key("simulation", "x0", "x_0"),
            _misspelt_key("pricing", "tau_grid", "taus"),
        ],
        ids=["section", "quadrature", "model", "drift", "simulation", "pricing"],
    )
    @pytest.mark.parametrize("command", ["check", "price"])
    def test_unknown_key_exits_2(self, patch, command, write_config, tmp_path, capsys):
        doc = base_config()
        patch(doc)
        out = tmp_path / "out"
        assert run([command, write_config(doc), str(out), "--quiet"]) == 2
        assert "unknown" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def _set(path, value):
    """Patch that sets doc[path[0]]...[path[-1]] = value."""

    def patch(doc):
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value

    return patch


class TestNestedKeysExit2:
    """An unknown key below model, or in G, used to be ignored, so reduce
    exited 0 with the answer for the default value."""

    @pytest.mark.parametrize(
        "patch",
        [
            _set(("model", "radial", "scael"), 8.0),
            _set(("model", "radial", "points"), [[0.1, 1.0], [1.0, 1.0]]),
            _set(("model", "radial"), {"kind": "custom", "hints": [2.5, 2.5],
                                       "points": [[0.1, 1.0], [1.0, 1.0]]}),
            _set(("model", "spherical", "angular"), {"kind": "uniform"}),
            _set(("model", "spherical", "atoms", "weight"), [1.0, 1.0]),
            _set(("model", "spherical", "angular"), {"kind": "uniform", "points": []}),
            _set(("G", "exponnet"), 1.0),
            _set(("G", "points"), [[0.0, [0.0, 0.0]], [1.0, [1.0, 1.0]]]),
        ],
        ids=[
            "radial-typo", "radial-other-kind", "radial-hints", "atoms-and-angular",
            "atoms", "angular", "G-typo", "G-other-kind",
        ],
    )
    def test_refused_before_any_output(self, patch, write_config, tmp_path, capsys):
        doc = base_config()
        patch(doc)
        out = tmp_path / "out"
        assert run(["reduce", write_config(doc), str(out), "--quiet"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def test_seed_on_non_object_config_exits_2(write_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["check", write_config([1, 2]), str(out), "--seed", "3"]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (out / "report.json").exists()


class TestInvalidModelExits2:
    """Configs that used to run to exit 0 with a wrong answer."""

    @pytest.mark.parametrize(
        "patch, command",
        [
            (_negative_weight, "check"),
            (_negative_weight, "simulate"),
            (_non_unit_direction, "reduce"),
            (_negative_dt, "simulate"),
            (_unordered_g_table, "check"),
        ],
    )
    def test_rejected_before_any_output(self, patch, command, write_config, tmp_path, capsys):
        doc = base_config()
        patch(doc)
        out = tmp_path / "out"
        assert run([command, write_config(doc), str(out), "--quiet"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestNonFiniteNumbersExit2:
    """JSON accepts NaN, Infinity and overflowing literals, and float()
    and int() take quoted numbers, bools and fractions; these used to
    run to exit 0 with NaN paths or prices, cut a count to an integer,
    or end in a traceback."""

    @pytest.mark.parametrize(
        "path, literal, command",
        [
            (("simulation", "x0"), "NaN", "simulate"),
            (("simulation", "x0"), "NaN", "price"),
            (("model", "radial", "scale"), "1e999", "simulate"),
            (("G", "exponent"), "NaN", "simulate"),
            (("simulation", "dt"), "Infinity", "compare"),
            (("simulation", "horizon"), "Infinity", "simulate"),
            (("pricing", "tau_grid"), "[0.5, Infinity]", "compare"),
            (("drift", "b"), "NaN", "price"),
            (("simulation", "x0"), '"NaN"', "simulate"),
            (("simulation", "x0"), '"NaN"', "price"),
            (("drift", "b"), '"nan"', "simulate"),
            (("simulation", "n_paths"), "2000.7", "simulate"),
            (("simulation", "n_paths"), "true", "simulate"),
            (("simulation", "seed"), "1.9", "simulate"),
            (("model", "d"), "2.5", "simulate"),
        ],
        ids=lambda v: v[-1] if isinstance(v, tuple) else v,
    )
    def test_refused_before_any_output(self, path, literal, command, tmp_path, capsys):
        doc = base_config()
        _set(path, "@literal")(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc).replace('"@literal"', literal))
        out = tmp_path / "out"
        assert run([command, str(config), str(out), "--quiet"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_are_counts(self, write_config, tmp_path):
        doc = base_config()
        doc["model"]["d"] = 2.0
        doc["simulation"].update(n_paths=1e4, seed=10.0)
        cfg = RunConfig(doc)
        assert (cfg.spec.dimension, cfg.n_paths, cfg.seed) == (2, 10_000, 10)
        assert run(["check", write_config(doc), str(tmp_path / "out"), "--quiet"]) == 0

    def test_step_count_overflow_exits_2(self, write_config, tmp_path, capsys):
        # finite numbers whose ratio horizon / dt overflows to infinity
        doc = base_config()
        doc["simulation"].update(horizon=1e300, dt=1e-300)
        out = tmp_path / "out"
        assert run(["simulate", write_config(doc), str(out), "--quiet"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, simulation, taus",
        [
            ("price", {}, [-1.0, 0.5]),
            ("compare", {}, [0.0]),
            ("price", {}, []),
            ("compare", {"dt": 1e-300}, [0.5, 1e300]),
        ],
        ids=["negative", "no-positive", "empty", "step-count-overflow"],
    )
    def test_refused_maturities_exit_2(
        self, command, simulation, taus, write_config, tmp_path, capsys
    ):
        # refused before the model is reduced, not by the pricing stage
        doc = base_config(pricing={"tau_grid": taus})
        doc["simulation"].update(simulation)
        out = tmp_path / "out"
        assert run([command, write_config(doc), str(out), "--quiet"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


class TestCheckPipeline:
    def test_worked_example_passes(self, write_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["check", write_config(base_config()), str(out)])
        assert code == 0
        payload = load_report(out)
        assert payload["command"] == "check"
        assert payload["overall_pass"] is True
        names = {it["name"] for it in payload["items"]}
        assert {"martingale_moment", "jump_direction_sign", "balance_finite"} <= names

    def test_span_deficient_spherical_fails_named_item(self, write_config, tmp_path):
        doc = base_config()
        doc["model"]["spherical"] = {
            "atoms": {"directions": [[1.0, 0.0], [-1.0, 0.0]], "weights": [0.5, 0.5]}
        }
        del doc["G"]
        out = tmp_path / "out"
        code = run(["check", write_config(doc), str(out), "--quiet"])
        assert code == 1
        payload = load_report(out)
        assert payload["overall_pass"] is False
        assert item_status(payload, "variation_span") == "fail"

    def test_uniform_angular_spherical_parses(self, write_config, tmp_path):
        doc = base_config()
        doc["model"]["spherical"] = {"angular": {"kind": "uniform", "scale": 1.0}}
        del doc["G"]
        out = tmp_path / "out"
        assert run(["check", write_config(doc), str(out), "--quiet"]) == 0
        assert load_report(out)["overall_pass"] is True

    def test_tabulated_angular_density_matches_uniform(self, write_config, tmp_path):
        # a constant table over [0, 2pi], rows unsorted, is the uniform
        # angular law of scale 1
        reports = []
        for kind, angular in (
            ("uniform", {"kind": "uniform", "scale": 1.0}),
            ("tabulated", {"kind": "tabulated", "points": [[2.0 * np.pi, 1.0], [0.0, 1.0]]}),
        ):
            doc = base_config()
            doc["model"]["spherical"] = {"angular": angular}
            del doc["G"]
            out = tmp_path / kind
            assert run(["check", write_config(doc), str(out), "--quiet"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_tabulated_sections_parse(self, write_config, tmp_path):
        # tabulated radial table (a finite measure, so the variation
        # check would fail) combined with a tabulated G with G(0) = 0,
        # which waives the infinite-variation requirement
        doc = base_config()
        doc["model"]["radial"] = {
            "kind": "custom",
            "points": [[0.1, 1.0], [1.0, 1.0], [2.0, 0.0]],
        }
        doc["G"] = {
            "kind": "tabulated",
            "points": [[0.0, [0.0, 0.0]], [1.0, [1.0, 1.0]], [2.0, [1.5, 1.5]]],
        }
        out = tmp_path / "out"
        code = run(["check", write_config(doc), str(out), "--quiet"])
        assert code == 0
        payload = load_report(out)
        names = {it["name"] for it in payload["items"]}
        assert "infinite_variation_mass" not in names

    def test_tabulated_angular_density_requires_d2(self, write_config, tmp_path, capsys):
        doc = base_config()
        doc["model"]["d"] = 3
        doc["model"]["Q"] = [[0.0] * 3] * 3
        doc["model"]["spherical"] = {
            "angular": {"kind": "tabulated", "points": [[0.0, 1.0], [3.14, 1.0]]}
        }
        code = run(["check", write_config(doc), str(tmp_path / "out")])
        assert code == 2


class TestReducePipeline:
    def test_worked_example_model(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = run(["reduce", write_config(base_config()), str(out), "--quiet"])
        assert code == 0
        payload = load_report(out)
        assert payload["overall_pass"] is True
        assert "reduced.json" in payload["outputs"]
        model = json.loads((out / "reduced.json").read_text())
        assert model["alpha"] == pytest.approx(1.5, abs=1e-12)
        assert model["C"] == pytest.approx(1.0, abs=1e-12)
        assert model["a"] == -0.5
        assert model["b"] == 0.1

    def test_precondition_failure_reports_and_exits_1(self, write_config, tmp_path, capsys):
        doc = base_config()
        doc["model"]["spherical"] = {
            "atoms": {"directions": [[1.0, 0.0], [-1.0, 0.0]], "weights": [0.5, 0.5]}
        }
        out = tmp_path / "out"
        code = run(["reduce", write_config(doc), str(out)])
        assert code == 1
        payload = load_report(out)
        assert payload["overall_pass"] is False
        assert "error" in payload
        assert "refused" in capsys.readouterr().err


    # G whose direction jumps between e1 and e2 near zero
    UNSETTLED_G = {
        "kind": "tabulated",
        "points": [
            [0.0, [0.0, 0.0]], [1e-8, [1.0, 0.0]], [1e-7, [0.0, 1.0]],
            [1.0, [1.0, 1.0]], [10.0, [3.0, 3.0]],
        ],
    }

    @staticmethod
    def tempered_radial():
        r = np.geomspace(1e-4, 50.0, 400)
        return {
            "kind": "custom",
            "points": [[float(x), float(x**-2.5 * np.exp(-x))] for x in r],
        }

    @pytest.mark.parametrize("command", ["reduce", "price", "compare"])
    def test_unsettled_direction_writes_report(self, command, write_config, tmp_path):
        doc = base_config()
        doc["G"] = self.UNSETTLED_G
        out = tmp_path / "out"
        assert run([command, write_config(doc), str(out), "--quiet"]) == 1
        payload = load_report(out)
        assert payload["overall_pass"] is False
        assert "does not settle" in payload["error"]
        assert item_status(payload, "direction_limit") == "fail"

    def test_tempered_radial_refusal_writes_report(self, write_config, tmp_path):
        doc = base_config()
        doc["model"]["radial"] = self.tempered_radial()
        out = tmp_path / "out"
        assert run(["reduce", write_config(doc), str(out), "--quiet"]) == 1
        payload = load_report(out)
        assert payload["overall_pass"] is False
        assert "not affine" in payload["error"]
        assert payload["outputs"] == []


# G that vanishes on [0, 1e-6], so its direction at the probes is undefined
ZERO_NEAR_ORIGIN_G = {
    "kind": "tabulated",
    "points": [[0.0, [0.0, 0.0]], [1e-6, [0.0, 0.0]], [1.0, [1.0, 1.0]], [10.0, [3.0, 3.0]]],
}


class TestZeroVolatilityNearOrigin:
    @pytest.mark.parametrize("command", ["check", "reduce"])
    def test_direction_limit_fails_beside_the_suite(self, command, write_config, tmp_path):
        doc = base_config(G=ZERO_NEAR_ORIGIN_G)
        out = tmp_path / "out"
        assert run([command, write_config(doc), str(out), "--quiet"]) == 1
        payload = load_report(out)
        assert payload["overall_pass"] is False
        items = {it["name"]: it for it in payload["items"]}
        assert {"martingale_moment", "jump_direction_sign", "balance_finite"} <= set(items)
        assert [it["name"] for it in payload["items"] if it["status"] == "fail"] == [
            "direction_limit"
        ]
        assert "G(1e-07)" in items["direction_limit"]["detail"]
        assert ("error" in payload) == (command == "reduce")


def _one_atom(doc):
    # a single atom fails the span item; G(0) = 0 waives it
    doc["model"]["spherical"] = {"atoms": {"directions": [[1.0, 0.0]], "weights": [1.0]}}


def _unsettled(doc):
    doc["G"] = TestReducePipeline.UNSETTLED_G


def _span_deficient_g_nonzero_at_origin(doc):
    _one_atom(doc)
    doc["G"] = {
        "kind": "tabulated",
        "points": [[0.0, [1.0, 0.0]], [1.0, [2.0, 0.0]], [10.0, [11.0, 0.0]]],
    }


class TestOneHypothesisSuite:
    """check certifies exactly the hypotheses that reduce requires."""

    def test_one_atom_with_vanishing_volatility_reduces(self, write_config, tmp_path):
        doc = base_config()
        _one_atom(doc)
        cfg = write_config(doc)
        for command in ("check", "reduce", "price"):
            assert run([command, cfg, str(tmp_path / command), "--quiet"]) == 0, command
        model = json.loads((tmp_path / "reduce" / "reduced.json").read_text())
        assert model["C"] == pytest.approx(1.0, abs=1e-6)
        assert model["alpha"] == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize(
        "patch",
        [
            lambda doc: None,
            _one_atom,
            _unsettled,
            _span_deficient_g_nonzero_at_origin,
            lambda doc: doc.update(G=ZERO_NEAR_ORIGIN_G),
        ],
        ids=["worked", "one-atom", "unsettled", "span-deficient", "zero-near-origin"],
    )
    def test_check_passes_exactly_when_reduce_does_not_refuse(
        self, patch, write_config, tmp_path
    ):
        doc = base_config()
        patch(doc)
        cfg = write_config(doc)
        check_code = run(["check", cfg, str(tmp_path / "check"), "--quiet"])
        reduce_code = run(["reduce", cfg, str(tmp_path / "reduce"), "--quiet"])
        checked, reduced = load_report(tmp_path / "check"), load_report(tmp_path / "reduce")
        refused = "error" in reduced
        assert (check_code == 0) == (not refused)
        assert reduce_code == (1 if refused else 0)
        names = [[it["name"] for it in rep["items"]] for rep in (checked, reduced)]
        short, long = sorted(names, key=len)
        assert long[: len(short)] == short


class TestSimulatePipeline:
    def small_doc(self):
        return base_config(
            simulation={
                "x0": 1.0,
                "horizon": 0.2,
                "dt": 0.02,
                "n_paths": 50,
                "eps": 0.05,
                "seed": 3,
            }
        )

    def test_paths_csv_layout(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", write_config(self.small_doc()), str(out), "--quiet"])
        assert code == 0
        payload = load_report(out)
        assert payload["outputs"] == ["paths.csv"]
        assert payload["summary"]["n_paths"] == 50
        assert payload["summary"]["n_steps"] == 10
        # sampler statistics of the half-weight axis atoms at eps = 0.05
        summary = payload["summary"]
        assert summary["scheme"] == "compound_poisson"
        assert summary["cutoff"] == 0.05
        assert summary["jump_intensity"] == pytest.approx(0.05**-1.5 / 1.5, rel=1e-6)
        assert summary["dropped_variance"] == pytest.approx(2.0 * np.sqrt(0.05), rel=1e-6)
        lines = (out / "paths.csv").read_bytes().split(b"\n")
        assert lines[0] == b",".join(f"t_{k}".encode() for k in range(11))
        assert len(lines) == 52  # header + 50 rows + trailing newline
        assert b"\r" not in (out / "paths.csv").read_bytes()
        first = [float(v) for v in lines[1].split(b",")]
        assert first[0] == 1.0
        assert all(v >= 0.0 for v in first)

    def test_seed_flag_changes_paths(self, write_config, tmp_path):
        cfg = write_config(self.small_doc())
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        run(["simulate", cfg, str(out1), "--quiet"])
        run(["simulate", cfg, str(out2), "--quiet"])
        run(["simulate", cfg, str(out3), "--seed", "4", "--quiet"])
        p1 = (out1 / "paths.csv").read_bytes()
        assert p1 == (out2 / "paths.csv").read_bytes()
        assert p1 != (out3 / "paths.csv").read_bytes()

    def test_paths_csv_round_trips_the_float32_states(self, write_config, tmp_path):
        # states near 12: in [10, 16) float32 values lie closer together
        # (9.5e-7) than 8 significant digits can tell apart (1e-6)
        doc = self.small_doc()
        doc["simulation"]["x0"] = 12.0
        out = tmp_path / "out"
        assert run(["simulate", write_config(doc), str(out), "--quiet"]) == 0
        written = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
        cfg = RunConfig(doc)
        ens = simulate_original(
            cfg.volatility, cfg.spec, cfg.a, cfg.b, cfg.x0, cfg.eps,
            cfg.horizon, 10, cfg.n_paths, RngStream(cfg.seed),
        )
        assert np.array_equal(written.astype(np.float32), ens.values)


class TestPricePipeline:
    def test_term_structure_csv(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = run(["price", write_config(base_config()), str(out), "--quiet"])
        assert code == 0
        payload = load_report(out)
        assert payload["outputs"] == ["term_structure.csv"]
        lines = (out / "term_structure.csv").read_text().splitlines()
        assert lines[0] == "tau,A,B,price"
        assert len(lines) == 3
        for line in lines[1:]:
            tau, a_val, b_val, price = map(float, line.split(","))
            assert price == pytest.approx(np.exp(-a_val - b_val * 1.0), rel=1e-9)
            assert 0.0 < price <= 1.0

    def test_byte_identical_reruns(self, write_config, tmp_path):
        cfg = write_config(base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["price", cfg, str(out1), "--quiet"])
        run(["price", cfg, str(out2), "--quiet"])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (
            out1 / "term_structure.csv"
        ).read_bytes() == (out2 / "term_structure.csv").read_bytes()


class TestComparePipeline:
    def test_smoke_comparison(self, write_config, tmp_path):
        doc = base_config(
            simulation={
                "x0": 1.0,
                "horizon": 0.25,
                "dt": 0.005,
                "n_paths": 4000,
                "eps": 0.005,
                "seed": 10,
            },
            pricing={"tau_grid": [0.25]},
        )
        out = tmp_path / "out"
        code = run(["compare", write_config(doc), str(out), "--quiet"])
        assert code == 0
        payload = load_report(out)
        assert payload["outputs"] == ["comparison.csv"]
        assert item_status(payload, "price_match_tau_0.25") == "pass"
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "tau,A,B,price_riccati,price_mc,se"
        assert len(lines) == 2
        # 9.4 expected jumps per path-step on two atoms: exact increments,
        # so no cutoff and a band of 3 SE + dt
        summary = payload["summary"]
        assert summary["scheme"] == "exact_stable"
        assert summary["cutoff"] is None
        assert summary["jump_intensity"] is None
        assert summary["dropped_variance"] is None
        assert 0.0 <= summary["clamp_frequency"] < 1.0
        se = float(lines[1].split(",")[5])
        (band,) = [it["tolerance"] for it in payload["items"] if it["name"] == "price_match_tau_0.25"]
        assert band == pytest.approx(3.0 * se + 0.005, rel=1e-12)

    def test_outputs_do_not_depend_on_the_worker_count(
        self, write_config, tmp_path, monkeypatch
    ):
        # 20k paths are two path blocks, 2000 paths one; each is priced
        # in-process on one CPU, then on forked workers on two CPUs
        workers = []
        collect = pricing._MonteCarloLeg.collect

        def counted(leg):
            workers.append(len(leg.workers))
            return collect(leg)

        monkeypatch.setattr(pricing._MonteCarloLeg, "collect", counted)
        for n_paths, forked in ((20_000, 2), (2000, 1)):
            doc = base_config(
                simulation={
                    "x0": 1.0,
                    "horizon": 0.05,
                    "dt": 0.01,
                    "n_paths": n_paths,
                    "eps": 0.005,
                    "seed": 8,
                },
                pricing={"tau_grid": [0.025, 0.05]},
            )
            cfg = write_config(doc)
            outs = [tmp_path / f"{n_paths}-one", tmp_path / f"{n_paths}-two"]
            for cpus, out in zip((1, 2), outs):
                monkeypatch.setattr(pricing, "_usable_cpus", lambda c=cpus: c)
                assert run(["compare", cfg, str(out), "--quiet"]) == 0
            assert workers[-2:] == [0, forked]
            for name in ("report.json", "comparison.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_compound_poisson_summary_is_reproducible(self, write_config, tmp_path):
        # 1.2 expected jumps per path-step: the truncated sampler runs and
        # the summary names its slack; reruns are byte-identical
        doc = base_config(
            simulation={
                "x0": 1.0,
                "horizon": 0.2,
                "dt": 0.02,
                "n_paths": 500,
                "eps": 0.05,
                "seed": 3,
            },
            pricing={"tau_grid": [0.2]},
        )
        cfg = write_config(doc)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run(["compare", cfg, str(out), "--quiet"])
        summary = load_report(outs[0])["summary"]
        assert summary["scheme"] == "compound_poisson"
        assert summary["cutoff"] == 0.05
        assert summary["jump_intensity"] == pytest.approx(0.05**-1.5 / 1.5, rel=1e-6)
        assert summary["dropped_variance"] == pytest.approx(2.0 * np.sqrt(0.05), rel=1e-6)
        assert 0.0 <= summary["clamp_frequency"] < 1.0
        for name in ("report.json", "comparison.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCompareRefusalWithWorkers:
    """compare starts its Monte Carlo workers before it reduces; a
    refused reduction still gives the report of a refusal, and no worker
    outlives the pipeline."""

    @staticmethod
    def refused_config():
        # the tabulated tempered law over the axis atoms is not reducible;
        # its 100k steps of 2000 paths take about four times as long as
        # the refusal, so the worker is still stepping when it comes
        doc = base_config()
        doc["model"]["radial"] = TestReducePipeline.tempered_radial()
        doc["simulation"].update(dt=5e-6, n_paths=2000)
        return doc

    @staticmethod
    def refusal_of(command, cfg, out):
        assert run([command, cfg, str(out), "--quiet"]) == 1
        payload = load_report(out)
        del payload["command"]
        return payload

    def test_refused_reduction_stops_the_workers(self, write_config, tmp_path, monkeypatch):
        monkeypatch.setattr(pricing, "_usable_cpus", lambda: 2)
        stopped = []
        stop = pricing._MonteCarloLeg.stop

        def recorded(leg):
            stopped.extend(process for process, _ in leg.workers)
            stop(leg)

        monkeypatch.setattr(pricing._MonteCarloLeg, "stop", recorded)
        cfg = write_config(self.refused_config())
        compared = self.refusal_of("compare", cfg, tmp_path / "compare")
        assert len(stopped) == 1
        assert stopped[0].exitcode == -signal.SIGTERM
        assert multiprocessing.active_children() == []
        # the report is the refusal of the reduction alone
        assert "not affine" in compared["error"]
        assert compared == self.refusal_of("reduce", cfg, tmp_path / "reduce")

    def test_refused_reduction_wins_over_a_build_error(
        self, write_config, tmp_path, monkeypatch
    ):
        def refused(*args):
            raise CutoffTooSmall("tail intensity exceeds the budget")

        monkeypatch.setattr(pricing, "original_run", refused)
        cfg = write_config(base_config(G=TestReducePipeline.UNSETTLED_G))
        compared = self.refusal_of("compare", cfg, tmp_path / "compare")
        assert compared == self.refusal_of("reduce", cfg, tmp_path / "reduce")
        # a reduction that succeeds lets the held build error through
        compared = self.refusal_of("compare", write_config(base_config()), tmp_path / "built")
        assert compared["error"] == "tail intensity exceeds the budget"
        assert compared["items"] == []
