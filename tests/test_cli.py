import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblab import cli
from gblab import estimator as est
from gblab.errors import ConfigError

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


ESTIMATE_CFG = """
# quick disk run
model = ball
model.dimension = 2
model.radius = 1.0
t = 0.08
base_points = 12
bridges = 40
steps = 40
seed = 4242
workers = 1
output_dir = {out}
formats = json
"""


class TestConfigParsing:
    def test_parse_key_values(self):
        raw = cli.parse_config_text("a = 1\n# comment\nb = x,y\n\nc = 2.5 # trailing\n")
        assert raw == {"a": "1", "b": "x,y", "c": "2.5"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("a = 1\na = 2\n")

    def test_missing_seed_names_the_key(self, tmp_path):
        raw = {"model": "ball", "t": "0.1", "base_points": "4", "bridges": "4"}
        with pytest.raises(ConfigError) as err:
            cli.resolve_config(raw, "estimate-chi")
        assert "seed" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            cli.resolve_config({"seed": "1", "bogus": "2"}, "cancellation-suite")
        assert "bogus" in str(err.value)

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config({"experiment": "calibrate", "seed": "1"}, "diagnostics")

    def test_wrong_experiment_key_rejected(self):
        raw = {"seed": "1", "t": "0.1", "dimension": "2"}
        with pytest.raises(ConfigError):
            cli.resolve_config(raw, "calibrate")

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_serial_workers_accepted_by_every_experiment(self, experiment):
        required = {"estimate-chi": ESTIMATE_SMALL, "local-limit": LOCAL_SMALL,
                    "calibrate": {"dimension": "2"}}.get(experiment, {"seed": "1"})
        raw = dict(required)
        assert "workers" not in cli.resolve_config(raw, experiment)  # no default to echo
        assert cli.resolve_config({**raw, "workers": "1"}, experiment)["workers"] == 1


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        out = cli.canonical_json({"b": 0.1, "a": [1, 2.5, None], "c": {"y": True, "x": "s"}})
        assert out == '{"a":[1,2.5,null],"b":0.10000000000000001,"c":{"x":"s","y":true}}'

    def test_seventeen_digits_round_trip(self):
        values = [math.pi, 1/3, 1e-17, 6.02e23, -0.0, 2.0**-52]
        text = cli.canonical_json(values)
        back = json.loads(text)
        assert all(a == b for a, b in zip(back, values))


class TestRunEstimate:
    def test_run_writes_report_with_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ESTIMATE_CFG.format(out=tmp_path / "out"))
        code = cli.run(cfg, "estimate-chi")
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["experiment"] == "estimate-chi"
        report = json.loads((tmp_path / "out" / "estimate-chi.json").read_text())
        assert report["reference"] == 1.0
        assert "estimate" in report
        assert report["artifact_version"]
        assert len(report["config_sha256"]) == 64
        assert report["config"]["seed"] == 4242
        assert "wall_time_seconds" not in report
        jsonschema.validate(report, SCHEMA)

    @pytest.mark.parametrize("experiment, text", [
        ("estimate-chi", ESTIMATE_CFG),
        # the free walks and recorded paths of diagnostics
        ("diagnostics", "samples = 60\nseed = 11\noutput_dir = {out}\n"),
    ], ids=["estimate-chi", "diagnostics"])
    def test_byte_identical_reruns(self, tmp_path, experiment, text):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cfg1 = write_config(tmp_path, text.format(out=out1), "a.cfg")
        cfg2 = write_config(tmp_path, text.format(out=out1), "b.cfg")
        assert cli.run(cfg1, experiment) == 0
        first = (out1 / f"{experiment}.json").read_bytes()
        assert cli.run(cfg2, experiment, output_dir=out2) == 0
        second = (out2 / f"{experiment}.json").read_bytes()
        assert first == second

    def test_missing_seed_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model = ball\nt = 0.1\nbase_points = 2\nbridges = 2\n")
        code = cli.run(cfg, "estimate-chi")
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["kind"] == "validation"
        assert "seed" in err["error"]["message"]

    def test_numerical_abort_exits_three(self, tmp_path, capsys):
        # a lifetime far below the series floor triggers the convergence error
        cfg = write_config(
            tmp_path,
            "model = ball\nmodel.dimension = 2\nt = 0.00001\nbase_points = 2\n"
            f"bridges = 2\nsteps = 10\nseed = 1\noutput_dir = {tmp_path/'out'}\n",
        )
        code = cli.run(cfg, "estimate-chi")
        assert code == 3
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["kind"] == "numerical"
        assert "terms); increase t" in err["error"]["message"]

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
        cfg = write_config(tmp_path, ESTIMATE_CFG.format(out=tmp_path / "ignored"))
        assert cli.run(cfg, "estimate-chi") == 0
        assert (target / "estimate-chi.json").exists()


class TestLocalLimitRender:
    def test_csv_columns_and_schema(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "model = ball\nmodel.dimension = 2\npoint = boundary\n"
            "t_sequence = 0.06,0.03\nbridges = 60\nsteps = 40\ndepth_nodes = 3\n"
            f"seed = 7\noutput_dir = {out}\nformats = json,csv\n",
        )
        assert cli.run(cfg, "local-limit") == 0
        report = json.loads((out / "local-limit.json").read_text())
        jsonschema.validate(report, SCHEMA)
        lines = (out / "local-limit.csv").read_text().splitlines()
        assert lines[0].startswith("# gblab ")
        assert lines[1] == "t,value,stderr,analytic,ratio"
        assert len(lines) == 2 + 2
        # csv rows parse as floats
        for line in lines[2:]:
            parts = line.split(",")
            assert len(parts) == 5
            float(parts[0])

    def test_interior_point_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "model = hemisphere\nmodel.dimension = 2\npoint = interior\n"
            "t_sequence = 0.05\nbridges = 50\nsteps = 30\n"
            f"seed = 9\noutput_dir = {out}\n",
        )
        assert cli.run(cfg, "local-limit") == 0
        report = json.loads((out / "local-limit.json").read_text())
        assert report["point_kind"] == "interior"


class TestCalibrateAndSuites:
    def test_calibrate_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"dimension = 2\noutput_dir = {out}\n")
        assert cli.run(cfg, "calibrate") == 0
        report = json.loads((out / "calibrate.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert abs(report["bulk_constant"] + 1.0 / (4 * math.pi)) < 1e-12
        assert abs(report["boundary_constants"]["k0_l1"] + 1.0 / (2 * math.pi)) < 1e-12

    def test_cancellation_suite_zero_failures(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"dims = 2,3,4\ninstances = 5\nseed = 3\noutput_dir = {out}\n",
        )
        assert cli.run(cfg, "cancellation-suite") == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["failures"] == 0
        report = json.loads((out / "cancellation-suite.json").read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["summary"] == "0 failures"
        assert report["cases"] > 0

    def test_diagnostics_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"samples = 400\nseed = 11\noutput_dir = {out}\n")
        assert cli.run(cfg, "diagnostics") == 0
        report = json.loads((out / "diagnostics.json").read_text())
        jsonschema.validate(report, SCHEMA)
        names = {c["name"] for c in report["checks"]}
        assert {"local_time_exponent", "holonomy_slope",
                "confinement_monotone", "epsilon_jump_convergence"} <= names
        assert report["passed"] is True

    @pytest.mark.parametrize("guard", ["confinement_monotone", "epsilon_jump_convergence",
                                       "epsilon_penalty_not_converging"])
    def test_diagnostics_guards_fire(self, tmp_path, capsys, monkeypatch, guard):
        # no loop leaving the ball, no path touching the boundary, or a penalty that does not
        # reach the exact jump as eps falls fails the check
        check = guard if guard == "confinement_monotone" else "epsilon_jump_convergence"
        if guard == "confinement_monotone":
            monkeypatch.setattr(cli.st, "confinement_fraction", lambda *args: 1.0)
        elif guard == "epsilon_jump_convergence":
            simulate_path = cli.st.simulate_path

            def no_contacts(*args, **kwargs):
                path = simulate_path(*args, **kwargs)
                path.contact[:] = False
                return path

            monkeypatch.setattr(cli.st, "simulate_path", no_contacts)
        else:
            evolve = cli.st.evolve_functional

            def slow_penalty(path, mode="exact-jump", eps=None, **kwargs):
                return evolve(path, mode, None if eps is None else 1e3 * eps, **kwargs)

            monkeypatch.setattr(cli.st, "evolve_functional", slow_penalty)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"samples = 20\nseed = 11\noutput_dir = {out}\n")
        assert cli.run(cfg, "diagnostics") == 0
        assert json.loads(capsys.readouterr().out.strip())["passed"] is False
        report = json.loads((out / "diagnostics.json").read_text())
        assert {c["name"]: c["passed"] for c in report["checks"]}[check] is False
        assert report["passed"] is False


    def test_diagnostics_skip_paths_with_a_zero_contact(self, tmp_path, capsys, monkeypatch):
        # a contact exactly on the boundary (dlam = 0) gives the epsilon check no eps
        # scale; the first path with three contacts gets one, and the check measures
        # three other paths
        simulate_path = cli.st.simulate_path
        zeroed = []

        def touching(*args, **kwargs):
            path = simulate_path(*args, **kwargs)
            if not zeroed and path.contact.sum() >= 3:
                zeroed.append(np.flatnonzero(path.contact)[0])
                path.dlam[zeroed[0]] = 0.0
            return path

        monkeypatch.setattr(cli.st, "simulate_path", touching)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"samples = 20\nseed = 11\noutput_dir = {out}\n")
        assert cli.run(cfg, "diagnostics") == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert len(zeroed) == 1 and report["passed"] is True
        eps = {c["name"]: c for c in report["checks"]}["epsilon_jump_convergence"]
        assert len(eps["value"]) == 3


class TestMainEntry:
    def test_main_runs_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ESTIMATE_CFG.format(out=tmp_path / "out"))
        assert cli.main(["estimate-chi", str(cfg)]) == 0

    def test_unreadable_config_exits_two(self, capsys):
        assert cli.run("/nonexistent/path.cfg", "calibrate") == 2


def run_main(argv):
    """cli.main with stdout and stderr captured: (exit code, stdout lines, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().splitlines(), err.getvalue()


ESTIMATE_SMALL = {"model": "ball", "model.dimension": "2", "t": "0.1", "base_points": "2",
                  "bridges": "2", "steps": "4", "seed": "1"}
LOCAL_SMALL = {"model": "ball", "model.dimension": "2", "point": "boundary",
               "t_sequence": "0.06", "bridges": "4", "steps": "4", "depth_nodes": "2", "seed": "1"}


def config_file(directory, entries):
    path = Path(directory) / "run.cfg"
    lines = [f"{k} = {v}" for k, v in entries.items()]
    path.write_text("\n".join(lines + [f"output_dir = {Path(directory) / 'out'}"]) + "\n")
    return path


class TestRangeValidation:
    @pytest.mark.parametrize("experiment,key,value", [
        ("estimate-chi", "t", "0"),
        ("estimate-chi", "t", "-1"),
        ("estimate-chi", "t", "nan"),
        ("estimate-chi", "t", "inf"),
        ("estimate-chi", "seed", "-3"),
        ("estimate-chi", "seed", str(2**64)),
        ("estimate-chi", "base_points", "1"),
        ("estimate-chi", "bridges", "0"),
        ("estimate-chi", "steps", "1"),
        ("estimate-chi", "drift", "reflected"),  # removed keys: unknown
        ("estimate-chi", "lam_scale", "nan"),
        ("estimate-chi", "lam_scale", "-1"),
        ("estimate-chi", "stratify", "false"),
        ("estimate-chi", "workers", "-3"),
        ("estimate-chi", "workers", "0"),  # the removed pool's "one per CPU"
        ("estimate-chi", "workers", "2"),
        ("local-limit", "workers", "2"),
        ("local-limit", "t_sequence", "0.06,0"),
        ("local-limit", "t_sequence", ","),
        ("local-limit", "t_sequence", "-1"),
        ("local-limit", "seed", "-3"),
        ("local-limit", "bridges", "0"),
        ("local-limit", "steps", "1"),
        ("local-limit", "depth_nodes", "0"),
        ("local-limit", "depth_nodes", "1001"),  # node 1000 would take lifetime 1's stream 0
        ("local-limit", "lam_scale", "0"),
        ("local-limit", "point", "corner"),
        ("cancellation-suite", "seed", "-1"),
        ("cancellation-suite", "instances", "-4"),
        ("cancellation-suite", "instances", "0"),
        ("cancellation-suite", "tolerance", "nan"),
        ("cancellation-suite", "tolerance", "-1e-10"),
        ("cancellation-suite", "tolerance", "0"),
        ("cancellation-suite", "workers", "-1"),
        ("cancellation-suite", "dims", ","),
        ("cancellation-suite", "dims", "1"),  # no case to check: "passes" with 0 cases
        ("cancellation-suite", "dims", "2,40"),
        # formats that write no file, or a csv table the experiment does not have
        ("local-limit", "formats", "xml"),
        ("calibrate", "formats", ","),
        ("estimate-chi", "formats", "csv"),
        ("estimate-chi", "formats", "json,csv"),
        ("diagnostics", "seed", str(2**64)),
        ("diagnostics", "samples", "0"),
        ("diagnostics", "samples", "-5"),
        ("diagnostics", "lam_scale", "inf"),
        # keys of other experiments, which diagnostics never reads
        ("diagnostics", "model", "ball"),
        ("diagnostics", "model.radius", "-5"),
        ("diagnostics", "steps", "40"),
        ("calibrate", "seed", "1"),  # calibrate is deterministic
        # model sizes: finite and > 0
        ("estimate-chi", "model.radius", "nan"),
        ("estimate-chi", "model.radius", "inf"),
        ("estimate-chi", "model.radius", "-1"),
        ("local-limit", "model.radius", "0"),
        ("estimate-chi", "model.length", "nan"),
        ("estimate-chi", "model.circumference", "inf"),
        ("estimate-chi", "model.sphere_radius", "nan"),
        ("estimate-chi", "model.ball_radius", "inf"),
    ])
    def test_out_of_range_exits_two(self, tmp_path, experiment, key, value):
        base = {"estimate-chi": ESTIMATE_SMALL, "local-limit": LOCAL_SMALL,
                "calibrate": {"dimension": "2"}}.get(experiment, {"seed": "1"})
        cfg = config_file(tmp_path, {**base, key: value})
        code, out, err = run_main([experiment, str(cfg)])
        assert code == 2
        assert len(out) == 1
        error = json.loads(out[0])["error"]
        assert error["kind"] == "validation"
        assert key.split("_")[0] in error["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entries, fragment", [
        ({"model": "ball", "model.radius": "1e-300"}, "ball volume"),
        ({"model": "ball", "model.radius": "1e300"}, "ball volume"),
        ({"model": "hemisphere", "model.radius": "nan"}, "model.radius"),
        ({"model": "hemisphere", "model.radius": "inf"}, "model.radius"),
        ({"model": "hemisphere", "model.radius": "1e-300"}, "cap volume"),
        ({"model": "hemisphere", "model.radius": "1e300"}, "cap volume"),
        ({"model": "cylinder", "model.length": "nan"}, "model.length"),
        ({"model": "cylinder", "model.length": "1e300"}, "ball volume"),
        ({"model": "cylinder", "model.circumference": "inf"}, "model.circumference"),
        ({"model": "sphere-ball", "model.sphere_radius": "nan"}, "model.sphere_radius"),
        ({"model": "sphere-ball", "model.ball_radius": "inf"}, "model.ball_radius"),
        ({"model": "sphere-ball", "model.sphere_dim": "2", "model.sphere_radius": "1e-300"},
         "sphere-ball volume"),
        ({"model": "cap", "model.aperture": "1e-300"}, "cap aperture"),
        # the cylinder's circle is stored embedded: its squared radius must be finite
        ({"model": "cylinder", "model.circumference": "1e300"}, "sphere-ball volume"),
    ])
    def test_model_without_finite_size_exits_two(self, tmp_path, entries, fragment):
        # a size that is not finite and > 0, or a cap narrower than the
        # samplers' pole exclusion, fails validation instead of a later step
        base = {k: v for k, v in ESTIMATE_SMALL.items() if k != "model.dimension"}
        code, out, err = run_main(["estimate-chi", str(config_file(tmp_path, {**base, **entries}))])
        assert code == 2
        assert len(out) == 1
        error = json.loads(out[0])["error"]
        assert error["kind"] == "validation"
        assert fragment in error["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entries", [
        {"model": "cap", "model.dimension": "2", "model.aperture": "1.0", "base_points": "200",
         "bridges": "6", "steps": "100", "seed": "1311"},
        {"model": "cap", "model.dimension": "3", "model.aperture": "1.0"},
        {"model": "ball", "model.dimension": "4"},
    ], ids=["cap2", "cap3", "ball4"])
    def test_tiny_lifetime_on_a_parametrix_exits_three(self, tmp_path, entries):
        # at t = 1e-300 the Gaussian parametrix overflows (3-cap, 4-ball) or
        # the spread of its samples does (2-cap: an infinite stderr, which the
        # report cannot carry); either is a numerical abort, with no numpy
        # warning printed before it
        base = {**ESTIMATE_SMALL, "t": "1e-300"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_main(["estimate-chi",
                                       str(config_file(tmp_path, {**base, **entries}))])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        assert json.loads(out[0])["error"]["kind"] == "numerical"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_tiny_lifetime_on_the_disk_names_what_to_change(self, tmp_path):
        # the disk series would need modes up to lambda r ~ 1e151: the message
        # gives that number and the term count in three digits and asks for a
        # larger t, the one knob a config has
        base = {**ESTIMATE_SMALL, "t": "1e-300"}
        code, out, err = run_main(["estimate-chi", str(config_file(tmp_path, base))])
        assert code == 3
        error = json.loads(out[0])["error"]
        assert error["kind"] == "numerical"
        assert len(error["message"]) < 200
        assert "lambda_max" not in error["message"]
        assert "increase t" in error["message"]
        assert "(~1.46e+301 terms)" in error["message"]
        assert "Traceback" not in err

    def test_smallest_lifetime_on_the_disk_names_the_series(self, tmp_path):
        # at t = 5e-324 no term count can be estimated
        base = {**ESTIMATE_SMALL, "t": "5e-324"}
        code, out, err = run_main(["estimate-chi", str(config_file(tmp_path, base))])
        assert code == 3
        error = json.loads(out[0])["error"]
        assert error["kind"] == "numerical"
        assert "disk Neumann series" in error["message"] and "increase t" in error["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment, base, spoil", [
        # 1 of 50 bridges: under the 5 % the former resample limit let through
        ("estimate-chi", {**ESTIMATE_SMALL, "bridges": "25"}, "alive"),
        ("local-limit", LOCAL_SMALL, "supertrace"),
    ])
    def test_invalid_bridge_exits_three(self, tmp_path, monkeypatch, experiment, base, spoil):
        # the run's first bridge batch gets one invalid final state or one NaN supertrace
        simulate, batches = est.simulate_bridges, []

        def spoiled(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            if not batches:
                if spoil == "alive":
                    batch.alive[0] = False
                else:
                    values = batch.supertraces()
                    values[-1] = math.nan
                    batch.supertraces = lambda: values
            batches.append(batch)
            return batch

        monkeypatch.setattr(est, "simulate_bridges", spoiled)
        code, out, err = run_main([experiment, str(config_file(tmp_path, base))])
        assert code == 3
        assert len(out) == 1
        assert json.loads(out[0])["error"]["kind"] == "numerical"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
    def test_largest_seeds_still_run(self, tmp_path, seed):
        cfg = config_file(tmp_path, {**ESTIMATE_SMALL, "seed": str(seed)})
        code, out, _ = run_main(["estimate-chi", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "estimate-chi.json").read_text())
        assert report["seed"] == seed
        jsonschema.validate(report, SCHEMA)


def schema_properties(experiment):
    """Top-level and per-experiment report keys the schema declares, and its row keys."""
    branch = next(b["then"] for b in SCHEMA["allOf"]
                  if b["if"]["properties"]["experiment"]["const"] == experiment)
    rows = branch["properties"].get("rows", {}).get("items", {}).get("properties", {})
    return set(SCHEMA["properties"]) | set(branch["properties"]), set(rows)


@pytest.mark.parametrize("experiment, base", [
    ("estimate-chi", ESTIMATE_SMALL), ("local-limit", LOCAL_SMALL),
])
def test_report_keys_match_schema(tmp_path, experiment, base):
    # every emitted key is declared and every declared key is emitted
    code, out, _ = run_main([experiment, str(config_file(tmp_path, base))])
    assert code == 0, out
    report = json.loads((tmp_path / "out" / f"{experiment}.json").read_text())
    declared, row_keys = schema_properties(experiment)
    assert set(report) == declared
    for row in report.get("rows", []):
        assert set(row) == row_keys


# a small value for every key that some experiment, but not every one, accepts
# (the model.* family aside); a new such key needs a value here
KEY_VALUES = {
    "model": "ball", "t": "0.1", "t_sequence": "0.06", "base_points": "2", "bridges": "2",
    "steps": "4", "point": "boundary", "depth_nodes": "2", "dimension": "2", "dims": "2",
    "instances": "1", "tolerance": "1e-10", "samples": "20", "seed": "1",
}


class ReadRecorder(dict):
    """A resolved config that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_accepted_key_is_read(experiment, tmp_path, monkeypatch):
    # a key an experiment accepts but never reads is silently ignored
    keys = [key for key, (_, accepted, _, _) in cli.CONFIG_SCHEMA.items()
            if experiment in accepted and accepted != cli.EXPERIMENTS
            and not key.startswith("model.")]
    assert not set(keys) - set(KEY_VALUES), "give the new keys a value in KEY_VALUES"
    resolve, render = cli.resolve_config, cli.report_render
    read = []

    def render_spy(payload, outdir, stem, formats, cfg):
        read.append(set(cfg.read))  # the reads of the run, before rendering echoes every key
        return render(payload, outdir, stem, formats, cfg)

    monkeypatch.setattr(cli, "resolve_config", lambda raw, kind: ReadRecorder(resolve(raw, kind)))
    monkeypatch.setattr(cli, "report_render", render_spy)
    cfg = config_file(tmp_path, {key: KEY_VALUES[key] for key in keys})
    code, out, _ = run_main([experiment, str(cfg)])
    assert code == 0, out
    assert not set(keys) - read[0], f"{experiment} ignores {sorted(set(keys) - read[0])}"


VALID = {
    "model": st.sampled_from([("ball", "2"), ("hemisphere", "2")]),
    # 1e-6 lies below the disk and sphere series floors: a numerical abort,
    # exit 3; so does 1e-300, whose collar volume rounds to 0
    "t": st.sampled_from(["0.05", "0.2", "1e-6", "1e-300"]),
    "seed": st.one_of(st.integers(0, 3), st.integers(2**64 - 2, 2**64 - 1)),
    "base_points": st.integers(2, 4),
    "bridges": st.integers(1, 3),
    "steps": st.integers(2, 5),
}
OUT_OF_RANGE = {
    "t": st.sampled_from(["0", "-0.1", "nan", "inf", "-inf"]),
    "seed": st.sampled_from([-3, -1, 2**64, 2**64 + 1]),
    "base_points": st.integers(-1, 1),
    "bridges": st.integers(-1, 0),
    "steps": st.integers(-1, 1),
    "lam_scale": st.sampled_from(["0", "-1", "nan", "inf", "-inf"]),
    "workers": st.one_of(st.integers(-5, 0), st.integers(2, 9)),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=st.fixed_dictionaries(VALID), broken=st.lists(st.sampled_from(list(OUT_OF_RANGE)),
                                                          max_size=2, unique=True),
       data=st.data())
def test_fuzz_estimate_config(cfg, broken, data):
    # zero, one or two keys out of range; the exit code must say which case it is
    cfg = {**cfg, "model": cfg["model"][0], "model.dimension": cfg["model"][1], "workers": 1}
    for key in broken:
        cfg[key] = data.draw(OUT_OF_RANGE[key], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_main(["estimate-chi", str(config_file(tmp, cfg))])
        assert code in (0, 2, 3)
        assert len(out) == 1
        summary = json.loads(out[0])
        assert "Traceback" not in err
        if broken:
            assert code == 2 and summary["error"]["kind"] == "validation"
        else:
            assert code == (3 if cfg["t"] in ("1e-6", "1e-300") else 0)
        for name in summary.get("files", []):
            jsonschema.validate(json.loads(Path(name).read_text()), SCHEMA)
        assert (code == 0) == bool(summary.get("files"))
