"""Report bytes of small fixed-seed runs, pinned by their sha256.

Every experiment kind runs through ``cli.run`` on a small config whose
echoed ``output_dir`` is ``out`` while the files go to a temporary
directory, so each report depends on the config and the code alone.  The
table below holds the sha256 of every JSON and CSV file.  A refactor that
keeps the arithmetic must leave every hash as it is; a change that moves a
bit on purpose updates the table and says in CHANGES.md which reports moved
and why.  The hashes belong to one numeric stack (numpy's generators and
libm): a different numpy build may change them without any change here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gblab import cli
from gblab import estimator as est
from gblab import geometry as geo

MODELS = {
    "disk": "model = ball\nmodel.dimension = 2\n",
    "ball3": "model = ball\nmodel.dimension = 3\n",
    "hemisphere2": "model = hemisphere\nmodel.dimension = 2\n",
    "hemisphere3": "model = hemisphere\nmodel.dimension = 3\n",
    "cap2": "model = cap\nmodel.dimension = 2\nmodel.aperture = 1.0\n",
    "cap3": "model = cap\nmodel.dimension = 3\nmodel.aperture = 2.0\n",
    "cylinder": "model = cylinder\n",
    "sphere-ball-1-2": "model = sphere-ball\nmodel.sphere_dim = 1\nmodel.ball_dim = 2\n",
    "sphere-ball-2-1": "model = sphere-ball\nmodel.sphere_dim = 2\nmodel.ball_dim = 1\n",
}

ESTIMATE = "t = 0.05\nbase_points = 40\nbridges = 4\nsteps = 20\nseed = 3\n"
LOCAL = ("t_sequence = 0.08,0.04,0.02\nbridges = 20\nsteps = 20\ndepth_nodes = 4\n"
         "seed = 1311\nformats = json,csv\npoint = {point}\n")

CONFIGS = {
    **{f"estimate-chi-{name}": ("estimate-chi", text + ESTIMATE) for name, text in MODELS.items()},
    **{f"local-limit-{point}-{name}": ("local-limit", text + LOCAL.format(point=point))
       for point in ("boundary", "interior") for name, text in MODELS.items()},
    "calibrate-2": ("calibrate", "dimension = 2\n"),
    "calibrate-3": ("calibrate", "dimension = 3\n"),
    "cancellation-suite": ("cancellation-suite", "dims = 2,3,4\ninstances = 3\nseed = 5\n"),
    "diagnostics": ("diagnostics", "samples = 100\nseed = 11\n"),
    # loops from the centre of a unit disk or ball never reach its boundary at
    # these lifetimes, so the interior runs above pin nothing of the stepping;
    # on a disk of radius 0.2 they touch it at every lifetime
    "local-limit-interior-small-disk": ("local-limit", MODELS["disk"] + "model.radius = 0.2\n"
                                        + LOCAL.format(point="interior")),
}
# the runs whose loops never touch the boundary
UNTOUCHED = ("local-limit-interior-disk", "local-limit-interior-ball3")

GOLDEN = {
    "calibrate-2": {
        "calibrate.json": "7039706769a6c0947d5c85215fb768d88ce43c3667573a97250cd482d65a1ba4",
    },
    "calibrate-3": {
        "calibrate.json": "3829860973592acec091cf5905e2826801e01807b5b76f41c78b2da69f5f1a39",
    },
    "cancellation-suite": {
        "cancellation-suite.json": "f6f7ed096200ea44e6129c0a712cfce016b6af80ff1654d661fb738cb4dc4514",
    },
    "diagnostics": {
        "diagnostics.json": "3d2629705649efd99aab24104f5ce143dbd2d307517e86d56a87ca1b922a5916",
    },
    "estimate-chi-ball3": {
        "estimate-chi.json": "e842be523f25c2ff3db0e7c4b9c3fe6a7d9cb217eab3e845f2b4ba51a0863d97",
    },
    "estimate-chi-cap2": {
        "estimate-chi.json": "31d073720aff464a6e64a84417e52f79d092b61649e9cdbd83adf0237b44cb9d",
    },
    "estimate-chi-cap3": {
        "estimate-chi.json": "13b74383f0b8b99b3c6a09c12e67231cd3b0972b5ecfcc3577cc4dc07e0e434b",
    },
    "estimate-chi-cylinder": {
        "estimate-chi.json": "d20a5b7f2d1a9f637d7329d150e22ac05adb27bcd33017c7fc3f6b36d71de545",
    },
    "estimate-chi-disk": {
        "estimate-chi.json": "32efcbb14536ea0b0b514ff787d3d489c564b3880d4611e97c2ca9704a98b5c1",
    },
    "estimate-chi-hemisphere2": {
        "estimate-chi.json": "2ad4dff1b8d6dbad2759292639ca9e3a16cfed1f91f643dce1039358d566785a",
    },
    "estimate-chi-hemisphere3": {
        "estimate-chi.json": "a29afc5e9cd69f14c038c95249f753e6b5540edaad23e6d754b2b79cab9db419",
    },
    "estimate-chi-sphere-ball-1-2": {
        "estimate-chi.json": "8f4cc43680acaeacb59ffdc1f1de48acdeb6f7398df31a514ebaeb71a8ce9aa5",
    },
    "estimate-chi-sphere-ball-2-1": {
        "estimate-chi.json": "765ac4c60b5ec31aa8ec7ab44fc56a41f432a0c97d0f39627b22f4caaf2fdfa8",
    },
    "local-limit-boundary-ball3": {
        "local-limit.csv": "41b3d620c839b8485f806ee8eb87eccf35d7e81dc55bf1bc2eb5caf84aa1c29e",
        "local-limit.json": "684e041fd2cbc266d44e6534439c964f703cad997790d12c1438828b89080eef",
    },
    "local-limit-boundary-cap2": {
        "local-limit.csv": "cbd572f968cfe50999aae73a3791667d3aa30ddaf300eba420ea6e453bd8a43d",
        "local-limit.json": "6fa2c76f528e3e885a8f0c775a3fb83e076d97d9426c54e6f3cf5147a6e7b7fd",
    },
    "local-limit-boundary-cap3": {
        "local-limit.csv": "fdb420abc3b2d3116dc64f287ffbea2674ecad7e1cc8b5f42c62d436bd98e5a2",
        "local-limit.json": "4a5d9a003ab17457df42fbe9b55e8467fe5fd7b4b81bbaa8509b955f722e2b6f",
    },
    "local-limit-boundary-cylinder": {
        "local-limit.csv": "2e78084aa15b178d3878cc059d351f3f1b90c2e76c4de95858296393401dfe42",
        "local-limit.json": "9d713f12f0eaf549e7e3b7f1f9b956d364ccc1bac69a9dd46e2286c85e86a616",
    },
    "local-limit-boundary-disk": {
        "local-limit.csv": "b1c233ee8146b7205fb4ebef57c59facca4a11d3d0b5dfe14f45c49fac8a9d96",
        "local-limit.json": "d19493a0c8a51b159ca4432c1e3f0ad14a8d03721fb9ec39eda50c54bdd18b79",
    },
    "local-limit-boundary-hemisphere2": {
        "local-limit.csv": "9bc01c2b2e2036eb4790b4937573f7464f96632bfccca6b1c8baf2516210190b",
        "local-limit.json": "94c4e081c34b418c19b7055cbc9c374996a693843392e4bc36265f187461449b",
    },
    "local-limit-boundary-hemisphere3": {
        "local-limit.csv": "19de0566d6c575181f637adb1736846f9b14358d55bc48c497ba8acd0af9406e",
        "local-limit.json": "437e0d3f0d2ed3b63c8d8d2c6b8d2432db578acc40fdbdd187bbebaefb9e6e93",
    },
    "local-limit-boundary-sphere-ball-1-2": {
        "local-limit.csv": "ef0413c4fa61a741b45f451cdf6101406066f084042921db256ac7e6cd086fb6",
        "local-limit.json": "7d3ecff0dad44b82e8807bc6e43d5f6aaa2aa14a438471c1ff600a89ce2467bb",
    },
    "local-limit-boundary-sphere-ball-2-1": {
        "local-limit.csv": "122603ec7d58681e6a65df807bc69be3e8737d79bd244c5dd4d396e20fc4979d",
        "local-limit.json": "13252f690dbb7353846cd320c19546c14ee888a61cbbdd1a11eeb53dccb241b9",
    },
    "local-limit-interior-ball3": {
        "local-limit.csv": "055cb960d692a29b20f7a007394f4542e20ca7766ebea8cea0ec6d40232b5c66",
        "local-limit.json": "0fed254242d2cb1cef02bd04e53df5ab8348fdda4de3b0806ae3dde53c1203af",
    },
    "local-limit-interior-cap2": {
        "local-limit.csv": "c17dcce081e412aaa1c2351695e488473dc64573a50357885fdfa3100b118422",
        "local-limit.json": "966a127debee31e34f670ceb1ad469f035bc9768e9c8ef00c840d007f83209eb",
    },
    "local-limit-interior-cap3": {
        "local-limit.csv": "ddb829b1f60ff3d26708536eb6b342c1cad66504ec583261b43c3ec7f40d9839",
        "local-limit.json": "ef74c5fe2db8f8ebed06c46b3c218a885d9445d59a0715ca124dadb7a0f0f27e",
    },
    "local-limit-interior-cylinder": {
        "local-limit.csv": "895423dd065ddf6f9a10b957cc26c446ca8f27e879c5ff59f20d6c27394a041e",
        "local-limit.json": "e98ade29e9ccea003ef0dac38448c3f90f072e59eb18201bd1724e1f020692bc",
    },
    "local-limit-interior-disk": {
        "local-limit.csv": "cd3dd685c7a0f3010e2eaccfc16c8449bb610818c3aa35ff9e9323c490956241",
        "local-limit.json": "c3e0daf2f0ccbf3e9bb970aaf74a4cddef134950f315297587f125e7f5a8cfc4",
    },
    "local-limit-interior-hemisphere2": {
        "local-limit.csv": "808f99258cfca6089d870838a5fa1bbc4902b6fe73e457caf8bf05a260eae213",
        "local-limit.json": "1be0718260a418eed00dbe388d88e0d54a923edeee0e1fa4693fec5d72ab129e",
    },
    "local-limit-interior-hemisphere3": {
        "local-limit.csv": "843afa38c760d7e70c5abe4279e5ad6dc69609acd4f7eff98fa462b321e7d6cd",
        "local-limit.json": "4137f37fd6ad85377609f2e43e1afe52435562a4f0aedeb645e2fcff1554810a",
    },
    "local-limit-interior-small-disk": {
        "local-limit.csv": "61901bafc13ec0ae241a30a3f7a51aa8c862943325321d4dbf8131511641df59",
        "local-limit.json": "b50b54a8b8d77212f7a5dbcc465e7698f87fad015e25df345313bc57a6312aff",
    },
    "local-limit-interior-sphere-ball-1-2": {
        "local-limit.csv": "0099c37ae316f1102cc715ff41f411fe5c26d73252a9b9fc36d045a92637509d",
        "local-limit.json": "ddd31679391d65df47e15171706fb2758be6335ceceb0c43b086d8c84753e5df",
    },
    "local-limit-interior-sphere-ball-2-1": {
        "local-limit.csv": "9507271d1890993b1b6059a533c1903deb7cbe4765f76d30d64ff986881a0cf6",
        "local-limit.json": "634bd6ca3758934133a7ba86d415dd9138bc2e0a7bd91b11d70749c5fa7d3cea",
    },
}


def report_hashes(experiment, text, directory):
    """Run one config from directory; return its exit code and {file name: sha256}."""
    path = directory / "run.cfg"
    path.write_text(text + "output_dir = out\n", encoding="utf-8")
    out = directory / "reports"
    code = cli.run(path, experiment, output_dir=out)
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    experiment, text = CONFIGS[name]
    code, hashes = report_hashes(experiment, text, tmp_path)
    assert code == 0, capsys.readouterr().out
    assert hashes == GOLDEN[name]


def test_every_config_is_pinned():
    assert sorted(GOLDEN) == sorted(CONFIGS)


# ---------------------------------------------------------------------------
# flat walks in float32 against float64
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workload_config(name):
    """The quick (small) config of a benchmark workload at benchmark seed 1."""
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    settings = workloads.config_settings(workload, ROOT, 1, 0, Path("out"), small=True)
    return workload.experiment, workloads.config_text(settings)


FLAT_WORKLOADS = ("chi-disk", "chi-ball3-points", "local-limit-disk")
FLAT_RUNS = ([name for name in CONFIGS if name.endswith(("-disk", "-ball3"))]
             + [f"workload-{name}" for name in FLAT_WORKLOADS])


def flat_run(experiment, text, directory, monkeypatch):
    """The JSON report of one config and the contact counts of its bridge batches, in order."""
    contacts = []
    simulate = est.simulate_bridges

    def recording(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        contacts.append(batch.contacts.copy())
        return batch

    path = directory / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(est, "simulate_bridges", recording)
        assert cli.run(path, experiment, output_dir=directory / "reports") == 0
    report = json.loads((directory / "reports" / f"{experiment}.json").read_text())
    return report, np.concatenate(contacts)


@pytest.mark.parametrize("name", sorted(FLAT_RUNS))
def test_float32_walks_agree_with_float64(name, tmp_path, monkeypatch):
    # the same draws, rounded: every estimate and local-limit row moves by at
    # most 1e-3 of its stderr, and the walks touch the boundary on the same
    # steps on at least 99 % of the paths
    workload = name.removeprefix("workload-")
    experiment, text = CONFIGS[name] if name in CONFIGS else _workload_config(workload)
    assert geo.FlatBall.walk_dtype == np.float32
    (tmp_path / "32").mkdir()
    (tmp_path / "64").mkdir()
    report, contacts = flat_run(experiment, text, tmp_path / "32", monkeypatch)
    monkeypatch.setattr(geo.FlatBall, "walk_dtype", np.float64)
    exact, exact_contacts = flat_run(experiment, text, tmp_path / "64", monkeypatch)
    if experiment == "estimate-chi":
        rows, exact_rows = [report], [exact]
        keys = ("estimate", "stderr")
    else:
        rows, exact_rows = report["rows"], exact["rows"]
        keys = ("value", "stderr")
        assert [r["node_bridges"] for r in rows] == [r["node_bridges"] for r in exact_rows]
    for row, exact_row in zip(rows, exact_rows, strict=True):
        for key in keys:
            assert abs(row[key] - exact_row[key]) <= 1e-3 * exact_row["stderr"], key
    assert contacts.shape == exact_contacts.shape and (contacts.sum() > 0) != (name in UNTOUCHED)
    assert np.mean(contacts == exact_contacts) >= 0.99
