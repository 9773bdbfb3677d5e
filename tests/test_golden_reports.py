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

import pytest

from gblab import cli

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
}

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
        "diagnostics.json": "09eb0c97c012b3fb5a4a55e8aba51784221d7791622eccc7f9ac023897a1a53c",
    },
    "estimate-chi-ball3": {
        "estimate-chi.json": "84fcec297fadf31725de423337a59ce2802ad739bf28712061c348c587e1c148",
    },
    "estimate-chi-cap2": {
        "estimate-chi.json": "94d4ef14c6b2169b6316b316a0c03382f01b6086bd87f58914b519e2d3514963",
    },
    "estimate-chi-cap3": {
        "estimate-chi.json": "c1f4baca168197633b21712c2419fa275d998a740a857b589c9f93ab28e02e26",
    },
    "estimate-chi-cylinder": {
        "estimate-chi.json": "d20a5b7f2d1a9f637d7329d150e22ac05adb27bcd33017c7fc3f6b36d71de545",
    },
    "estimate-chi-disk": {
        "estimate-chi.json": "aee28cd14844a045ca7de7d64cfe73223197bbaf109c520a3f95ab85435255a4",
    },
    "estimate-chi-hemisphere2": {
        "estimate-chi.json": "e287f046ca72418e9d7e9656e05b91c74572731d7f036db3eed0a35059ed3384",
    },
    "estimate-chi-hemisphere3": {
        "estimate-chi.json": "a240bd1d91b31985c190c8924e9cc2c48b02400334cf3b56eca9f096df13446f",
    },
    "estimate-chi-sphere-ball-1-2": {
        "estimate-chi.json": "8f4cc43680acaeacb59ffdc1f1de48acdeb6f7398df31a514ebaeb71a8ce9aa5",
    },
    "estimate-chi-sphere-ball-2-1": {
        "estimate-chi.json": "05f8f54529c36223864cf47c100687ae75f27787b179a5e09386884a42141ab7",
    },
    "local-limit-boundary-ball3": {
        "local-limit.csv": "2905fbaf95845174cfbabf8715b511d8371e6645959ccdf4ace24d3198a8901b",
        "local-limit.json": "6bc91c2cededdf696be8ed52b7e8b0652366b6517d026945226cf1a5e69dd198",
    },
    "local-limit-boundary-cap2": {
        "local-limit.csv": "31187c12f14fc2b153312eb4de01403029de452bff2f9318708078aa4592aaea",
        "local-limit.json": "eaab1906e7a59b70fbfc455fc704b306f5dccc649604602fbf1e707677a33a4d",
    },
    "local-limit-boundary-cap3": {
        "local-limit.csv": "688d5a4b436d6d1ee16791e177fee39b5bc4c27cd9e130e5a3b5b77bce818ea8",
        "local-limit.json": "c4dfbda524fc3ea512e8f51150607e61fea02f91ea981c4d545ba5ce3c50b550",
    },
    "local-limit-boundary-cylinder": {
        "local-limit.csv": "2e78084aa15b178d3878cc059d351f3f1b90c2e76c4de95858296393401dfe42",
        "local-limit.json": "9d713f12f0eaf549e7e3b7f1f9b956d364ccc1bac69a9dd46e2286c85e86a616",
    },
    "local-limit-boundary-disk": {
        "local-limit.csv": "175e9969e0a8d95ccd4ddeac69d2fb08a2f23979c26356eb5fd0f5e5aa75409c",
        "local-limit.json": "aca215b4464e0c778f81528a247c21bbe09eddbe688c9b58bf36ff0519311a4b",
    },
    "local-limit-boundary-hemisphere2": {
        "local-limit.csv": "0b3a778107d000ce006ecafc89e6ed3f834d63eb37c3b42311864a22e1340c4f",
        "local-limit.json": "aaf6c447986025022d0b55111669a7fd69a974dda141fcc3dde76eac7171d4ce",
    },
    "local-limit-boundary-hemisphere3": {
        "local-limit.csv": "dfd42b043c4b1273b67701d3395bdbaac87065ac33e979d6aa9b0b10f1245bdf",
        "local-limit.json": "56ec0e4b7961bcdf2164d7dd125b8729f63a23f49d9148575712d4181ac75a07",
    },
    "local-limit-boundary-sphere-ball-1-2": {
        "local-limit.csv": "ef0413c4fa61a741b45f451cdf6101406066f084042921db256ac7e6cd086fb6",
        "local-limit.json": "7d3ecff0dad44b82e8807bc6e43d5f6aaa2aa14a438471c1ff600a89ce2467bb",
    },
    "local-limit-boundary-sphere-ball-2-1": {
        "local-limit.csv": "2f06e87045c0e897c72bbb09523187c8e4088d806cf2373a4cb6e3c4f70d2761",
        "local-limit.json": "b080d4ab33eb02ae6a97a6486a4c060570cf210914f3ca3c5273516ae8c81e17",
    },
    "local-limit-interior-ball3": {
        "local-limit.csv": "055cb960d692a29b20f7a007394f4542e20ca7766ebea8cea0ec6d40232b5c66",
        "local-limit.json": "0fed254242d2cb1cef02bd04e53df5ab8348fdda4de3b0806ae3dde53c1203af",
    },
    "local-limit-interior-cap2": {
        "local-limit.csv": "edd08905fc7352e9da110e3db5e02c07e160641de5163293e3209b2d67a74967",
        "local-limit.json": "72b84a2ed736b558921118e9bbd123d0cad11ced5a09b0acacb6ab6f4f4ad522",
    },
    "local-limit-interior-cap3": {
        "local-limit.csv": "a0224eb072ebc9f426f6aa4b5fcebf9896b4d70ca8bc089e031681881ef1f11c",
        "local-limit.json": "d2b7f876cec4847e9180952d43cb6e11e8f0a24a20a432a5b20c25281cff7746",
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
        "local-limit.csv": "7dfd0c9e630ba25f7f6dddd931eff12b35dfe91fab6c89390e15b35236cd1c9a",
        "local-limit.json": "32d3e7748972a939b175277e21430eb305e4db17bfb8a8a5b5757ebdf1d1c33f",
    },
    "local-limit-interior-hemisphere3": {
        "local-limit.csv": "ec3e53aaba14ffbcbe0607cc7e9a11c6a44aa102817b10c92b44223fbc0a1e0f",
        "local-limit.json": "dd35649f80df6a2cc6e3e9ee3f47b4dd9283df43bd5eba6729c84126a753ae1e",
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
