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
        "local-limit.csv": "d375b8197efd922e7ce223d91f49f68653411bc0d87d0fba91fc50e9ab7b3664",
        "local-limit.json": "e734e317a6abdaf6657c804f5a96eb0a3d3d4c940ef3f0dda3be3e24084b2de9",
    },
    "local-limit-boundary-cap2": {
        "local-limit.csv": "bc3dc817d8cbb6012814176f8086123c470c47f681e0cafc66a771a8fc6b488d",
        "local-limit.json": "7d3fd02a88930a738292545a898b9d48af94ea2076ea106b305bbe7805271d86",
    },
    "local-limit-boundary-cap3": {
        "local-limit.csv": "dffa76a8e0aba7d212eb39a02337ef92c946c7f5d74592112ab814504523e294",
        "local-limit.json": "6601c07e6343f5116d779a5ab86032f53e1a94103ba4cb36e09f3cbf2b2dfdec",
    },
    "local-limit-boundary-cylinder": {
        "local-limit.csv": "2e78084aa15b178d3878cc059d351f3f1b90c2e76c4de95858296393401dfe42",
        "local-limit.json": "c9dbb73cf59dedd77becf06318fe30cf2244868aed601c8f3123b50ad4f99236",
    },
    "local-limit-boundary-disk": {
        "local-limit.csv": "7f36a138db221270223d568cfe810d128c1dfb160f48a9fb4281759720604cfd",
        "local-limit.json": "074d6406ff9c632721d75fb0e0b0f35d39601bdaf94b4172f4db31bc58b6d319",
    },
    "local-limit-boundary-hemisphere2": {
        "local-limit.csv": "dae1b3c73f6bce53cf473cf74f70ea173a6b84198715d29e69033a592aa9f9c4",
        "local-limit.json": "ba175a64e1108d17af44dc6ad8434ffda8e8734b03124d1aeae54c9a5b20592d",
    },
    "local-limit-boundary-hemisphere3": {
        "local-limit.csv": "1af9cd96d315c32e797058db7b5eb3070b6677b2d024dc975a8b7bf3bf2c4774",
        "local-limit.json": "584e38d7555970cf8d29e6627169f14ba11fb4914d6b09a62ed660374b70f724",
    },
    "local-limit-boundary-sphere-ball-1-2": {
        "local-limit.csv": "ef0413c4fa61a741b45f451cdf6101406066f084042921db256ac7e6cd086fb6",
        "local-limit.json": "abfbe386f1ccd19d767b7902af3ea70eafba68fba02996d1df3cc3cb6c92316f",
    },
    "local-limit-boundary-sphere-ball-2-1": {
        "local-limit.csv": "abcab02ed03a50a58cf83f6a3808eafc856b9b5a84223458ae4474b6edca95eb",
        "local-limit.json": "c944c5f108b61de095e8e261048fce6746019ddb455a174afd9a5bfbce4e7c9d",
    },
    "local-limit-interior-ball3": {
        "local-limit.csv": "055cb960d692a29b20f7a007394f4542e20ca7766ebea8cea0ec6d40232b5c66",
        "local-limit.json": "f707a403bd7bb891291f00d790609bb0b8857a0f7949509a2aa78df427f9ceaf",
    },
    "local-limit-interior-cap2": {
        "local-limit.csv": "edd08905fc7352e9da110e3db5e02c07e160641de5163293e3209b2d67a74967",
        "local-limit.json": "88330890e26227b13d3d8ae5856a1f9ce1c4364534fb783777c809bc10914c1c",
    },
    "local-limit-interior-cap3": {
        "local-limit.csv": "a0224eb072ebc9f426f6aa4b5fcebf9896b4d70ca8bc089e031681881ef1f11c",
        "local-limit.json": "35883e7d0150dbb48617c67c841d3421b2e0600d8fda4015a1836d85735c0269",
    },
    "local-limit-interior-cylinder": {
        "local-limit.csv": "895423dd065ddf6f9a10b957cc26c446ca8f27e879c5ff59f20d6c27394a041e",
        "local-limit.json": "9f0355c93a1e4c58bf0a9f076d1c30516c4704e165b464b19c37ec7795ab3461",
    },
    "local-limit-interior-disk": {
        "local-limit.csv": "cd3dd685c7a0f3010e2eaccfc16c8449bb610818c3aa35ff9e9323c490956241",
        "local-limit.json": "355a9e87a1307f628f9cbda95c0d5197787a1239090852b1b36d47bea670386f",
    },
    "local-limit-interior-hemisphere2": {
        "local-limit.csv": "7dfd0c9e630ba25f7f6dddd931eff12b35dfe91fab6c89390e15b35236cd1c9a",
        "local-limit.json": "dba43d86a65a78773bd29120cdcfe544911f898c4a09f006198fccacaedd287b",
    },
    "local-limit-interior-hemisphere3": {
        "local-limit.csv": "ec3e53aaba14ffbcbe0607cc7e9a11c6a44aa102817b10c92b44223fbc0a1e0f",
        "local-limit.json": "ce7767786fd47d1e5b2aabaf8a82be9b5426ea3148f740187d924a8348ca2d1b",
    },
    "local-limit-interior-sphere-ball-1-2": {
        "local-limit.csv": "0099c37ae316f1102cc715ff41f411fe5c26d73252a9b9fc36d045a92637509d",
        "local-limit.json": "84eda9c35f0283563c6f642827a230cd9f89f5784c2ed6e8cf8cd207bca75764",
    },
    "local-limit-interior-sphere-ball-2-1": {
        "local-limit.csv": "9507271d1890993b1b6059a533c1903deb7cbe4765f76d30d64ff986881a0cf6",
        "local-limit.json": "be7b98d443fa3a9e3dfc2efaad1f535c3cc290784d61249667f0d6ae9b6a5346",
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
