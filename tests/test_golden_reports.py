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
        "diagnostics.json": "bed01733fa61b02e93935cacd92f0811c9d3838ccf256c408a1bd54d26a5350a",
    },
    "estimate-chi-ball3": {
        "estimate-chi.json": "82c4c7d36ca7d515cb137fdf0e8fe2c162e4b5c863e10f13eaa16d16c34168a6",
    },
    "estimate-chi-cap2": {
        "estimate-chi.json": "e010310d1f24f4d25746bc82e3f05b2d38e0db619d5ad131a8cf2a335dfc420a",
    },
    "estimate-chi-cap3": {
        "estimate-chi.json": "0704c025b0c13e886d61cb16296523db891decebe1f59b56104a1f7810d86a7d",
    },
    "estimate-chi-cylinder": {
        "estimate-chi.json": "d20a5b7f2d1a9f637d7329d150e22ac05adb27bcd33017c7fc3f6b36d71de545",
    },
    "estimate-chi-disk": {
        "estimate-chi.json": "cd45085a74b4c70e514bb1d42fa02a4d4d2b644d57fcced422edcf713fad1fa5",
    },
    "estimate-chi-hemisphere2": {
        "estimate-chi.json": "54a6ad89c5ca9840731fa17ea57bbb24154264e83935c41c998ba7c542488d8a",
    },
    "estimate-chi-hemisphere3": {
        "estimate-chi.json": "39674b49ce44339567bd12fde81cf2d437ee414e6dd66dca2ef90b5ac22308c7",
    },
    "estimate-chi-sphere-ball-1-2": {
        "estimate-chi.json": "8f4cc43680acaeacb59ffdc1f1de48acdeb6f7398df31a514ebaeb71a8ce9aa5",
    },
    "estimate-chi-sphere-ball-2-1": {
        "estimate-chi.json": "d97513fa8c9eb47053d24b8d5a4bf25fdd97e72b92c9307b1862850c017b5e4d",
    },
    "local-limit-boundary-ball3": {
        "local-limit.csv": "f5db67a5ba4274b6ab5d312fe952de3094100ef5ae9b5a88e421c1e0cfa0e06d",
        "local-limit.json": "8174d24e28c57c40b2e963ccac9abc051dfa09492e444dc5e45b188126890d11",
    },
    "local-limit-boundary-cap2": {
        "local-limit.csv": "8142723478baa98f086235416d1c53e45fde97e51414f49d70745f90582e8276",
        "local-limit.json": "5e49131edc4c093a78e4141bedf021d8698b72780fa608b3cb725d4991d7e66f",
    },
    "local-limit-boundary-cap3": {
        "local-limit.csv": "c7accc25efcafef374d8b4a0dae5f8ce7f49ef88da0fbe063512c1c7e10a5fe5",
        "local-limit.json": "0e99c25b5944b1e12e6ed3f4c094d8cbc7cac157f66be0be28db740a5836f371",
    },
    "local-limit-boundary-cylinder": {
        "local-limit.csv": "2e78084aa15b178d3878cc059d351f3f1b90c2e76c4de95858296393401dfe42",
        "local-limit.json": "9d713f12f0eaf549e7e3b7f1f9b956d364ccc1bac69a9dd46e2286c85e86a616",
    },
    "local-limit-boundary-disk": {
        "local-limit.csv": "9f56eb1fc31991efa5ec9cf8e23ca311f52a2f1f4dfc12ec89c0f8d1dbeeaa06",
        "local-limit.json": "d81f365c4f61a742c3f14f6e3300909575446a5d33de128e2588a5fd5c21f095",
    },
    "local-limit-boundary-hemisphere2": {
        "local-limit.csv": "8a199943c7f40f835a27f3ea058653a3d2d7294f1d48248240ce47222a5adea9",
        "local-limit.json": "acc36a21222cc8989d87cda44fe48fab604d81840a072573f3ecadd830c5f148",
    },
    "local-limit-boundary-hemisphere3": {
        "local-limit.csv": "633baa912222fd76c2ae4a66cc92cb2890f2f9303994d369e4534eda2cf0ff57",
        "local-limit.json": "0a1f100deebbfd7a145893730bc900c09f227dd990065a8e6c980f22f1b16bd4",
    },
    "local-limit-boundary-sphere-ball-1-2": {
        "local-limit.csv": "ef0413c4fa61a741b45f451cdf6101406066f084042921db256ac7e6cd086fb6",
        "local-limit.json": "7d3ecff0dad44b82e8807bc6e43d5f6aaa2aa14a438471c1ff600a89ce2467bb",
    },
    "local-limit-boundary-sphere-ball-2-1": {
        "local-limit.csv": "0bcd00dc34e319225f41f268fba114fc122d7582f7b0077dade4633d891628d8",
        "local-limit.json": "c4d95c8c237c33fb41f6f43c42e74e795f78d61fef42e3cf6be8ef8805f3b79f",
    },
    "local-limit-interior-ball3": {
        "local-limit.csv": "055cb960d692a29b20f7a007394f4542e20ca7766ebea8cea0ec6d40232b5c66",
        "local-limit.json": "0fed254242d2cb1cef02bd04e53df5ab8348fdda4de3b0806ae3dde53c1203af",
    },
    "local-limit-interior-cap2": {
        "local-limit.csv": "e628ed1a8b24878cd3452fa100066bb4128ccd78d3b3d71027f49811e1ac6e75",
        "local-limit.json": "a569efbc0d98f95630cbbb5dc9f3948b9d8dbf2687719899a798f1ad5ba3af50",
    },
    "local-limit-interior-cap3": {
        "local-limit.csv": "3831009328b8c3b46f7dfce4907a096384f7a282cbc32a460aa51c60e08c56c2",
        "local-limit.json": "33b6498d2895091dca382bb4a38f7fc2206da4a103cb834c879db95a89a701a6",
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
        "local-limit.csv": "f7b43a8d63309d1d8f519d1c73d7e5e5e509c29eb686355631cf58818313dbd2",
        "local-limit.json": "1a11ce1eea39f855e2b3aac3b248224154e426fb5bc17cf4f58894de83ce9efd",
    },
    "local-limit-interior-hemisphere3": {
        "local-limit.csv": "f662d6141ba9e532d899f2fefa58bf0c417bc67a4e9dc25082e5f5778a809462",
        "local-limit.json": "85e33aed2916cbabd6936999c2e4faa5b978f2706ac1c52b86a5599700de0547",
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
