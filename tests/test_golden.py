"""Golden bytes: sha256 of `fold` and `verify` stdout, both formats.

The digests pin the exact reports of the eight fast catalog rows, of
H3 with the identity automorphism, whose presentation pairs are sampled
(120^2 candidate pairs is over the exhaustive cap), and of the (4,4,3)
triangle group with its swap, whose field has N = 12 and whose balls are
bounded (`verify --radius 8`).  The `fold` of mixed-dropped prints a
dropped orbit beside kept generators and a pair, which no catalog row
does.  The `verify` of the A7 and E6 flips pins the sampled branch of
length-additivity-transfer on a finite W (384 and 1152 fixed elements);
they are kept out of INPUTS, which the failure goldens and the
ball-product tests run too, and so is A1 under the identity, the one W of
rank 1 whose whole ball a golden report walks.  Any change to a payload,
its key order, a statistic or a seeded draw shows up here.
"""

import hashlib
import json

import pytest

from coxfold import cli
from coxfold.catalog import CATALOG
from coxfold.coxeter import parse_input
from coxfold.folding import Automorphism
from coxfold.verify import input_digest

INPUTS = {e.name: e.input_text for e in CATALOG if not e.slow}
INPUTS["h3-id"] = "rank 3\nm 1 2 5\nm 2 3 3\nauto id\n"
INPUTS["tri443-swap"] = "rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\nauto swap 2>3 3>2\n"
INPUTS["mixed-dropped"] = ("rank 4\nm 1 2 inf\nm 1 3 3\nm 2 3 3\nm 3 4 3\n"
                           "auto flip 1>2 2>1\nauto id\n")

SAMPLED_INPUTS = {
    "a7-flip": ("rank 7\n" + "".join(f"m {i} {i + 1} 3\n" for i in range(1, 7))
                + "auto flip 1>7 7>1 2>6 6>2 3>5 5>3\n"),
    "e6-flip": next(e.input_text for e in CATALOG if e.name == "e6-flip"),
}
RANK_ONE = {"a1-id": "rank 1\nauto id\n"}
ALL_INPUTS = {**INPUTS, **SAMPLED_INPUTS, **RANK_ONE}

# arguments after the file, by input and command
EXTRA = {("tri443-swap", "verify"): ("--radius", "8")}

GOLDEN = {
    ("a2-flip", "fold", "text"): "df3a3d2ab3cc4a1914a5b6343c16cf6cd7aafdcb0b323c6bcbe03e9448bce0c0",
    ("a2-flip", "fold", "json"): "1e433de06cc581eb4545d15348a428ab77eabc29e640fb92b7ccaf87fa9c2a45",
    ("a2-flip", "verify", "text"): "d35b456961b0f6424adfb00070ed06ab6abf43f0df8758606c349518882e79e0",
    ("a2-flip", "verify", "json"): "0cf11eed7e41525f1cdd46ce63216bbe1414225fddee7f8cacddbc41678e19b9",
    ("a3-flip", "fold", "text"): "0712c1f5b932308bd8dd203c6f474d9754ecdb244c3cf5a49439abe4124b4b74",
    ("a3-flip", "fold", "json"): "dde14a667a94e47e50e9fc4530ff386d7aa0c8a4fed90b4dc13a9cd21841fec8",
    ("a3-flip", "verify", "text"): "8e0eb1540da93c2f1194e4f4c54ef709a894dff00ae5450617de48fca70a263b",
    ("a3-flip", "verify", "json"): "bcc340dbf5cf6b6991b4b9bf8d02318e2ec13daeca0dd29ddfa0c07629380605",
    ("a4-flip", "fold", "text"): "5554f2bd3d9f3d9cd5a7f44d7906edb91162451f68f672e4110353033e32a905",
    ("a4-flip", "fold", "json"): "4e7a64a35ff1e6bc33680fa8aea6b39f327dfbf13a410c46205559a1c3706d93",
    ("a4-flip", "verify", "text"): "48807731b752b8b43885a647c4600b626faa7f4c29750e6c1368882425de2c63",
    ("a4-flip", "verify", "json"): "90e3d92a9b2122b588014d9014ff7284fd2b3b1ccb1e781565a1a3fc2887fce5",
    ("a5-flip", "fold", "text"): "725c5106fc6c416dc390c92b24335bcab938d5477101487d8f0cb353d98db08f",
    ("a5-flip", "fold", "json"): "2a8bc66e601c3eb6134f00bde3931f8b33e6f74e2fed3e8df5760cfe923378b1",
    ("a5-flip", "verify", "text"): "1b48eb0fe4af3794b57bedf2473004d65a45afa913dc011e695ab83357d14b88",
    ("a5-flip", "verify", "json"): "abc1bf5c2b407ed50861ffb499f7a10bdba9b682569793a44d817977267d88f4",
    ("d4-triality", "fold", "text"): "95423ccafef419d7058d28772a9a0d6f52f19bd8675bee44a40ee67223795ed1",
    ("d4-triality", "fold", "json"): "6b065a78a95f3f3953f6014ddb99b94f97dc30b711411fb670dd2f9b33fd4605",
    ("d4-triality", "verify", "text"): "387dd187183cf089edd446bc09f5e5cf6a3048055f4d39698d7e23ee3f47b3a1",
    ("d4-triality", "verify", "json"): "b3739ae5b9c282d8e1bce8de758ed150b87db2c1e1826196a8da8c71431b0727",
    ("d4-leaf-swap", "fold", "text"): "ff56cda4bd2bd2e8521ef08d1697847751241689274b9e50e102a25274c15b04",
    ("d4-leaf-swap", "fold", "json"): "2d316956dd545af0885bd24a825ff53b8351af7ed4f746664a8041d73229fd89",
    ("d4-leaf-swap", "verify", "text"): "3460f64c3eadd58c4472f05f1c2fee5f070742d6a2c47259ba0638071da17f46",
    ("d4-leaf-swap", "verify", "json"): "9b46650a7f7bb54d6ebc8ab05d8f5acd811d7072a75c88d3df417441fda63614",
    ("affine-a2-flip", "fold", "text"): "7fe616c94e43eb85d06c3958c835c9f6eeb9c77e755f5389762302ed2f2de3c3",
    ("affine-a2-flip", "fold", "json"): "f5604e48afe4cf44887ae5253a0edfefeceb0cef74b38c542ebb168d3763e839",
    ("affine-a2-flip", "verify", "text"): "d877d1242d5c765fb25d7b9de6d2c31a75b5bd5c04ecea8df8cd1a57c8bc6d35",
    ("affine-a2-flip", "verify", "json"): "3a518b710280f23849266780ba2d9e34ae28b3f08061475c981b533ca2455ca2",
    ("infinite-dihedral-flip", "fold", "text"): "e763bf9e09114bf60e6bf172beb87e6a000e7b9f16ebb329ff4048293fc74027",
    ("infinite-dihedral-flip", "fold", "json"): "06a915210db4bed8010747c7fc2e26a843e97b0dd865edd5edea71853bc60302",
    ("infinite-dihedral-flip", "verify", "text"): "c9a52eef5c17a8e789539f49fbda1301dc35d61235eacf46c9b5d8dfeff3a778",
    ("infinite-dihedral-flip", "verify", "json"): "a3df282558c2d29008d2a80e48cac2d12ca2b404fbf68c3f0412058077f10e6a",
    ("h3-id", "fold", "text"): "33cb0a7afa510a779e00b8c3c0980fddd6ea2d3fe5809fdf3347bb412cf74076",
    ("h3-id", "fold", "json"): "a47b2ab56e6c1e2b4c06a84d0dde9a795e58aab6d75c2c2be240b1b7daa6bc85",
    ("h3-id", "verify", "text"): "57cf837b7635f5d314c65afa5ce6f76d5e807fdcca352f5310bd4a57a19b7f03",
    ("h3-id", "verify", "json"): "e25299d2e16225d5f86bc2be3fae42c86e53aeeb4db948e7020115e1c0f4490a",
    ("tri443-swap", "fold", "text"): "814ca468cdfca84b04958d40c881bb2438f312fd9b9347f08cb93501b3d22bb9",
    ("tri443-swap", "fold", "json"): "224c414c430b67c53e108b6900e4490c33e2bfab89dbaaad8f4a44dfd09975ec",
    ("tri443-swap", "verify", "text"): "6e66f8b9dc67c23e48489adeffaca6e6cf1179d34c0d0f42b7d7d894a18e5389",
    ("tri443-swap", "verify", "json"): "e741c6e151972b4b8ee821546c8e627205dc3c22d35299bd9c74c1293e1248b3",
    ("mixed-dropped", "fold", "text"): "0a2dba86cbc83f40641232afc0be7eaa92b7c9a78dac8ca20bfe77ef6e3ac173",
    ("mixed-dropped", "fold", "json"): "0559d3db055e6374efcc52f31e0706d6435484796b0db76ef5536ef32f34f165",
    ("a7-flip", "verify", "text"): "1be367998e42fa53a5aaa47e477caff7a72a1e43ae1b6628bc01b817aa28563f",
    ("a7-flip", "verify", "json"): "f79aa37407325de141e2edbb2948a89bc86e69a2b36b2fc140cfc79b87f6b6ea",
    ("e6-flip", "verify", "text"): "0bfe9ce3d493a49bd9583e42cbab5b46f40535e3c1fe4778cea4cbdae1ab2e8f",
    ("e6-flip", "verify", "json"): "c67d7ecce2a5e8f3bd4e3da5a7d360f0a7352578cd991bba02355a32ad2c27e1",
    ("a1-id", "fold", "text"): "75cd56ab8f25843d54ce573f9d366b7f586a5c4a6d55477ba19d6a9058da603c",
    ("a1-id", "fold", "json"): "7a07e996c102bd7c94642e2f92f135b4e6d62899a497608f6c06c16586b2e55b",
    ("a1-id", "verify", "text"): "c88139d1b72270b4c85c161d070ba7aac91f9d9a69a5884f69a867099b25c278",
    ("a1-id", "verify", "json"): "b95eb95352e669a4fdbc4edf012c97ebae6257615f5d1584a2f4e1c9b33d6dd6",
}


def run_cli(capsys, tmp_path, name, *argv):
    path = tmp_path / (name + ".cox")
    path.write_text(ALL_INPUTS[name])
    rc = cli.main([argv[0], str(path), *argv[1:]])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(ALL_INPUTS))
def test_input_digest_is_hashlib_sha256(name):
    # input_digest takes sha256 from the interpreter's own module
    matrix, autos = parse_input(ALL_INPUTS[name])
    autos = [Automorphism(images) for _, images in autos]
    text = str(matrix) + "\n" + "\n".join(map(str, autos))
    assert input_digest(matrix, autos) == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,command,fmt", sorted(GOLDEN))
def test_golden_stdout(capsys, tmp_path, name, command, fmt):
    rc, out = run_cli(capsys, tmp_path, name, command,
                      *EXTRA.get((name, command), ()), "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name, command, fmt]


def test_golden_h3_samples_presentation_pairs(capsys, tmp_path):
    # the golden set must cover the sampled branch of the pair draw
    _, out = run_cli(capsys, tmp_path, "h3-id", "verify", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    stats = checks["presentation-isomorphism"]["statistics"]
    assert stats["pairs_exhaustive"] is False and stats["pairs"] == 300


@pytest.mark.parametrize("name", sorted(SAMPLED_INPUTS))
def test_golden_finite_flip_samples_additivity_pairs(capsys, tmp_path, name):
    # the golden set must cover the sampled pairs of the additivity check
    # on a finite W, whose fixed set the coset chain lists
    _, out = run_cli(capsys, tmp_path, name, "verify", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    stats = checks["length-additivity-transfer"]["statistics"]
    assert stats == {"pairs": 300, "exhaustive": False}
