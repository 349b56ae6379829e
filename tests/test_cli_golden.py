"""Byte pins for the CLI's stdout: every format of every subcommand.

Each case runs `main` in process and compares the sha256 of its stdout with a
digest captured before the record writers were merged into one serializer.
Cases that `perfbench/golden.json` also holds are compared with its bytes as
well (that file is only read here), and so is the `verify --suite all` report
of every one of its 16 seeds.  A deliberate change of the output
contract, a replaced optimizer for `minimize` or a change to what its fields
mean, updates these digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cyclic_bounds.cli import main
from cyclic_bounds.verification import report_to_json, run_verification

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)

# The path the golden `witness --out` run printed; it is relative to the
# working directory, which each case sets to a fresh temporary directory.
WITNESS_OUT = ".perfbench_tmp/witness.txt"
WITNESS_OUT_SHA = "eeae70b5dd0373c41ef89666d83cc687319ace233a9b3530c60a00ff6b236c3d"

# (argv, sha256 of stdout, key in golden.json or None)
CASES = [
    ("bounds --k-max 5", "c4467f896b3128472a23942f49a211c6690041abcafaf73a0bbeb430fa41c712", None),
    ("bounds --k-max 5 --format csv", "660bb49c25013f5612da4264fd7b557b9ce5d91e51bd91cd897f9e6e84b78595", None),
    ("bounds --k-max 5 --format json", "a8fcb1ea587c0b8ed521e988ab063cd1f6a189715b8503e915f9a0e6937a8fee", None),
    ("bounds --k-max 32 --format csv", None, "bounds"),
    ("tangent --k 3", "5aa5ac91bf5e10769f5252c0764190275fc1fc8879f1b69a38806a374d359b80", "tangent_3"),
    ("tangent --k 3 --format csv", "0370201de074d18c849ba43413d508534351d1ef1f78d8ee9f43c25feebb55bd", None),
    ("tangent --k 3 --format json", "fc94d2b0742112d8f7724d296ddca492162408d26ef9aeddfa47a2e0bfdf170c", None),
    ("tangent --k 2.5", "f1c125fb315ddb9b98522d6c34f9c365063c0c89ec3625d8c125782d7d141d40", None),
    ("tangent --k 2.5 --format csv", "aede07a5377db701cd7c9dd824f617a9759eb444ad6503c7b817625a7f83a8f8", None),
    ("tangent --k 2.5 --format json", "a23718e9e1691663741610fd6a858018824d17e2eb1d4f713bbfdd6e17527a29", None),
    ("tangent --k inf", "6badd6066fbc547b7df48086476781e61b5b5d4b5df075b5ffc03db5c1fbf4a0", "tangent_inf"),
    ("tangent --k inf --format csv", "76add19306cc12969e49cad928154f64118d979b51deb7fec57da6f9ae60d35c", None),
    ("tangent --k inf --format json", "b38b4c3d416a36776ea5242a18b0b23ec98d1ba33ffd295c0e7bdab3a3ed0ec9", None),
    ("witness --k 3 --eps 0.01", "54cb4d16f49ea6fa0f40d4b43707987cdb324e59e9f075cb1085494ce290595e", None),
    (
        "witness --k 3 --eps 0.01 --format json",
        "6279f4d88ab3fbbd4dcf73f497dc13e8c8ab75ed7d933c3906e945ec951bf554",
        "witness_json",
    ),
    (
        f"witness --k 2 --eps 0.001 --out {WITNESS_OUT}",
        "0aa652e68c045dd2eb981d8cb679d872dca80076350953484907b1372895dcdd",
        "witness_out",
    ),
    ("verify --suite fast --seed 0", "a0c2f5b56481f66d9e9691fa72675d0fa8c449bf38b5f2022522be9261c4a61d", None),
    ("verify --suite all --seed 1", "8859f2cae691fab46d08ebf319ea47888db5015adbf31a806e6626dff30dcf78", "verify/1"),
    # captured before the verify groups drew first and summed in batches
    ("verify --suite fast --seed 1", "facacd202fe1c541ad68e44707f9bf7fecb94886241f4d505c415b4c30600c97", None),
    ("verify --suite fast --seed 2", "fed802abaf465abd45f8ef1cdccf896962f46ae8c1ae3bf9f59c503d618e607e", None),
    ("verify --suite fast --seed 3", "7ac05a1f26438b8cb02e6ecdf2b3b21fd930b7caa3ade55feed074bc6f746ade", None),
    ("verify --suite fast --seed 4", "d10ac3416ecb5a80ecee9da209136cea020359f1d32e3e429736201b9e68f9a8", None),
    ("verify --suite fast --seed 5", "cf504a44c0ce968dd3d31493f9f09e1dece77d8c4401a350a09a64ed61e4b5ba", None),
    ("verify --suite fast --seed 6", "ca60622ea23894c49a8d269b0b5636597af5b850d3e7faf6a9269f6939cb48d5", None),
    ("verify --suite fast --seed 7", "528d448a1c9380eaa92ca6af9866bcc4f1ddb5e7f1fd7057c8803651ebadec16", None),
    ("verify --suite fast --seed 8", "c86857c7117cf857c9b8351bfbca9485ecc2978da7fe9227d6c1539a48687917", None),
    ("verify --suite fast --seed 9", "d266eb94a4de0759bbbfa76ad85c6ffc841091fa8af037e954c600fdb37c2b51", None),
    ("verify --suite fast --seed 10", "775a4ca00c1b65d5dc94fa672b16ddb56a2fadcd374c84dbf3251dd162c9af1e", None),
    ("verify --suite fast --seed 11", "0f83488138dc44f1ddd7c84ae0e82818e471142b3c9e95900349527f7917d5d6", None),
    ("verify --suite fast --seed 12", "a7eef4d966590c182088dfa77e0750e649ab53d6e4187ea64e3f27a99d455476", None),
    ("verify --suite fast --seed 13", "a147ae0744ef9deca9d7a13555ee17caca94e24b2ee98d6c835f46ce713b99d7", None),
    ("verify --suite fast --seed 14", "fb24d106419e8a5647688912f3d4ff735fa93dc85945f8119f88c24f184bc7e7", None),
    ("verify --suite fast --seed 15", "5f53febcfafdd7f5d22757e97c363027fe4c5d8d4bcdf827a0bd6c791705d46d", None),
    ("verify --suite all --seed 2026", "79adf8b2355658e05fce33e5bf66e66aac9557527c3686df40ba152038c232d8", None),
    # every start stops before max_iters: converged_starts is 4
    (
        "minimize --n 12 --k 2 --restarts 2 --seed 0",
        "f7cd1f8ebb2d983fffee84c1457c5ebadcc1e15e8df4d9c9be0b2d6f5c5e6e1e",
        None,
    ),
    # two starts, the winner among them, run to max_iters: converged false, converged_starts 2
    (
        "minimize --n 24 --k 3 --restarts 2 --seed 3",
        "8f8bba6c3651c43edcabd541e57f4535216e87c4ac1f1e2938512996c3e8dc99",
        None,
    ),
]


def _golden(key):
    node = GOLDEN
    for part in key.split("/"):
        node = node[part]
    return node


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, digest, key", CASES, ids=[c[0] for c in CASES])
def test_stdout_bytes(argv, digest, key, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / WITNESS_OUT).parent.mkdir()
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    if digest is not None:
        assert _sha256(out.encode()) == digest
    if key is not None:
        assert out == _golden(key)
    if "--out" in argv:
        written = (tmp_path / WITNESS_OUT).read_bytes()
        assert _sha256(written) == WITNESS_OUT_SHA == GOLDEN["witness_out_sha256"]


@pytest.mark.parametrize("seed", range(16))
def test_verify_report_bytes_every_seed(seed):
    report = run_verification("all", seed)
    assert report_to_json(report) + "\n" == GOLDEN["verify"][str(seed)]
